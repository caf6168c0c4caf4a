import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iondecoh import cli, vacuum
from iondecoh.errors import ValidationError


def test_zero_modes_overlap_is_one():
    profile = vacuum.uniform_profile(0.9, 0)
    assert vacuum.log_vacuum_overlap(profile) == 0.0
    assert vacuum.vacuum_overlap(profile) == 1.0


def test_uniform_closed_form():
    profile = vacuum.uniform_profile(0.9, 100)
    assert vacuum.vacuum_overlap(profile) == pytest.approx(0.9 ** 100, rel=1e-9)
    assert vacuum.vacuum_overlap(profile) == pytest.approx(2.656e-5, rel=1e-3)
    assert vacuum.log_vacuum_overlap(profile) == pytest.approx(100 * math.log(0.9), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=0.999), st.integers(min_value=1, max_value=300))
def test_uniform_closed_form_randomized(u, modes):
    profile = vacuum.uniform_profile(u, modes)
    assert vacuum.log_vacuum_overlap(profile) == pytest.approx(modes * math.log(u), rel=1e-9)


def test_all_trivial_modes_give_unit_overlap():
    profile = vacuum.uniform_profile(1.0, 50)
    assert vacuum.vacuum_overlap(profile) == 1.0


def test_log_space_survives_underflow():
    profile = vacuum.uniform_profile(0.9, 10000)
    assert vacuum.vacuum_overlap(profile) == 0.0  # graceful underflow
    assert vacuum.log_vacuum_overlap(profile) == pytest.approx(10000 * math.log(0.9), rel=1e-12)


def test_extension_strictly_decreases_overlap():
    family = vacuum.pairing_family()
    logs = [vacuum.log_vacuum_overlap(family(k)) for k in (10, 50, 100, 500, 1000)]
    assert all(a > b for a, b in zip(logs, logs[1:]))


def test_pairing_family_counts_are_nested_prefixes():
    family = vacuum.pairing_family(seed=123)
    large = family(200)
    small = family(50)  # requested after, still a prefix
    assert np.array_equal(large.u[:50], small.u)
    fresh = vacuum.pairing_family(seed=123)(50)
    assert np.array_equal(fresh.u, small.u)


def test_pairing_profile_satisfies_constraint():
    profile = vacuum.pairing_family(gap=0.2, half_bandwidth=1.0, seed=0)(1000)
    assert profile.mode_count == 1000
    # U_k = sqrt(1 - V_k^2) with V_k^2 from the same band energies, bit for
    # bit; the generator takes one double per draw, so drawing in pieces
    # from one stream gives the same energies as one fresh draw
    rng = np.random.default_rng(0)
    xi = np.concatenate([rng.uniform(-1.0, 1.0, n) for n in (100, 900)])
    v_sq = 0.5 * (1.0 - xi / np.hypot(xi, 0.2))
    assert np.array_equal(profile.u, np.sqrt(1.0 - v_sq))
    assert float(np.min(profile.u)) > 0.0
    assert float(np.max(profile.u)) < 1.0


def test_default_pairing_family_frozen_values():
    family = vacuum.pairing_family()
    assert vacuum.log_vacuum_overlap(family(100)) == pytest.approx(-69.20284780465175, rel=1e-9)
    assert vacuum.log_vacuum_overlap(family(1000)) == pytest.approx(-742.9934050468659, rel=1e-9)
    assert vacuum.log_vacuum_overlap(family(10000)) == pytest.approx(-8000.124031939373, rel=1e-9)


def test_decay_rate_uniform_family_is_ln_u():
    family = lambda k: vacuum.uniform_profile(0.9, k)  # noqa: E731
    slope = vacuum.overlap_decay_rate(family, [100, 200, 400, 800])
    assert slope == pytest.approx(math.log(0.9), abs=1e-6)


def test_decay_rate_trivial_family_is_zero():
    family = lambda k: vacuum.uniform_profile(1.0, k)  # noqa: E731
    assert vacuum.overlap_decay_rate(family, [10, 20, 30]) == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_default_pairing_family():
    slope = vacuum.overlap_decay_rate(vacuum.pairing_family(), [100, 1000, 10000])
    assert slope == pytest.approx(-0.8032293786368829, rel=1e-9)
    assert slope < 0.0


def test_decay_rate_needs_three_counts():
    family = lambda k: vacuum.uniform_profile(0.9, k)  # noqa: E731
    with pytest.raises(ValidationError):
        vacuum.overlap_decay_rate(family, [100, 200])
    with pytest.raises(ValidationError):
        vacuum.overlap_decay_rate(family, [100, 100, 100])
    with pytest.raises(ValidationError, match="^mode counts must be nonnegative$"):
        vacuum.overlap_decay_rate(family, [-1, 0, 1])


def test_profile_validation():
    assert vacuum.BogoliubovProfile(np.array([1.0, 0.5])).mode_count == 2
    assert vacuum.BogoliubovProfile(np.array([])).mode_count == 0
    for bad in (1.5, 0.0, -0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            vacuum.BogoliubovProfile(np.array([0.9, bad, 0.8]))
    with pytest.raises(ValidationError):
        vacuum.BogoliubovProfile(np.array([[0.5]]))
    with pytest.raises(ValidationError):
        vacuum.uniform_profile(1.5, 10)
    with pytest.raises(ValidationError):
        vacuum.uniform_profile(0.9, -1)
    for kwargs in ({"gap": -0.1}, {"gap": math.nan}, {"half_bandwidth": math.nan},
                   {"half_bandwidth": math.inf}, {"half_bandwidth": 1e308}):
        with pytest.raises(ValidationError):
            vacuum.pairing_family(**kwargs)


def test_overlap_guards_against_mutated_coefficients():
    profile = vacuum.uniform_profile(0.9, 10)
    profile.u[0] = 0.0  # arrays are views; simulate downstream corruption
    with pytest.raises(ValidationError):
        vacuum.log_vacuum_overlap(profile)


B = vacuum._BLOCK_MODES
# each side of one leaf, two leaves, and counts whose halves leave a
# remainder mod 8 at several levels of numpy's pairwise split
LEAF_EDGE_MODES = [0, 1, B - 1, B, B + 1, 131_075, 2 * B + 8, 1_000_003, 2_000_003]
PAIRING = [(0.2, 1.0, 0), (1e-3, 5.0, 17), (0.7, 0.3, 123_456)]
UNIFORM = [0.9, 0.37, 1.0]
SOURCES = {**{f"pairing-{gap}-{half_bandwidth}-{seed}": ("pairing", gap, half_bandwidth, seed)
              for gap, half_bandwidth, seed in PAIRING},
           **{f"uniform-{u}": ("uniform", u) for u in UNIFORM}}


def profile_and_whole_array(source, modes):
    """A profile of source's modes U_k, and the whole-array U_k that a profile of one array of K doubles held."""
    if source[0] == "uniform":
        return vacuum.uniform_profile(source[1], modes), np.full(modes, source[1])
    _, gap, half_bandwidth, seed = source
    # the whole-array expression that drawing a leaf at a time replaced, kept as its oracle
    xi = np.random.default_rng(seed).uniform(-half_bandwidth, half_bandwidth, modes)
    return vacuum.pairing_family(gap, half_bandwidth, seed)(modes), np.sqrt(1.0 - 0.5 * (1.0 - xi / np.hypot(xi, gap)))


def strided(u):
    """A BogoliubovProfile over a view of every other double, holding u."""
    both = np.empty(2 * u.size)
    both[::2], both[1::2] = u, np.nan
    return vacuum.BogoliubovProfile(both[::2])


@pytest.mark.parametrize("read", ["u-never-read", "u-read-first", "strided-view"])
@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("modes", LEAF_EDGE_MODES)
def test_leaf_sums_keep_the_whole_array_sum_bit_for_bit(source, modes, read):
    profile, u = profile_and_whole_array(SOURCES[source], modes)
    log_overlap = float(np.sum(np.log(u)))
    if read == "strided-view":
        profile = strided(u)
    elif read == "u-read-first":
        assert profile.u.tobytes() == u.tobytes()
    assert profile.mode_count == modes
    assert vacuum.log_vacuum_overlap(profile) == log_overlap
    assert profile.u.tobytes() == u.tobytes()  # a profile's sum leaves it as it was
    assert vacuum.log_vacuum_overlap(profile) == log_overlap


def cli_log_overlaps(capsys, *argv):
    """The log overlaps that bcs prints in json: repr floats, so each is the float computed."""
    assert cli.main(["bcs", *argv, "--format", "json"]) == 0
    return [point["log_overlap"] for point in json.loads(capsys.readouterr().out)["points"]]


@pytest.mark.parametrize("source", list(SOURCES))
def test_bcs_log_overlaps_are_the_whole_array_sums(capsys, source):
    kind, *params = SOURCES[source]
    flags = (["--uniform-u", repr(params[0])] if kind == "uniform" else
             ["--gap", repr(params[0]), "--half-bandwidth", repr(params[1]), "--seed", str(params[2])])
    expected = [float(np.sum(np.log(profile_and_whole_array(SOURCES[source], modes)[1])))
                for modes in LEAF_EDGE_MODES]
    assert cli_log_overlaps(capsys, "--modes", ",".join(map(str, LEAF_EDGE_MODES)), *flags) == expected


def test_drawn_profiles_draw_nothing_until_read(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drawn")

    monkeypatch.setattr(vacuum, "_pairing_leaf", no_draw)
    profile = vacuum.pairing_family()(10**12)
    assert profile.mode_count == 10**12
    assert vacuum.uniform_profile(0.5, 10**12).mode_count == 10**12


def test_decay_rate_leaves_profiles_that_share_one_array_as_they_are():
    u = vacuum.pairing_family(seed=4)(B + 5).u
    before = u.tobytes()
    profiles = {k: vacuum.BogoliubovProfile(u[:k]) for k in (10, 100, B + 5)}
    logs = [float(np.sum(np.log(u[:k]))) for k in profiles]
    slope = float(np.polyfit(np.asarray(list(profiles), dtype=float), logs, 1)[0])
    assert vacuum.overlap_decay_rate(profiles.__getitem__, list(profiles)) == slope
    assert u.tobytes() == before


@pytest.mark.parametrize("family", [vacuum.pairing_family(0.7, 0.3, 5), lambda k: vacuum.uniform_profile(0.37, k)],
                         ids=["pairing", "uniform"])
def test_decay_rate_is_the_fit_over_the_whole_array_sums(family):
    counts = [10, B + 1, 300_000]
    logs = [float(np.sum(np.log(family(k).u))) for k in counts]
    assert vacuum.overlap_decay_rate(family, counts) == float(np.polyfit(np.asarray(counts, dtype=float), logs, 1)[0])
