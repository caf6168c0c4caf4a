import json

import numpy as np
import pytest

from iondecoh import core, regimes
from iondecoh.errors import ValidationError
from iondecoh.materials import bundled_salt_database, salt_by_name
from iondecoh.units import CODATA, Quantity, time_s


@pytest.fixture(scope="module")
def nacl():
    return salt_by_name(bundled_salt_database(), "NaCl")


@pytest.fixture(scope="module")
def nacl_ctx(nacl):
    return core.context_for_salt(nacl)


def test_nacl_scenario_with_observed_coherence(nacl_ctx):
    report = regimes.classify(
        core.tau1(nacl_ctx), core.tau2(nacl_ctx), time_s(1.0), coherent_phase_observed=True
    )
    assert report.verdict is regimes.Verdict.QFT_REGIME_INDICATED
    assert report.tau_dec.si == core.tau1(nacl_ctx).si  # tau1 < tau2 here


def test_nacl_scenario_without_observed_coherence(nacl_ctx):
    report = regimes.classify(
        core.tau1(nacl_ctx), core.tau2(nacl_ctx), time_s(1.0), coherent_phase_observed=False
    )
    assert report.verdict is regimes.Verdict.CLASSICAL_LIMIT


def test_small_ratio_is_quantum_mechanics_adequate():
    report = regimes.classify(
        time_s(1e-3), time_s(2e-3), time_s(0.5), coherent_phase_observed=True
    )
    assert report.verdict is regimes.Verdict.QUANTUM_MECHANICS_ADEQUATE
    assert report.timescale_ratio == pytest.approx(500.0)


def test_threshold_boundary_is_inclusive():
    at = regimes.classify(time_s(1.0), time_s(2.0), time_s(1e3), False)
    assert at.verdict is regimes.Verdict.QUANTUM_MECHANICS_ADEQUATE
    above = regimes.classify(time_s(1.0), time_s(2.0), time_s(1.0000001e3), False)
    assert above.verdict is regimes.Verdict.CLASSICAL_LIMIT


def test_the_ratio_classify_computed_is_kept_once_but_is_not_a_field(monkeypatch):
    import copy
    import dataclasses
    import pickle

    calls = []
    ratio = Quantity.ratio
    monkeypatch.setattr(Quantity, "ratio", lambda a, b: calls.append(b) or ratio(a, b))
    report = regimes.classify(time_s(3.0), time_s(2.0), time_s(1e4), False)
    assert report.timescale_ratio == report.to_dict()["timescale_ratio"] == 5e3
    assert len(calls) == 1  # classify's own, read back by the report
    assert "5000.0" not in repr(report) and "timescale_ratio" not in report._fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.timescale_ratio = 1.0
    for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
        assert clone == report and repr(clone) == repr(report)
        assert clone.timescale_ratio == 5e3 and clone.to_dict() == report.to_dict()
    # the public constructor computes it from its fields
    built = regimes.RegimeReport(*report._values())
    assert built.timescale_ratio == 5e3


def test_tau_dec_is_the_smaller_timescale():
    report = regimes.classify(time_s(5.0), time_s(2.0), time_s(1.0), False)
    assert report.tau_dec.si == 2.0
    swapped = regimes.classify(time_s(2.0), time_s(5.0), time_s(1.0), False)
    assert swapped.verdict is report.verdict


def test_scale_invariance_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t1 = 10.0 ** rng.uniform(-40, 0)
        t2 = 10.0 ** rng.uniform(-40, 0)
        td = 10.0 ** rng.uniform(-10, 3)
        observed = bool(rng.integers(0, 2))
        scale = 10.0 ** rng.uniform(-6, 6)
        base = regimes.classify(time_s(t1), time_s(t2), time_s(td), observed)
        scaled = regimes.classify(
            time_s(t1 * scale), time_s(t2 * scale), time_s(td * scale), observed
        )
        assert scaled.verdict is base.verdict


def test_classify_validation():
    with pytest.raises(ValidationError):
        regimes.classify(time_s(-1.0), time_s(1.0), time_s(1.0), False)
    for threshold in (0.5, 1.0, float("nan")):
        with pytest.raises(ValidationError, match="threshold_ratio"):
            regimes.classify(time_s(1.0), time_s(1.0), time_s(2.0), False, threshold_ratio=threshold)


def test_report_round_trips_through_json(nacl_ctx):
    report = regimes.classify(
        core.tau1(nacl_ctx), core.tau2(nacl_ctx), time_s(1.0), coherent_phase_observed=True
    )
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["verdict"] == "QftRegimeIndicated"
    assert payload["inputs"]["tau_dyn_s"] == 1.0
    assert payload["inputs"]["threshold_ratio"] == 1e3
    assert "operational choice" in payload["note"]
    assert payload["timescale_ratio"] == pytest.approx(1.0 / report.tau_dec.si, rel=1e-12)


def test_xray_consistency_frozen_values(nacl, nacl_ctx):
    check = regimes.xray_consistency(nacl_ctx, nacl, time_s(0.5e-18))
    assert check.implied_density.si == pytest.approx(1.995026678688138e-18, rel=1e-12)
    assert check.implied_spacing.si == pytest.approx(3.6504322883086997e-3, rel=1e-12)
    assert check.wavelength_x.si == pytest.approx(1.49896229e-10, rel=1e-12)


def test_xray_identity_when_tau_x_equals_tau1(nacl, nacl_ctx):
    t1 = core.tau1(nacl_ctx)
    check = regimes.xray_consistency(nacl_ctx, nacl, t1)
    assert check.implied_density.si == pytest.approx(nacl.mass_density.si, rel=1e-12)
    expected_spacing = (nacl.formula_mass.si / nacl.mass_density.si) ** (1.0 / 3.0)
    assert check.implied_spacing.si == pytest.approx(expected_spacing, rel=1e-12)
    # that spacing is the actual interionic scale, a few angstroms
    assert 2e-10 < check.implied_spacing.si < 6e-10


def test_xray_scaling(nacl, nacl_ctx):
    base = regimes.xray_consistency(nacl_ctx, nacl, time_s(0.5e-18))
    slower = regimes.xray_consistency(nacl_ctx, nacl, time_s(4e-18))
    assert slower.implied_density.si == pytest.approx(base.implied_density.si / 8.0, rel=1e-12)
    assert slower.implied_spacing.si == pytest.approx(base.implied_spacing.si * 2.0, rel=1e-12)


def _quantity_cbrt(q):
    return Quantity(q.si ** (1.0 / 3.0), q.dim.root(3))


@pytest.mark.parametrize("record", bundled_salt_database(), ids=lambda record: record.name)
def test_xray_results_match_their_run_over_quantities(record):
    # the proof of each result's dimension: its body over Quantities gives the
    # dimension the result carries and, over SI floats, the same bits
    ctx = core.context_for_salt(record)
    for tau_x in (time_s(0.5e-18), time_s(1.0), time_s(1e-320), time_s(5e-324)):
        check = regimes.xray_consistency(ctx, record, tau_x)
        carrier = (CODATA.c, _quantity_cbrt, record.mass_density, record.formula_mass, check.tau1, tau_x)
        results = (check.implied_density, check.implied_spacing, check.wavelength_x)
        for (label, dim, body, _), result in zip(regimes._XRAY_RESULTS, results):
            proof = body(*carrier)
            assert proof.dim is dim is result.dim, label
            assert proof.si.hex() == result.si.hex(), label


def test_xray_validation(nacl, nacl_ctx):
    with pytest.raises(ValidationError):
        regimes.xray_consistency(nacl_ctx, nacl, time_s(0.0))
