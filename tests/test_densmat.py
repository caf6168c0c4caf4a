import math

import numpy as np
import pytest

from iondecoh import core, densmat
from iondecoh.errors import ValidationError
from iondecoh.units import length_m, rate_per_s, time_s

WIDTH = length_m(1e-9)
SEPARATION = length_m(1e-8)  # ten widths
WAVELENGTH = length_m(1e-10)  # separation = 100 wavelengths
RATE = rate_per_s(1e15)


def two_packet_state(**kwargs):
    spec = densmat.SuperpositionSpec(separation=SEPARATION, width=WIDTH)
    return densmat.prepare_superposition(spec, **kwargs)


def test_prepared_state_is_a_density_matrix():
    rho = two_packet_state()
    assert densmat.trace(rho) == pytest.approx(1.0, rel=1e-12)
    assert densmat.hermiticity_defect(rho) == 0.0
    assert densmat.min_eigenvalue(rho) >= -1e-9
    assert densmat.purity(rho) == pytest.approx(1.0, rel=1e-9)


def test_single_packet_purity():
    spec = densmat.SuperpositionSpec(separation=length_m(0.0), width=WIDTH)
    rho = densmat.prepare_superposition(spec)
    assert densmat.purity(rho) == pytest.approx(1.0, rel=1e-9)
    assert densmat.coherence_ratio(rho, length_m(0.0)) == 1.0


def test_off_diagonal_peak_matches_analytic_value():
    rho = two_packet_state()
    w, d = WIDTH.si, SEPARATION.si
    offset = round(d / rho.spacing.si)
    peak = float(np.max(np.abs(np.diagonal(rho.elements, offset))))
    s = math.exp(-d * d / (8 * w * w))
    expected = math.sqrt(1.0 / (2.0 * math.pi * w * w)) / (2.0 * (1.0 + s))
    assert peak == pytest.approx(expected, rel=0.01)


def test_relative_phase_rotates_cross_terms():
    spec = densmat.SuperpositionSpec(separation=SEPARATION, width=WIDTH, relative_phase=math.pi / 2)
    rho = densmat.prepare_superposition(spec)
    offset = round(SEPARATION.si / rho.spacing.si)
    band = np.diagonal(rho.elements, offset)
    assert float(np.max(np.abs(band.imag))) > 0.1 * float(np.max(np.abs(band)))
    assert densmat.trace(rho) == pytest.approx(1.0, rel=1e-12)
    assert densmat.hermiticity_defect(rho) == 0.0


def test_zero_step_is_identity():
    rho = two_packet_state()
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(0.0))
    assert np.array_equal(evolved.elements, rho.elements)


def test_diagonal_is_untouched():
    rho = two_packet_state()
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(1e-15))
    assert np.array_equal(np.diagonal(evolved.elements), np.diagonal(rho.elements))


def test_two_half_steps_equal_one_step():
    rho = two_packet_state()
    one = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(2e-16))
    half = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(1e-16))
    two = densmat.apply_decoherence(half, RATE, WAVELENGTH, time_s(1e-16))
    np.testing.assert_allclose(two.elements, one.elements, rtol=1e-12, atol=0.0)
    assert two.time.si == pytest.approx(one.time.si, rel=1e-15)


def band_peaks(elements):
    """max |rho_ij| over each band j - i = o, o = 0 .. N-1: coherence_ratio's expression for the current state."""
    return [float(np.max(np.abs(np.diagonal(elements, o)))) for o in range(elements.shape[0])]


def test_prepared_state_stores_t0_elements_once():
    # N doubles, one per band, in place of a second reference to the N^2 elements
    rho = two_packet_state()
    assert rho.initial_band_peaks.shape == (rho.size,)
    assert rho.initial_band_peaks.tolist() == band_peaks(rho.elements)


def test_evolution_preserves_initial_reference():
    rho = two_packet_state()
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(1e-15))
    assert evolved.initial_band_peaks is rho.initial_band_peaks


def test_saturated_separation_reaches_exp_minus_three():
    rho = two_packet_state()
    t = 3.0 / RATE.si
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(t))
    ratio = densmat.coherence_ratio(evolved, SEPARATION)
    assert ratio == pytest.approx(math.exp(-3.0), rel=0.02)


def test_coherence_ratio_agrees_with_two_point_factor():
    rho = two_packet_state()
    dt = time_s(7e-16)
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, dt)
    offset = round(SEPARATION.si / rho.spacing.si)
    exact_band_separation = length_m(offset * rho.spacing.si)
    expected = core.decoherence_factor(exact_band_separation, dt, WAVELENGTH, RATE)
    assert densmat.coherence_ratio(evolved, SEPARATION) == pytest.approx(expected, rel=1e-12)


def test_suppression_monotone_in_separation_ratio():
    rho = two_packet_state()
    dt = time_s(1e-15)
    band_dx = round(SEPARATION.si / rho.spacing.si) * rho.spacing.si
    ratios = []
    for r in np.logspace(-2, 2, 9):
        lam = length_m(SEPARATION.si / r)
        evolved = densmat.apply_decoherence(rho, RATE, lam, dt)
        ratios.append((densmat.coherence_ratio(evolved, SEPARATION), band_dx / lam.si))
    # strictly decreasing until the suppression saturates, non-increasing after
    assert all(a[0] >= b[0] for a, b in zip(ratios, ratios[1:]))
    assert all(a[0] > b[0] for a, b in zip(ratios[:5], ratios[1:5]))
    # extremes follow the two limiting branches of the suppression law
    small, large = ratios[0], ratios[-1]
    assert math.log(small[0]) == pytest.approx(-RATE.si * dt.si * 0.5 * small[1] ** 2, rel=0.01)
    assert math.log(large[0]) == pytest.approx(-RATE.si * dt.si, rel=0.01)


def test_long_evolution_invariants():
    rho = two_packet_state()
    samples = densmat.evolve_series(
        rho, RATE, WAVELENGTH, t_total=time_s(6e-16), steps=20, separation=SEPARATION
    )
    assert len(samples) == 21
    for sample in samples:
        assert sample.trace == pytest.approx(1.0, rel=1e-12)
        assert sample.min_eigenvalue >= -1e-9
    coherences = [s.coherence for s in samples]
    purities = [s.purity for s in samples]
    assert all(a >= b for a, b in zip(coherences, coherences[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(purities, purities[1:]))
    assert samples[0].coherence == 1.0


def test_suppression_kernel_is_positive_semidefinite():
    rho = two_packet_state(num_points=64)
    kernel = densmat.suppression_kernel(rho.positions, RATE, WAVELENGTH, time_s(1e-15))
    assert np.array_equal(kernel, kernel.T)
    eigenvalues = np.linalg.eigvalsh(kernel)
    assert eigenvalues[0] >= -1e-9 * eigenvalues[-1]


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_non_finite_relative_phase_rejected(phase):
    with pytest.raises(ValidationError, match="relative_phase"):
        densmat.SuperpositionSpec(separation=SEPARATION, width=WIDTH, relative_phase=phase)


def test_grid_too_small_rejected():
    spec = densmat.SuperpositionSpec(separation=length_m(4e-8), width=WIDTH)
    with pytest.raises(ValidationError, match="grid"):
        densmat.prepare_superposition(spec)


@pytest.mark.parametrize("extent", [0.0, -40.0, math.inf, math.nan])
def test_extent_widths_must_be_positive_and_finite(extent):
    with pytest.raises(ValidationError, match="extent_widths must be positive"):
        two_packet_state(extent_widths=extent)


def test_extent_widths_with_an_infinite_span_rejected():
    spec = densmat.SuperpositionSpec(separation=length_m(0.0), width=length_m(1e300))
    with pytest.raises(ValidationError, match="finite grid span"):
        densmat.prepare_superposition(spec, extent_widths=1e10)


@pytest.mark.parametrize("extent", [1000.0, 1e308])
def test_grid_that_misses_the_packets_rejected(extent):
    # eight points over a span of `extent` widths all land where both
    # Gaussians underflow, or their squared distance overflows, to zero
    with pytest.raises(ValidationError, match="raise num_points or lower extent_widths"):
        two_packet_state(num_points=8, extent_widths=extent)


def test_width_whose_square_underflows_rejected():
    spec = densmat.SuperpositionSpec(separation=length_m(0.0), width=length_m(1e-170))
    with pytest.raises(ValidationError, match=r"width 1e-170 m is too small: 4 \* width\*\*2 underflows"):
        densmat.prepare_superposition(spec, num_points=16)


def test_spacing_whose_inverse_square_overflows_rejected_before_the_outer_product(monkeypatch):
    # purity sums |rho_ij|^2 = 1 / h^2, which overflows for h below ~7.5e-155 m
    spec = densmat.SuperpositionSpec(separation=length_m(0.0), width=length_m(1e-154))
    assert math.isfinite(densmat.purity(densmat.prepare_superposition(spec, num_points=16)))
    monkeypatch.setattr(np, "outer", None)
    with pytest.raises(ValidationError, match=r"grid spacing \S+ m is too small: 1 / spacing\*\*2 overflows"):
        densmat.prepare_superposition(spec, num_points=256)


def small_state(elements, band_peaks):
    """A ReducedDensityMatrix of the given elements on a grid of unit spacing."""
    elements = np.asarray(elements, dtype=complex)
    return densmat.ReducedDensityMatrix(np.arange(len(elements), dtype=float), length_m(1.0), elements,
                                        np.asarray(band_peaks, dtype=float), time_s(0.0))


def test_unresolvable_separation_rejected():
    rho = two_packet_state()
    with pytest.raises(ValidationError, match="resolution"):
        densmat.coherence_ratio(rho, length_m(rho.spacing.si / 10.0))
    with pytest.raises(ValidationError, match="extent"):
        densmat.coherence_ratio(rho, length_m(1.0))
    # the separation over the spacing 2.7e-150 m is infinite, which round() cannot take
    tiny = densmat.prepare_superposition(densmat.SuperpositionSpec(length_m(1e-150), length_m(1e-150)), num_points=16)
    with pytest.raises(ValidationError, match="^separation exceeds the grid extent$"):
        densmat.coherence_ratio(tiny, length_m(1e300))
    with pytest.raises(ValidationError, match="^separation exceeds the grid extent$"):
        densmat.evolve_series(tiny, RATE, WAVELENGTH, t_total=time_s(1e-16), steps=1, separation=length_m(1e300))
    with pytest.raises(ValidationError, match="^separation must be nonnegative$"):
        densmat.coherence_ratio(rho, length_m(-rho.spacing.si))
    incoherent = small_state(np.eye(4) / 4.0, [0.25, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="^state had no coherence at that separation to begin with$"):
        densmat.coherence_ratio(incoherent, length_m(1.0))


def test_negative_dt_rejected():
    rho = two_packet_state()
    with pytest.raises(ValidationError):
        densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(-1e-16))


def test_check_invariants_flags_corruption():
    rho = two_packet_state()
    assert densmat.check_invariants(rho) == (densmat.trace(rho), densmat.min_eigenvalue(rho))
    rho.elements[0, 0] += 1e9
    with pytest.raises(ValidationError):
        densmat.check_invariants(rho)
    # Hermitian, trace one, eigenvalues 1.5 and -0.5
    with pytest.raises(ValidationError, match="^state has a negative eigenvalue -0.5$"):
        densmat.check_invariants(small_state([[1.5, 0.0], [0.0, -0.5]], [1.5, 0.0]))


def test_check_invariants_rejects_nan_before_eigensolve(monkeypatch):
    rho = two_packet_state(num_points=64)
    elements = rho.elements.copy()
    elements[3, 5] = elements[5, 3] = complex(np.nan, 0.0)
    corrupted = densmat.ReducedDensityMatrix(rho.positions, rho.spacing, elements, rho.initial_band_peaks, rho.time)

    def no_eigensolve(matrix):
        raise AssertionError("eigensolve reached with a non-finite state")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    with pytest.raises(ValidationError):
        densmat.check_invariants(corrupted)


def test_non_finite_rate_times_dt_rejected():
    rho = two_packet_state(num_points=16)
    with pytest.raises(ValidationError, match="finite"):
        densmat.suppression_kernel(rho.positions, rate_per_s(1e300), WAVELENGTH, time_s(1e300))


def test_each_sample_is_certified_by_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(matrix):
        calls.append(matrix)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rho = two_packet_state(num_points=64)
    t_total, steps = time_s(1.2e-16), 4
    dt = t_total / steps
    samples = densmat.evolve_series(rho, RATE, WAVELENGTH, t_total=t_total, steps=steps, separation=SEPARATION)
    certified = list(calls)
    assert len(certified) == steps + 1
    assert certified[0] is rho.elements

    # the reported values are the certified ones, bit for bit; each
    # eigensolve reads the state itself, which stays exactly Hermitian,
    # so no symmetrised copy is needed
    state = rho
    for sample, matrix in zip(samples, certified):
        assert densmat.hermiticity_defect(state) == 0.0
        assert np.array_equal(matrix, state.elements)
        assert sample.trace == densmat.trace(state)
        assert sample.min_eigenvalue == densmat.min_eigenvalue(state)
        assert calls[-1] is state.elements
        state = densmat.apply_decoherence(state, RATE, WAVELENGTH, dt)


# The unblocked, out-of-place expressions that prepared, stepped and checked
# a state before they were rewritten in place and in row blocks. They stay
# here as oracles: the rewrite must give the same bits, not close ones.
def full_kernel(positions, rate, wavelength, dt):
    rate_dt = core.suppression_rate_time(rate, dt, wavelength, "dt")
    dx = positions[:, None] - positions[None, :]
    with np.errstate(over="ignore"):
        u = 0.5 * (dx / wavelength.si) ** 2
    return np.exp(rate_dt * np.expm1(-u))


BLOCKING_SIZES = [8, 63, 65, 200]  # fewer rows than one block, and not multiples of it
PHASES = [0.0, 0.7]


def phased_state(num_points, phase):
    spec = densmat.SuperpositionSpec(separation=SEPARATION, width=WIDTH, relative_phase=phase)
    return densmat.prepare_superposition(spec, num_points=num_points)


def random_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", BLOCKING_SIZES)
def test_prepared_state_is_the_symmetrised_outer_product_bit_for_bit(monkeypatch, n, phase):
    outer_products = []
    outer = np.outer

    def recording_outer(a, b):
        result = outer(a, b)
        outer_products.append(result.copy())
        return result

    monkeypatch.setattr(np, "outer", recording_outer)
    rho = phased_state(n, phase)
    (product,) = outer_products
    assert np.array_equal(rho.elements, 0.5 * (product + product.conj().T))


@pytest.mark.parametrize("wavelength", [WAVELENGTH, length_m(1e-300)], ids=["finite", "saturated"])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", BLOCKING_SIZES)
def test_blocked_step_matches_the_full_kernel_bit_for_bit(n, phase, wavelength):
    rho = phased_state(n, phase)
    before = rho.elements.copy()
    dt = time_s(3e-16)
    kernel = full_kernel(rho.positions, RATE, wavelength, dt)
    assert np.array_equal(densmat.suppression_kernel(rho.positions, RATE, wavelength, dt), kernel)
    rows = slice(7, 7 + densmat._BLOCK_ROWS)
    assert np.array_equal(densmat.suppression_kernel(rho.positions, RATE, wavelength, dt, rows=rows), kernel[rows])
    evolved = densmat.apply_decoherence(rho, RATE, wavelength, dt)
    assert np.array_equal(evolved.elements, before * kernel)
    assert np.array_equal(rho.elements, before)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", BLOCKING_SIZES)
def test_blocked_maxima_and_purity_match_the_full_array_bit_for_bit(n, phase):
    rho = densmat.apply_decoherence(phased_state(n, phase), RATE, WAVELENGTH, time_s(3e-16))
    skewed = densmat.ReducedDensityMatrix(rho.positions, rho.spacing, random_matrix(n), rho.initial_band_peaks, rho.time)
    for state in (rho, skewed):
        a = state.elements
        assert densmat.hermiticity_defect(state) == float(np.max(np.abs(a - a.conj().T)))
        assert densmat.purity(state) == state.spacing.si ** 2 * float(np.sum(np.abs(a) ** 2))


@pytest.mark.parametrize("k, hermitian", [(0.5, True), (2.0, False)])
def test_hermiticity_tolerance_scales_with_the_largest_magnitude(k, hermitian):
    rho = two_packet_state(num_points=64)
    largest = float(np.max(np.abs(rho.elements)))
    assert largest > 1e8  # so a tolerance of HERMITICITY_ATOL alone would reject k = 0.5 too
    elements = rho.elements.copy()
    elements[0, 1] += k * densmat.HERMITICITY_ATOL * largest  # upper triangle: the eigensolve does not read it
    skewed = densmat.ReducedDensityMatrix(rho.positions, rho.spacing, elements, rho.initial_band_peaks, rho.time)
    if hermitian:
        densmat.check_invariants(skewed)
    else:
        with pytest.raises(ValidationError, match="state is not Hermitian"):
            densmat.check_invariants(skewed)


# 16 N^2 bytes above sys.maxsize from N = 759,250,125 on, on 64 bits; no run at or below the bound is started
@pytest.mark.parametrize("num_points", [759_250_125, 2**63 - 1, 10**400], ids=["bound+1", "2**63-1", "10**400"])
def test_a_state_above_the_address_space_is_rejected_before_any_allocation(monkeypatch, num_points):
    monkeypatch.setattr(np, "linspace", None)  # the first allocation, which must not be reached
    with pytest.raises(ValidationError, match=r"^num_points is too large: a state of 16 \* num_points\*\*2 bytes"):
        two_packet_state(num_points=num_points)


def test_a_step_count_no_double_holds_is_rejected_without_its_digits():
    with pytest.raises(ValidationError, match="^steps must be at most the largest double, got a larger integer$"):
        densmat.evolve_series(two_packet_state(num_points=8), RATE, WAVELENGTH, t_total=time_s(1e-15),
                              steps=10**400, separation=SEPARATION)


@pytest.mark.parametrize("row, column", [(0, 0), (3, 150), (199, 198)])
def test_nan_in_any_row_block_makes_the_defect_nan_and_is_rejected(row, column):
    rho = phased_state(200, 0.7)
    elements = rho.elements.copy()
    elements[row, column] = complex(np.nan, 0.0)
    corrupted = densmat.ReducedDensityMatrix(rho.positions, rho.spacing, elements, rho.initial_band_peaks, rho.time)
    assert math.isnan(densmat.hermiticity_defect(corrupted))
    with pytest.raises(ValidationError, match="not Hermitian: defect nan"):
        densmat.check_invariants(corrupted)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", BLOCKING_SIZES)
def test_coherence_ratio_divides_by_the_t0_band_peak_bit_for_bit(n, phase):
    # the ratio that read the t=0 elements themselves, for every band
    rho = phased_state(n, phase)
    initial = rho.elements.copy()
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(3e-16))
    evolved = densmat.apply_decoherence(evolved, RATE, WAVELENGTH, time_s(2e-16))
    for offset, (now, then) in enumerate(zip(band_peaks(evolved.elements), band_peaks(initial))):
        separation = length_m(offset * rho.spacing.si)
        assert densmat._offset_for_separation(evolved, separation) == offset
        assert densmat.coherence_ratio(evolved, separation) == now / then
