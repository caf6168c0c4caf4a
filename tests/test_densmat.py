import dataclasses
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


def test_prepared_state_stores_t0_elements_once():
    rho = two_packet_state()
    assert rho.initial_elements is rho.elements


def test_evolution_preserves_initial_reference():
    rho = two_packet_state()
    evolved = densmat.apply_decoherence(rho, RATE, WAVELENGTH, time_s(1e-15))
    assert np.array_equal(evolved.initial_elements, rho.initial_elements)


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
        rho, RATE, WAVELENGTH, time_s(3e-17), steps=20, separation=SEPARATION
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


def test_unresolvable_separation_rejected():
    rho = two_packet_state()
    with pytest.raises(ValidationError, match="resolution"):
        densmat.coherence_ratio(rho, length_m(rho.spacing.si / 10.0))
    with pytest.raises(ValidationError, match="extent"):
        densmat.coherence_ratio(rho, length_m(1.0))


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


def test_check_invariants_rejects_nan_before_eigensolve(monkeypatch):
    rho = two_packet_state(num_points=64)
    elements = rho.elements.copy()
    elements[3, 5] = elements[5, 3] = complex(np.nan, 0.0)
    corrupted = dataclasses.replace(rho, elements=elements)

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
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rho = two_packet_state(num_points=64)
    dt, steps = time_s(3e-17), 4
    samples = densmat.evolve_series(rho, RATE, WAVELENGTH, dt, steps, SEPARATION)
    assert len(calls) == steps + 1

    # the reported values are the certified ones, bit for bit
    state = rho
    for sample in samples:
        assert sample.trace == densmat.trace(state)
        assert sample.min_eigenvalue == densmat.min_eigenvalue(state)
        state = densmat.apply_decoherence(state, RATE, WAVELENGTH, dt)
