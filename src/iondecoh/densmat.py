"""Position-basis density matrix of one ion under collisional decoherence.

A superposition of two Gaussian packets is sampled on a uniform grid and
evolved by elementwise damping of the off-diagonal elements,

    rho(x, x'; t + dt) = rho(x, x'; t) * exp(Lambda dt (exp(-(x-x')^2 / 2 lambda^2) - 1)),

the same suppression law as :func:`iondecoh.core.decoherence_factor`. The
damping kernel is a positive combination of Gaussian kernels, so it is
positive semidefinite and the Schur product theorem guarantees the state
stays Hermitian, trace-one, and positive semidefinite at every step.

Grid convention: positions x_i, spacing h; trace = h * sum(diag), purity =
h^2 * sum |rho_ij|^2 (discrete double integral), so a pure state has
purity 1 on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .units import LENGTH, RATE, TIME, Quantity, length_m, time_s

HERMITICITY_ATOL = 1e-12
TRACE_RTOL = 1e-9
EIGENVALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two Gaussian packets, centres +-separation/2, common width, relative phase."""

    separation: Quantity
    width: Quantity
    relative_phase: float = 0.0

    def __post_init__(self) -> None:
        self.separation.require(LENGTH, "separation")
        self.width.require(LENGTH, "width")
        if self.separation.si < 0:
            raise ValidationError("separation must be nonnegative")
        if self.width.si <= 0:
            raise ValidationError("width must be positive")
        if not math.isfinite(self.relative_phase):
            raise ValidationError(f"relative_phase must be finite, got {self.relative_phase!r}")


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Grid-sampled density matrix plus its t=0 elements for coherence ratios.

    This package never modifies these arrays in place: each evolution step
    builds a new ``elements`` array, so a freshly prepared state holds one
    array as both ``elements`` and ``initial_elements``.
    """

    positions: np.ndarray
    spacing: Quantity
    elements: np.ndarray
    initial_elements: np.ndarray
    time: Quantity

    @property
    def size(self) -> int:
        return self.positions.size


def prepare_superposition(
    spec: SuperpositionSpec,
    num_points: int = 256,
    extent_widths: float = 40.0,
) -> ReducedDensityMatrix:
    """Sample the normalised two-packet pure state on a centred uniform grid.

    The grid spans extent_widths * width; both packet centres must sit at
    least five widths inside the boundary or the tails would be truncated,
    which is rejected as a configuration error.
    """
    if num_points < 8:
        raise ValidationError(f"num_points must be at least 8, got {num_points}")
    w = spec.width.si
    half_span = 0.5 * extent_widths * w
    if 0.5 * spec.separation.si + 5.0 * w > half_span:
        raise ValidationError(
            "grid too small: packet centres must sit at least five widths "
            "inside the boundary; enlarge extent_widths or shrink separation"
        )
    x = np.linspace(-half_span, half_span, num_points)
    h = x[1] - x[0]
    c = 0.5 * spec.separation.si
    # |psi|^2 per packet is a normal density with variance w^2.
    g1 = np.exp(-((x - c) ** 2) / (4.0 * w * w))
    g2 = np.exp(-((x + c) ** 2) / (4.0 * w * w))
    psi = (g1 + np.exp(1j * spec.relative_phase) * g2).astype(np.complex128)
    norm = math.sqrt(h * float(np.sum(np.abs(psi) ** 2)))
    psi /= norm
    rho = np.outer(psi, np.conj(psi))
    # rounding in complex products can break rho = rho^dagger at the last
    # bit; symmetrise once, after which the real symmetric damping kernel
    # preserves Hermiticity exactly
    rho = 0.5 * (rho + rho.conj().T)
    return ReducedDensityMatrix(
        positions=x,
        spacing=length_m(float(h)),
        elements=rho,
        initial_elements=rho,
        time=time_s(0.0),
    )


def suppression_kernel(
    positions: np.ndarray, rate: Quantity, wavelength: Quantity, dt: Quantity
) -> np.ndarray:
    """Elementwise damping factors exp(Lambda dt (exp(-dx^2/2 lambda^2) - 1))."""
    rate.require(RATE, "rate")
    wavelength.require(LENGTH, "wavelength")
    dt.require(TIME, "dt")
    if dt.si < 0:
        raise ValidationError(f"dt must be nonnegative, got {dt.si!r}")
    if wavelength.si <= 0:
        raise ValidationError("wavelength must be positive")
    if rate.si < 0:
        raise ValidationError("rate must be nonnegative")
    rate_dt = rate.si * dt.si
    if not math.isfinite(rate_dt):
        raise ValidationError(f"rate * dt must be finite, got {rate.si!r} * {dt.si!r}")
    dx = positions[:, None] - positions[None, :]
    u = 0.5 * (dx / wavelength.si) ** 2
    return np.exp(rate_dt * np.expm1(-u))


def apply_decoherence(
    rho: ReducedDensityMatrix, rate: Quantity, wavelength: Quantity, dt: Quantity
) -> ReducedDensityMatrix:
    """One evolution step; returns a new state, the input is unchanged."""
    kernel = suppression_kernel(rho.positions, rate, wavelength, dt)
    return replace(rho, elements=rho.elements * kernel, time=rho.time + dt)


def trace(rho: ReducedDensityMatrix) -> float:
    return rho.spacing.si * float(np.sum(np.real(np.diag(rho.elements))))


def purity(rho: ReducedDensityMatrix) -> float:
    return rho.spacing.si ** 2 * float(np.sum(np.abs(rho.elements) ** 2))


def hermiticity_defect(rho: ReducedDensityMatrix) -> float:
    """Largest elementwise deviation from rho = rho^dagger."""
    return float(np.max(np.abs(rho.elements - rho.elements.conj().T)))


def min_eigenvalue(rho: ReducedDensityMatrix) -> float:
    """Smallest eigenvalue of the Hermitian part, in trace-normalised units."""
    hermitian = 0.5 * (rho.elements + rho.elements.conj().T)
    return rho.spacing.si * float(np.linalg.eigvalsh(hermitian)[0])


def check_invariants(rho: ReducedDensityMatrix) -> tuple[float, float]:
    """Raise if the state stopped being a density matrix within tolerance.

    Returns the (trace, min_eigenvalue) it checked, for the caller to report.
    Each test is written so that NaN fails it; a non-finite element makes
    the Hermiticity defect NaN, so it is rejected before the eigensolve.
    """
    defect = hermiticity_defect(rho)
    if not defect <= HERMITICITY_ATOL * max(1.0, float(np.max(np.abs(rho.elements)))):
        raise ValidationError(f"state is not Hermitian: defect {defect:g}")
    tr = trace(rho)
    if not abs(tr - 1.0) <= TRACE_RTOL:
        raise ValidationError(f"trace drifted to {tr!r}")
    low = min_eigenvalue(rho)
    if not low >= -EIGENVALUE_FLOOR:
        raise ValidationError(f"state has a negative eigenvalue {low:g}")
    return tr, low


def _offset_for_separation(rho: ReducedDensityMatrix, separation: Quantity) -> int:
    separation.require(LENGTH, "separation")
    if separation.si < 0:
        raise ValidationError("separation must be nonnegative")
    h = rho.spacing.si
    offset = round(separation.si / h)
    if separation.si > 0 and offset == 0:
        raise ValidationError(
            f"separation {separation.si:g} m is below the grid resolution {h:g} m"
        )
    if offset >= rho.size:
        raise ValidationError("separation exceeds the grid extent")
    return offset


def coherence_ratio(rho: ReducedDensityMatrix, separation: Quantity) -> float:
    """Surviving off-diagonal weight at |x - x'| = separation, relative to t=0.

    Measured on the diagonal band nearest the requested separation as the
    ratio of peak magnitudes now versus at preparation. Equals the
    two-point suppression factor exactly, because the damping kernel is
    constant along each band.
    """
    offset = _offset_for_separation(rho, separation)
    now = float(np.max(np.abs(np.diagonal(rho.elements, offset))))
    then = float(np.max(np.abs(np.diagonal(rho.initial_elements, offset))))
    if then == 0.0:
        raise ValidationError("state had no coherence at that separation to begin with")
    return now / then


@dataclass(frozen=True)
class SimSample:
    """One row of an evolution time series."""

    time: float
    coherence: float
    trace: float
    purity: float
    min_eigenvalue: float


def evolve_series(
    rho: ReducedDensityMatrix,
    rate: Quantity,
    wavelength: Quantity,
    dt: Quantity,
    steps: int,
    separation: Quantity,
) -> list[SimSample]:
    """Evolve in equal steps, sampling diagnostics at t=0 and after each step.

    Invariants (Hermiticity, unit trace, positivity) are checked at every
    sample and violations raise, so a returned series is also a certificate.
    Each sample reports the trace and min_eigenvalue that check measured.
    """
    if steps < 1:
        raise ValidationError(f"steps must be at least 1, got {steps}")

    def sample(state: ReducedDensityMatrix) -> SimSample:
        tr, low = check_invariants(state)
        return SimSample(
            time=state.time.si,
            coherence=coherence_ratio(state, separation),
            trace=tr,
            purity=purity(state),
            min_eigenvalue=low,
        )

    samples = [sample(rho)]
    current = rho
    for _ in range(steps):
        current = apply_decoherence(current, rate, wavelength, dt)
        samples.append(sample(current))
    return samples
