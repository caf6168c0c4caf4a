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

Memory: a state is N^2 complex doubles, 16 N^2 bytes. Every full-size
intermediate is built in place or in blocks of ``_BLOCK_ROWS`` rows, and a
state keeps only N doubles of its t=0 form (the peak magnitude of each
diagonal band), so an N-point run peaks at about two state-size arrays
(32 N^2 bytes: the current state and either the next one or the
eigensolver's copy of it) plus the interpreter and numpy.
"""

from __future__ import annotations

import math
import sys

from ._numpy import np
from .core import suppression_rate_time
from .errors import ValidationError
from .units import LENGTH, Quantity, _Record, length_m, time_s

HERMITICITY_ATOL = 1e-12
TRACE_RTOL = 1e-9
EIGENVALUE_FLOOR = 1e-9
_BLOCK_ROWS = 64


class SuperpositionSpec(_Record):
    """Two Gaussian packets, centres +-separation/2, common width, relative phase."""

    __slots__ = _fields = ("separation", "width", "relative_phase")

    def __init__(self, separation: Quantity, width: Quantity, relative_phase: float = 0.0) -> None:
        separation.require(LENGTH, "separation")
        width.require(LENGTH, "width")
        if separation.si < 0:
            raise ValidationError("separation must be nonnegative")
        if width.si <= 0:
            raise ValidationError("width must be positive")
        if not math.isfinite(relative_phase):
            raise ValidationError(f"relative_phase must be finite, got {relative_phase!r}")
        _Record.__init__(self, separation, width, relative_phase)


class ReducedDensityMatrix(_Record):
    """Grid-sampled density matrix plus the t=0 band peaks for coherence ratios.

    ``initial_band_peaks[o]`` is max |rho_ij| over the band j - i = o of the
    prepared state: N doubles, so an evolved state does not keep the N^2
    prepared elements alive. This package never modifies these arrays in
    place: each evolution step builds a new ``elements`` array.
    """

    __slots__ = _fields = ("positions", "spacing", "elements", "initial_band_peaks", "time")

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
    which is rejected as a configuration error; so is a grid whose points
    all miss the packets, leaving a state of norm zero.
    """
    if num_points < 8:
        raise ValidationError(f"num_points must be at least 8, got {num_points}")
    w = spec.width.si
    four_w2 = 4.0 * w * w
    if four_w2 == 0.0:
        raise ValidationError(f"width {w!r} m is too small: 4 * width**2 underflows to 0.0")
    span = extent_widths * w
    if not (extent_widths > 0 and math.isfinite(span)):
        raise ValidationError(
            f"extent_widths must be positive and give a finite grid span, got {extent_widths!r}"
        )
    if four_w2 == math.inf:
        raise ValidationError(f"width {w!r} m is too large: 4 * width**2 overflows")
    half_span = 0.5 * span
    if 0.5 * spec.separation.si + 5.0 * w > half_span:
        raise ValidationError(
            "grid too small: packet centres must sit at least five widths "
            "inside the boundary; enlarge extent_widths or shrink separation"
        )
    x = np.linspace(-half_span, half_span, num_points)
    h = float(x[1] - x[0])
    # h * sum |psi|^2 = 1 makes sum |rho_ij|^2 = 1 / h^2, which bounds every
    # term of the purity sum, so 1 / h^2 must be a finite double
    if h * h < 1.0 / sys.float_info.max:
        raise ValidationError(f"grid spacing {h!r} m is too small: 1 / spacing**2 overflows")
    c = 0.5 * spec.separation.si
    # |psi|^2 per packet is a normal density with variance w^2; a squared
    # distance that overflows gives the amplitude its limit, zero
    with np.errstate(over="ignore"):
        g1 = np.exp(-((x - c) ** 2) / four_w2)
        g2 = np.exp(-((x + c) ** 2) / four_w2)
    psi = (g1 + np.exp(1j * spec.relative_phase) * g2).astype(np.complex128)
    norm = math.sqrt(h * float(np.sum(np.abs(psi) ** 2)))
    if not norm > 0:
        raise ValidationError(
            f"grid cannot resolve the packets: the sampled state has norm {norm!r}; "
            "raise num_points or lower extent_widths"
        )
    psi /= norm
    rho = np.outer(psi, np.conj(psi))
    # rounding in complex products can break rho = rho^dagger at the last
    # bit; symmetrise once, after which the real symmetric damping kernel
    # preserves Hermiticity exactly
    np.add(rho, rho.conj().T, out=rho)
    np.multiply(0.5, rho, out=rho)
    return ReducedDensityMatrix(
        positions=x,
        spacing=length_m(h),
        elements=rho,
        initial_band_peaks=np.array([np.max(np.abs(np.diagonal(rho, o))) for o in range(num_points)]),
        time=time_s(0.0),
    )


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most _BLOCK_ROWS rows that together cover n rows."""
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


def suppression_kernel(
    positions: np.ndarray, rate: Quantity, wavelength: Quantity, dt: Quantity, *, rows: slice = slice(None)
) -> np.ndarray:
    """Elementwise damping factors exp(Lambda dt (exp(-dx^2/2 lambda^2) - 1)).

    ``rows`` selects the rows of the kernel to build, all by default.
    An overflowing (dx / lambda)^2 gives the saturated factor exp(-Lambda dt).
    """
    rate_dt = suppression_rate_time(rate, dt, wavelength, "dt")
    k = positions[rows, None] - positions[None, :]
    with np.errstate(over="ignore"):
        k /= wavelength.si
        k **= 2
    np.multiply(0.5, k, out=k)
    np.negative(k, out=k)
    np.expm1(k, out=k)
    np.multiply(rate_dt, k, out=k)
    return np.exp(k, out=k)


def apply_decoherence(
    rho: ReducedDensityMatrix, rate: Quantity, wavelength: Quantity, dt: Quantity
) -> ReducedDensityMatrix:
    """One evolution step; returns a new state, the input is unchanged.

    The kernel is built and applied one block of rows at a time.
    """
    elements = np.empty_like(rho.elements)
    for rows in _row_blocks(rho.size):
        kernel = suppression_kernel(rho.positions, rate, wavelength, dt, rows=rows)
        np.multiply(rho.elements[rows], kernel, out=elements[rows])
    return ReducedDensityMatrix(rho.positions, rho.spacing, elements, rho.initial_band_peaks, rho.time + dt)


def trace(rho: ReducedDensityMatrix) -> float:
    return rho.spacing.si * float(np.sum(np.real(np.diag(rho.elements))))


def purity(rho: ReducedDensityMatrix) -> float:
    # one sum over the whole array: summing in blocks would change the rounding
    magnitude = np.abs(rho.elements)
    magnitude **= 2
    return rho.spacing.si ** 2 * float(np.sum(magnitude))


def _max_abs_over_row_blocks(rho: ReducedDensityMatrix, block) -> float:
    """Largest |block(rows)| over the row blocks of the state.

    The max is exact, so blocking does not change it, and np.max over the
    block maxima keeps a NaN from any block.
    """
    return float(np.max([np.max(np.abs(block(rows))) for rows in _row_blocks(rho.size)]))


def hermiticity_defect(rho: ReducedDensityMatrix) -> float:
    """Largest elementwise deviation from rho = rho^dagger."""
    a = rho.elements
    return _max_abs_over_row_blocks(rho, lambda rows: a[rows] - a[:, rows].conj().T)


def min_eigenvalue(rho: ReducedDensityMatrix) -> float:
    """Smallest eigenvalue, in trace-normalised units.

    ``eigvalsh`` reads only the lower triangle of the state, so this is
    exact for a Hermitian state; :func:`check_invariants` bounds the
    Hermiticity defect before it calls this.
    """
    return rho.spacing.si * float(np.linalg.eigvalsh(rho.elements)[0])


def check_invariants(rho: ReducedDensityMatrix) -> tuple[float, float]:
    """Raise if the state stopped being a density matrix within tolerance.

    Returns the (trace, min_eigenvalue) it checked, for the caller to report.
    Each test is written so that NaN fails it; a non-finite element makes
    the Hermiticity defect NaN, so it is rejected before the eigensolve.
    """
    defect = hermiticity_defect(rho)
    largest = _max_abs_over_row_blocks(rho, lambda rows: rho.elements[rows])
    if not defect <= HERMITICITY_ATOL * max(1.0, largest):
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
    then = float(rho.initial_band_peaks[offset])
    if then == 0.0:
        raise ValidationError("state had no coherence at that separation to begin with")
    return now / then


class SimSample(_Record):
    """One row of an evolution time series."""

    __slots__ = _fields = ("time", "coherence", "trace", "purity", "min_eigenvalue")


def evolve_series(
    rho: ReducedDensityMatrix,
    rate: Quantity,
    wavelength: Quantity,
    *,
    t_total: Quantity,
    steps: int,
    separation: Quantity,
) -> list[SimSample]:
    """Evolve for t_total in steps of dt = t_total / steps, sampling at t=0 and after each step.

    Invariants (Hermiticity, unit trace, positivity) are checked at every
    sample and violations raise, so a returned series is also a certificate.
    Each sample reports the trace and min_eigenvalue that check measured.
    ``rho`` is rebound at each step, so once the caller drops the prepared
    state (as the CLI does by passing it inline) no step keeps it alive.
    """
    if steps < 1:
        raise ValidationError(f"steps must be at least 1, got {steps}")
    dt = t_total / steps

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
    for _ in range(steps):
        rho = apply_decoherence(rho, rate, wavelength, dt)
        samples.append(sample(rho))
    return samples
