"""Overlap between Bogoliubov-rotated vacua over a finite set of modes.

Each mode k carries coefficients (U_k, V_k) with U_k^2 + V_k^2 = 1. A
profile stores only the U_k, with V_k = sqrt(1 - U_k^2) implied, because
the overlap between the untransformed and transformed vacuum is the
product of the U_k alone, computed in log space so thousands of modes
cannot underflow:

    <0|0'> = prod_k U_k = exp(sum_k ln U_k)

As the mode count K grows the overlap decays like exp(slope * K); for a
uniform profile the slope is exactly ln U. In the infinite-mode limit the
overlap vanishes and the two vacua support unitarily inequivalent
representations; the decay rate quantifies how fast a finite system
approaches that limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._numpy import np
from .errors import ValidationError
from .units import _Record


class BogoliubovProfile(_Record):
    """Per-mode coefficients U_k, each in (0, 1]; V_k = sqrt(1 - U_k^2) is implied."""

    __slots__ = _fields = ("u",)

    def __init__(self, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=float)
        if u.ndim != 1:
            raise ValidationError("u must be a 1-d array")
        # NaN fails both comparisons, so it is rejected too
        if u.size and not (np.min(u) > 0.0 and np.max(u) <= 1.0):
            raise ValidationError("every U_k must be in (0, 1]")
        _Record.__init__(self, u)

    @property
    def mode_count(self) -> int:
        return int(self.u.size)


def uniform_profile(u: float, modes: int) -> BogoliubovProfile:
    """All modes share one coefficient U_k = u."""
    if modes < 0:
        raise ValidationError(f"modes must be nonnegative, got {modes}")
    if not 0.0 < u <= 1.0:
        raise ValidationError(f"u must be in (0, 1], got {u!r}")
    return BogoliubovProfile(np.full(modes, float(u)))


def pairing_family(
    gap: float = 0.2,
    half_bandwidth: float = 1.0,
    seed: int = 0,
) -> Callable[[int], BogoliubovProfile]:
    """Profiles from a pairing model with randomly sampled band energies.

    Mode k gets a band energy xi_k drawn uniformly from
    (-half_bandwidth, +half_bandwidth) and coefficients

        V_k^2 = (1 - xi_k / sqrt(xi_k^2 + gap^2)) / 2,  U_k^2 = 1 - V_k^2.

    The returned callable maps a mode count K to a profile and keeps no
    state: each call draws its K band energies from a fresh
    ``np.random.default_rng(seed)``. The generator takes one double per
    uniform draw, so family(K1) is a prefix of family(K2) whenever K1 < K2,
    whatever order the counts are requested in. That makes overlap decay
    across counts monotone and the log-slope fit well posed.
    """
    if not gap > 0.0:
        raise ValidationError(f"gap must be positive, got {gap!r}")
    if not half_bandwidth > 0.0:
        raise ValidationError(f"half_bandwidth must be positive, got {half_bandwidth!r}")
    if not math.isfinite(2.0 * half_bandwidth):
        raise ValidationError(f"2 * half_bandwidth must be finite, got {half_bandwidth!r}")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")

    def family(modes: int) -> BogoliubovProfile:
        if modes < 0:
            raise ValidationError(f"modes must be nonnegative, got {modes}")
        xi = np.random.default_rng(seed).uniform(-half_bandwidth, half_bandwidth, modes)
        # U_k = sqrt(1 - V_k^2), evaluated in place on one buffer
        u = np.hypot(xi, gap)
        np.divide(xi, u, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(0.5, u, out=u)
        np.subtract(1.0, u, out=u)
        return BogoliubovProfile(np.sqrt(u, out=u))

    return family


def log_vacuum_overlap(profile: BogoliubovProfile) -> float:
    """ln of the vacuum overlap, sum_k ln U_k; 0.0 for zero modes."""
    u = profile.u
    if u.size and np.min(u) <= 0.0:
        raise ValidationError("every U_k must be positive")
    return float(np.sum(np.log(u)))


def vacuum_overlap(profile: BogoliubovProfile) -> float:
    """The overlap itself, exp(sum ln U_k); underflows gracefully to 0.0."""
    return math.exp(log_vacuum_overlap(profile))


def overlap_decay_rate(
    family: Callable[[int], BogoliubovProfile], mode_counts: Sequence[int]
) -> float:
    """Least-squares slope of ln overlap versus mode count.

    Needs at least three distinct counts; for a uniform family the slope
    is ln u exactly (the points are collinear).
    """
    counts = sorted(set(int(k) for k in mode_counts))
    if len(counts) < 3:
        raise ValidationError("need at least three distinct mode counts to fit a slope")
    if counts[0] < 0:
        raise ValidationError("mode counts must be nonnegative")
    return _log_overlap_slope(counts, [log_vacuum_overlap(family(k)) for k in counts])


def _log_overlap_slope(counts: Sequence[int], logs: Sequence[float]) -> float:
    """Least-squares slope of ``logs`` against distinct, sorted ``counts``."""
    slope, _ = np.polyfit(np.asarray(counts, dtype=float), np.asarray(logs), 1)
    return float(slope)
