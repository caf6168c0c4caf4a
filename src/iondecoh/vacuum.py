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

Memory: a profile is its mode count and a source of its U_k, read a leaf
of at most ``_BLOCK_MODES`` modes at a time. ``pairing_family(...)(K)``
and ``uniform_profile(u, K)`` draw nothing when they are called.
``log_vacuum_overlap`` draws, checks and sums one leaf at a time into one
leaf-sized scratch array, and adds the leaves' sums in the tree that
numpy's pairwise summation adds them in, so its float is that of
``np.sum(np.log(profile.u))`` and no array of K doubles is made. Reading
``profile.u`` makes that array, draws it whole with the same bits, and
keeps it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence

from ._numpy import np
from .errors import ValidationError
from .units import _Record

_BLOCK_MODES = 65_536  # the most modes drawn, checked and summed at a time


class BogoliubovProfile(_Record):
    """Per-mode coefficients U_k, each in (0, 1]; V_k = sqrt(1 - U_k^2) is implied.

    ``u`` is the one field. A profile that a family or ``uniform_profile``
    made draws it on its first read and keeps it. ``repr``, copy, deepcopy
    and pickle read ``u``, so on such a profile they draw and keep its K
    doubles, and a count too large for memory (10^12 modes) fails on numpy's
    allocation. ``==`` and ``hash`` behave as for any record that holds an
    array: ``==`` of two profiles raises ValueError for more than one mode,
    and ``hash`` raises TypeError.
    """

    # _draw() starts a pass over the U_k from the first: a function take(block) that gives the next
    # block.size of them as an array, which is not block; take may use block as its workspace
    __slots__ = ("_u", "mode_count", "_draw")
    _fields = ("u",)

    def __init__(self, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=float)
        if u.ndim != 1:
            raise ValidationError("u must be a 1-d array")
        # NaN fails both comparisons, so it is rejected too
        if u.size and not (np.min(u) > 0.0 and np.max(u) <= 1.0):
            raise ValidationError("every U_k must be in (0, 1]")
        self._set(u, u.size, functools.partial(_slices, u))

    def _set(self, u: np.ndarray | None, modes: int, draw: Callable) -> None:
        for set_field, value in zip(self._setters, (u, modes, draw)):
            set_field(self, value)

    @classmethod
    def _drawn(cls, modes: int, draw: Callable) -> BogoliubovProfile:
        """A profile of modes U_k, drawn by draw() a leaf at a time, and whole on the first read of ``u``."""
        self = object.__new__(cls)
        self._set(None, operator.index(modes), draw)
        return self

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            u = np.empty(self.mode_count)
            take = self._draw()
            for start in range(0, u.size, _BLOCK_MODES):
                block = u[start:start + _BLOCK_MODES]
                block[...] = take(block)
            self._set(u, u.size, functools.partial(_slices, u))  # later passes read the array
        return self._u


def _slices(u: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A pass over u: each call take(block) gives a view of u's next block.size values."""
    end = 0

    def take(block):
        nonlocal end
        end += block.size
        return u[end - block.size:end]

    return take


def uniform_profile(u: float, modes: int) -> BogoliubovProfile:
    """All modes share one coefficient U_k = u."""
    if modes < 0:
        raise ValidationError(f"modes must be nonnegative, got {modes}")
    if not 0.0 < u <= 1.0:
        raise ValidationError(f"u must be in (0, 1], got {u!r}")
    u = float(u)

    def take(block):
        return np.full(block.size, u)

    return BogoliubovProfile._drawn(modes, lambda: take)


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
    state. The profile draws nothing until it is read: each pass over it
    draws its K band energies from a fresh ``np.random.default_rng(seed)``,
    a leaf of at most ``_BLOCK_MODES`` at a time. The generator takes one
    double per uniform draw, so the leaves draw what one whole draw would,
    and family(K1) is a prefix of family(K2) whenever K1 < K2, whatever
    order the counts are requested in. That makes overlap decay across
    counts monotone and the log-slope fit well posed.
    """
    if not gap > 0.0:
        raise ValidationError(f"gap must be positive, got {gap!r}")
    if not half_bandwidth > 0.0:
        raise ValidationError(f"half_bandwidth must be positive, got {half_bandwidth!r}")
    if not math.isfinite(2.0 * half_bandwidth):
        raise ValidationError(f"2 * half_bandwidth must be finite, got {half_bandwidth!r}")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")

    def draw():
        return functools.partial(_pairing_leaf, np.random.default_rng(seed), gap, half_bandwidth)

    def family(modes: int) -> BogoliubovProfile:
        if modes < 0:
            raise ValidationError(f"modes must be nonnegative, got {modes}")
        return BogoliubovProfile._drawn(modes, draw)

    return family


def _pairing_leaf(rng, gap: float, half_bandwidth: float, block: np.ndarray) -> np.ndarray:
    """The pairing model's next block.size U_k, from rng's next band energies; block is their workspace."""
    u = rng.uniform(-half_bandwidth, half_bandwidth, block.size)
    # U_k = sqrt(1 - V_k^2), evaluated in place in the band energies' array;
    # each step is elementwise and the stream continues from leaf to leaf, so
    # every U_k is the bits of one whole-array evaluation
    np.hypot(u, gap, out=block)
    np.divide(u, block, out=u)
    np.subtract(1.0, u, out=u)
    np.multiply(0.5, u, out=u)
    np.subtract(1.0, u, out=u)
    return np.sqrt(u, out=u)


def _pairwise_sum(modes: int, leaf_sum: Callable[[int], float]) -> float:
    """The sum of modes values as np.sum adds them in one array; leaf_sum(m) sums the next m of them.

    This mirrors numpy's pairwise summation (pairwise_sum in its add loop):
    a run of more than 128 values splits at n2 = n//2 - (n//2) % 8 and the
    halves' sums are added. np.sum of a leaf of at most _BLOCK_MODES values
    sums that leaf's subtree, so splitting the runs above it the same way
    keeps the bits of the whole array's sum. tests/test_vacuum.py checks
    those bits, so a numpy that splits otherwise fails there.
    """
    if modes <= _BLOCK_MODES:
        return leaf_sum(modes)
    half = modes // 2 - modes // 2 % 8
    return _pairwise_sum(half, leaf_sum) + _pairwise_sum(modes - half, leaf_sum)


def log_vacuum_overlap(profile: BogoliubovProfile) -> float:
    """ln of the vacuum overlap, sum_k ln U_k; 0.0 for zero modes.

    The U_k are read a leaf at a time, each leaf is checked to be in
    (0, 1], and its logs are taken into one leaf-sized scratch array, so
    the profile is left as it is. The float is np.sum(np.log(profile.u)).
    """
    take = profile._draw()
    scratch = np.empty(min(profile.mode_count, _BLOCK_MODES))

    def leaf_sum(modes):
        logs = scratch[:modes]
        u = take(logs)
        # NaN fails both comparisons, so it is rejected too
        if modes and not (np.min(u) > 0.0 and np.max(u) <= 1.0):
            raise ValidationError("every U_k must be in (0, 1]")
        return np.sum(np.log(u, out=logs))

    return float(_pairwise_sum(profile.mode_count, leaf_sum))


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
    return _log_overlap_slope(counts, [log_vacuum_overlap(family(count)) for count in counts])


def _log_overlap_slope(counts: Sequence[int], logs: Sequence[float]) -> float:
    """Least-squares slope of ``logs`` against distinct, sorted ``counts``."""
    slope, _ = np.polyfit(np.asarray(counts, dtype=float), np.asarray(logs), 1)
    return float(slope)
