"""Unit-safe scalar quantities over the SI base (kg, m, s, K, C).

Every physical value in this package is a :class:`Quantity`: an SI magnitude
paired with integer dimension exponents. Arithmetic composes dimensions and
raises :class:`DimensionError` on mismatched addition, non-integer roots, and
similar mistakes, so malformed formulas fail at evaluation time instead of
producing silently wrong numbers.

Inputs arrive in the units people actually use (amu, angstrom) and are
converted on construction; all internal math is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError


# CODATA 2022 values; tests/test_units.py pins them bit for bit against the
# reference table of the test extra, so full-precision output does not drift.
_H = 6.62607015e-34
_HBAR = _H / (2 * math.pi)
_K_B = 1.380649e-23
_E = 1.602176634e-19
_EPSILON_0 = 8.8541878188e-12
_ATOMIC_MASS = 1.66053906892e-27
_C = 299792458.0

_BASE_SYMBOLS = ("kg", "m", "s", "K", "C")

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


@dataclass(frozen=True)
class Dimension:
    """Integer exponents over (mass, length, time, temperature, charge)."""

    exponents: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k: int) -> "Dimension":
        if not isinstance(k, int):
            raise DimensionError(f"dimension exponent must be an integer, got {k!r}")
        return Dimension(tuple(a * k for a in self.exponents))

    def root(self, k: int) -> "Dimension":
        if any(a % k for a in self.exponents):
            raise DimensionError(f"cannot take {k}th root of dimension {self}")
        return Dimension(tuple(a // k for a in self.exponents))

    @property
    def is_dimensionless(self) -> bool:
        return all(a == 0 for a in self.exponents)

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "1"
        parts = []
        for symbol, a in zip(_BASE_SYMBOLS, self.exponents):
            if a == 0:
                continue
            parts.append(symbol if a == 1 else symbol + str(a).translate(_SUPERSCRIPTS))
        return "·".join(parts)


DIMENSIONLESS = Dimension()
MASS = Dimension((1, 0, 0, 0, 0))
LENGTH = Dimension((0, 1, 0, 0, 0))
TIME = Dimension((0, 0, 1, 0, 0))
TEMPERATURE = Dimension((0, 0, 0, 1, 0))
CHARGE = Dimension((0, 0, 0, 0, 1))
SPEED = LENGTH / TIME
AREA = LENGTH ** 2
RATE = DIMENSIONLESS / TIME
ENERGY = MASS * SPEED ** 2
NUMBER_DENSITY = DIMENSIONLESS / LENGTH ** 3
MASS_DENSITY = MASS / LENGTH ** 3


@dataclass(frozen=True)
class Quantity:
    """A finite SI magnitude with dimension exponents.

    Attributes
    ----------
    si : float
        Magnitude in SI base units.
    dim : Dimension
        Dimension exponents.
    """

    si: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        object.__setattr__(self, "si", float(self.si))
        if not math.isfinite(self.si):
            raise ValueError(f"quantity magnitude must be finite, got {self.si!r}")

    # -- arithmetic ---------------------------------------------------------

    def _require_same_dim(self, other: "Quantity", op: str) -> None:
        if self.dim != other.dim:
            raise DimensionError(f"cannot {op} [{self.dim}] and [{other.dim}]")

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "add")
        return Quantity(self.si + other.si, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "subtract")
        return Quantity(self.si - other.si, self.dim)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.si, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.si * other.si, self.dim * other.dim)
        if isinstance(other, (int, float)):
            return Quantity(self.si * other, self.dim)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(_quotient(self.si, other.si), self.dim / other.dim)
        if isinstance(other, (int, float)):
            return Quantity(_quotient(self.si, other), self.dim)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Quantity(_quotient(other, self.si), DIMENSIONLESS / self.dim)
        return NotImplemented

    def __pow__(self, k: int) -> "Quantity":
        try:
            si = self.si ** k
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"quantity magnitude must be finite, got {self.si!r} ** {k!r}") from None
        return Quantity(si, self.dim ** k)

    def sqrt(self) -> "Quantity":
        if self.si < 0:
            raise ValueError(f"cannot take sqrt of negative quantity {self.si!r}")
        return Quantity(math.sqrt(self.si), self.dim.root(2))

    # -- comparisons --------------------------------------------------------

    def __lt__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.si < other.si

    def __le__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.si <= other.si

    def __gt__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.si > other.si

    def __ge__(self, other: "Quantity") -> bool:
        self._require_same_dim(other, "compare")
        return self.si >= other.si

    # -- helpers ------------------------------------------------------------

    def ratio(self, other: "Quantity") -> float:
        """Dimensionless ratio self / other; the dimensions must match."""
        self._require_same_dim(other, "take the ratio of")
        return self.si / other.si

    def require(self, dim: Dimension, what: str = "quantity") -> "Quantity":
        """Return self after checking the dimension, for argument validation."""
        if self.dim != dim:
            raise DimensionError(f"{what} must have dimension [{dim}], got [{self.dim}]")
        return self

    def __str__(self) -> str:
        if self.dim.is_dimensionless:
            return f"{self.si:g}"
        return f"{self.si:g} {self.dim}"


def _quotient(a: float, b: float) -> float:
    """a / b, raising the constructor's ValueError where float division raises."""
    try:
        return a / b
    except ZeroDivisionError:
        raise ValueError(f"quantity magnitude must be finite, got {a!r} / {b!r}") from None


# -- constructors in customary units -----------------------------------------

def mass_amu(value: float) -> Quantity:
    return Quantity(value * _ATOMIC_MASS, MASS)


def length_m(value: float) -> Quantity:
    return Quantity(value, LENGTH)


def length_angstrom(value: float) -> Quantity:
    return Quantity(value * 1e-10, LENGTH)


def time_s(value: float) -> Quantity:
    return Quantity(value, TIME)


def temperature_kelvin(value: float) -> Quantity:
    return Quantity(value, TEMPERATURE)


def number_density_per_m3(value: float) -> Quantity:
    return Quantity(value, NUMBER_DENSITY)


def mass_density_kg_m3(value: float) -> Quantity:
    return Quantity(value, MASS_DENSITY)


def rate_per_s(value: float) -> Quantity:
    return Quantity(value, RATE)


def dimensionless(value: float) -> Quantity:
    return Quantity(value, DIMENSIONLESS)


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants as Quantities; g is the Coulomb constant 1/(4 pi eps0)."""

    hbar: Quantity = Quantity(_HBAR, MASS * LENGTH ** 2 / TIME)
    k_B: Quantity = Quantity(_K_B, ENERGY / TEMPERATURE)
    q_e: Quantity = Quantity(_E, CHARGE)
    coulomb_g: Quantity = Quantity(
        1.0 / (4.0 * math.pi * _EPSILON_0),
        MASS * LENGTH ** 3 / (TIME ** 2 * CHARGE ** 2),
    )
    amu: Quantity = Quantity(_ATOMIC_MASS, MASS)
    c: Quantity = Quantity(_C, SPEED)


CODATA = PhysicalConstants()
