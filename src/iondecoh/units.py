"""Unit-safe scalar quantities over the SI base (kg, m, s, K, C).

Every physical value in this package is a :class:`Quantity`: an SI magnitude
paired with integer dimension exponents. Arithmetic composes dimensions and
raises :class:`DimensionError` on mismatched addition, non-integer roots, and
similar mistakes, so malformed formulas fail at evaluation time instead of
producing silently wrong numbers. Every ``Quantity`` operation checks its
dimensions, and its constructor coerces to float and rejects non-finite
magnitudes, so a library caller's own arithmetic is checked step by step.

The package's own formulas do not pay that per operation. Each is a
``_Formula``, defined at the end of this module, the one place where a
formula is proved: its body runs once over Quantities when it is built,
which proves its result's dimension, and every call runs the same body over
SI floats and wraps only the result. A :class:`Dimension` is interned, one
instance per exponent tuple, so comparing two dimensions is an identity
test. Both classes, and the package's records, are slotted and frozen:
assigning to a field raises ``dataclasses.FrozenInstanceError``. A record's
slots are written only by ``_Record._fill``, which its constructor ends with,
and ``_Record._of``, which makes a record from values its caller has checked;
``Quantity``, the hot path, writes its own two slots.

Inputs arrive in the units people actually use (amu, angstrom) and are
converted on construction; all internal math is SI.
"""
from __future__ import annotations

import functools
import math
import sys
from operator import add, sub

from .errors import DimensionError, ValidationError


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

_INTERNED: dict[tuple, "Dimension"] = {}
_SMALLEST_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max  # the normal doubles' range, for every module


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Record:
    """Base of the frozen records, whose subclasses name their fields in ``_fields``.

    ``==`` (within one class), ``hash``, ``repr``, pickle and copy go over the fields in
    order, as for a frozen dataclass. A subclass that checks its fields calls this ``__init__`` last.
    ``_fill`` and ``_of`` are the only writers of a record's slots, which they take in slot order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the slots' own setters, which bypass the frozen __setattr__
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        # a missing field makes pop raise KeyError; an unknown or repeated one stays in kwargs
        try:
            if kwargs:
                args += tuple(map(kwargs.pop, self._fields[len(args):]))
            if kwargs or len(args) != len(self._fields):
                raise KeyError
        except KeyError:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}") from None
        self._fill(*args)

    def _fill(self, *values) -> None:
        """Write values to the slots, in slot order."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    @classmethod
    def _of(cls, *values):
        """A record whose slots hold values, in slot order, that the caller has checked; __init__ is not run."""
        self = object.__new__(cls)
        for set_slot, value in zip(cls._setters, values):  # _fill's loop, inline: the loader calls this per row
            set_slot(self, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


class Dimension:
    """Integer exponents over (mass, length, time, temperature, charge).

    Interned: ``Dimension(e) is Dimension(e)``, so ``==`` is identity.
    """

    __slots__ = ("exponents",)

    def __new__(cls, exponents: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)) -> "Dimension":
        exponents = tuple(exponents)
        self = _INTERNED.get(exponents)
        if self is None:
            self = _INTERNED[exponents] = object.__new__(cls)
            object.__setattr__(self, "exponents", exponents)
        return self

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(map(add, self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(map(sub, self.exponents, other.exponents)))

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

    def __repr__(self) -> str:
        return f"Dimension(exponents={self.exponents!r})"

    def __reduce__(self):
        return Dimension, (self.exponents,)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


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


@functools.total_ordering
class Quantity(_Record):
    """A finite SI magnitude with dimension exponents.

    Attributes
    ----------
    si : float
        Magnitude in SI base units.
    dim : Dimension
        Dimension exponents.
    """

    __slots__ = _fields = ("si", "dim")

    def __init__(self, si: float, dim: Dimension = DIMENSIONLESS) -> None:
        si = float(si)
        if not math.isfinite(si):
            raise ValueError(f"quantity magnitude must be finite, got {si!r}")
        _set_si(self, si)
        _set_dim(self, dim)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_dim(self, other: "Quantity", op: str) -> None:
        if self.dim is not other.dim:
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

    # -- helpers ------------------------------------------------------------

    def ratio(self, other: "Quantity") -> float:
        """Dimensionless ratio self / other; the dimensions must match.

        Like ``/``, a zero divisor or a non-finite quotient raises the constructor's ValueError.
        """
        self._require_same_dim(other, "take the ratio of")
        return Quantity(_quotient(self.si, other.si)).si

    def require(self, dim: Dimension, what: str = "quantity") -> "Quantity":
        """Return self after checking the dimension, for argument validation."""
        if self.dim is not dim:
            raise DimensionError(f"{what} must have dimension [{dim}], got [{self.dim}]")
        return self

    def __str__(self) -> str:
        if self.dim.is_dimensionless:
            return f"{self.si:g}"
        return f"{self.si:g} {self.dim}"


_set_si, _set_dim = Quantity._setters


def _quotient(a: float, b: float) -> float:
    """a / b, raising the constructor's ValueError where float division raises."""
    try:
        return a / b
    except (ZeroDivisionError, OverflowError):  # OverflowError: an int operand no double holds
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


class PhysicalConstants(_Record):
    """CODATA constants as Quantities; g is the Coulomb constant 1/(4 pi eps0)."""

    __slots__ = _fields = ("hbar", "k_B", "q_e", "coulomb_g", "amu", "c")


CODATA = PhysicalConstants(
    hbar=Quantity(_HBAR, MASS * LENGTH ** 2 / TIME),
    k_B=Quantity(_K_B, ENERGY / TEMPERATURE),
    q_e=Quantity(_E, CHARGE),
    coulomb_g=Quantity(1.0 / (4.0 * math.pi * _EPSILON_0), MASS * LENGTH ** 3 / (TIME ** 2 * CHARGE ** 2)),
    amu=Quantity(_ATOMIC_MASS, MASS),
    c=Quantity(_C, SPEED),
)


class _Carrier(_Record):
    """What a formula body runs over: the CODATA constants with sqrt and cbrt, all as Quantities or all as SI floats."""

    __slots__ = _fields = (*PhysicalConstants._fields, "sqrt", "cbrt")


_QUANTITIES = _Carrier(*CODATA._values(), Quantity.sqrt, lambda q: Quantity(q.si ** (1.0 / 3.0), q.dim.root(3)))
_FLOATS = _Carrier(*(q.si for q in CODATA._values()), math.sqrt, lambda x: x ** (1.0 / 3.0))


def _over_floats(body, operands: tuple) -> float:
    """body's SI value at the SI operands, run over floats; inf where an operation overflows or divides by zero."""
    try:
        return body(_FLOATS, *operands)
    except ArithmeticError:
        return math.inf


class _Formula:
    """A formula body over a carrier, its operands' dimensions and its result's label, dimension and range.

    Building one proves the result's dimension: the body runs once over
    Quantities, whose every operation checks its dimensions. Each call runs
    the same body over SI floats, the same float operations in the same
    order, so the bits agree. ``si`` keeps a value from ``smallest`` to the
    largest double and raises ``fault`` for any other, formatted with the
    label, the operand the caller names (``at``) and the value.
    """

    __slots__ = ("label", "dim", "operand_dims", "body", "fault", "smallest")

    def __init__(self, label: str, dim: Dimension, operand_dims: tuple, body, fault: str, smallest: float = 0.0):
        self.label, self.dim, self.operand_dims, self.body, self.fault = label, dim, operand_dims, body, fault
        self.smallest = smallest
        self.over_quantities((1.0,) * len(operand_dims)).require(dim, label)

    def over_quantities(self, operands: tuple) -> Quantity:
        """The body over Quantities at the SI operands: it raises where an operation leaves the double range."""
        return self.body(_QUANTITIES, *map(Quantity, operands, self.operand_dims))

    def si(self, operands: tuple, at) -> float:
        """The body over SI floats at the operands, or a ValidationError where it leaves [smallest, largest double]."""
        value = _over_floats(self.body, operands)
        if not self.smallest <= value <= _LARGEST:  # also rejects NaN
            raise ValidationError(self.fault.format(label=self.label, at=at, value=value))
        return value

    def quantity(self, operands: tuple, at) -> Quantity:
        return Quantity(self.si(operands, at), self.dim)
