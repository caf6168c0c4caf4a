"""Collisional decoherence of a dissolved ion scattering off its neighbours.

Model summary, for an ion of mass m at temperature T in a bath of number
density n (formula units per volume):

* thermal de Broglie wavelength   lambda = 2 pi hbar / sqrt(3 m k T)
* thermal speed                   v = sqrt(k T / m)
* Coulomb scattering cross section, evaluated at the thermal speed, which
  cancels the mass:               sigma = (g q_e^2 / (m v^2))^2 = (g q_e^2 / k T)^2
* scattering rate                 Lambda = n sigma v
* superposition suppression       f(dx, t) = exp(-Lambda t (1 - exp(-dx^2 / 2 lambda^2)))

For N identical ions decohering together the two timescales are

* tau1 = sqrt(m (k T)^3) / (N n g^2 q_e^4) = 1 / (N Lambda)
* tau2 = sqrt(m k T) / (N n a g q_e^2)

with a the lattice edge of the forming crystal. Their ratio tau2/tau1 =
g q_e^2 / (k T a) is independent of both mass and density.

Mass convention: m is the cation mass. This is the only convention that
reproduces the bundled reference times (NaCl: 4.6e-40 s and 4.4e-38 s);
the anion, mean, reduced, and summed masses all miss by 10 to 60 percent.
The bath number density n counts formula units, density / (m_cation + m_anion),
derived and range-checked once, in materials; context_for_salt only reads it.

Charge convention: all ions scatter with unit charge q_e; the charge
numbers carried by the species records are metadata only.

Evaluation: each formula body below is written once, over a carrier, and
its result's dimension is proved once, at import, by a run over Quantities.
Every call runs the same body over SI floats, the same float operations in
the same order, and wraps only its result in a Quantity; Quantity
arithmetic, which checks every operation, is left to library callers.
Where a value leaves the double range, the formula raises a
ValidationError naming it.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .materials import SaltRecord
from .units import (
    AREA,
    CODATA,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    NUMBER_DENSITY,
    RATE,
    SPEED,
    TEMPERATURE,
    TIME,
    Dimension,
    PhysicalConstants,
    Quantity,
    _Record,
    temperature_kelvin,
)

DEFAULT_TEMPERATURE = temperature_kelvin(310.0)
DEFAULT_ION_COUNT = 1e23

_SI = PhysicalConstants(*(q.si for q in CODATA._values()))  # the constants as SI floats
_LARGEST = sys.float_info.max


class DecoherenceContext(_Record):
    """Inputs for one evaluation: ion mass, temperature, bath, lattice edge a, ensemble size.

    Every field is checked once, on construction; the formulas below read the
    checked SI floats, m, k_B T, n, a and N, which the context keeps as they
    take them. The ion mass, bath density and lattice edge are built as
    Quantities from those floats when read.
    """

    _fields = ("ion_mass", "temperature", "bath_density", "lattice_edge", "ion_count")
    __slots__ = ("temperature", "ion_count", "_si")  # _si: (m, kT, n, a, N), as the formula bodies take them

    def __init__(self, ion_mass: Quantity, temperature: Quantity, bath_density: Quantity,
                 lattice_edge: Quantity, ion_count: float = DEFAULT_ION_COUNT) -> None:
        ion_mass.require(MASS, "ion_mass")
        temperature.require(TEMPERATURE, "temperature")
        bath_density.require(NUMBER_DENSITY, "bath_density")
        lattice_edge.require(LENGTH, "lattice_edge")
        for label, q in (("ion_mass", ion_mass), ("bath_density", bath_density), ("lattice_edge", lattice_edge)):
            if q.si <= 0:
                raise ValidationError(f"{label} must be positive, got {q.si!r}")
        self._set_si(ion_mass.si, temperature, bath_density.si, lattice_edge.si, ion_count)

    def _set_si(self, m: float, temperature: Quantity, n: float, a: float, ion_count: float) -> None:
        """Check T and N and keep the SI floats: the one initialiser, of the constructor and context_for_salt."""
        thermal_energy = _thermal_energy(temperature.si, ion_count)
        set_temperature, set_ion_count, set_si = self._setters
        set_temperature(self, temperature)
        set_ion_count(self, ion_count)
        set_si(self, (m, thermal_energy, n, a, ion_count))

    ion_mass = property(lambda self: Quantity(self._si[0], MASS))
    bath_density = property(lambda self: Quantity(self._si[2], NUMBER_DENSITY))
    lattice_edge = property(lambda self: Quantity(self._si[3], LENGTH))
    thermal_energy = property(lambda self: Quantity(self._si[1], ENERGY), doc="k_B T, derived from the temperature.")


def _thermal_energy(temperature: float, ion_count: float) -> float:
    """k_B T, once the temperature in K and the ion count are checked: every salt's checks of them."""
    if temperature <= 0:
        raise ValidationError(f"temperature must be positive, got {temperature!r}")
    thermal_energy = _SI.k_B * temperature
    if thermal_energy == 0.0:
        raise ValidationError(f"temperature {temperature!r} K is too low: k_B T underflows to 0.0 J")
    if not 1 <= ion_count < math.inf:  # also rejects NaN
        raise ValidationError(f"ion_count must be finite and at least 1, got {ion_count!r}")
    if ion_count > _LARGEST:  # an int no double holds; its digits could run to any length
        raise ValidationError("ion_count must be at most the largest double, got a larger integer")
    return thermal_energy


def context_for_salt(
    record: SaltRecord,
    temperature: Quantity = DEFAULT_TEMPERATURE,
    ion_count: float = DEFAULT_ION_COUNT,
) -> DecoherenceContext:
    """Build the evaluation context for a salt record (cation mass convention).

    The record checked its own floats, so only the temperature and the ion
    count are checked here, and no Quantity is built.
    """
    temperature.require(TEMPERATURE, "temperature")
    ctx = DecoherenceContext.__new__(DecoherenceContext)
    ctx._set_si(record._si.cation_kg, temperature, record._si.per_m3, record._si.edge, ion_count)
    return ctx


# -- formulas -------------------------------------------------------------------
#
# Each body is written once, over a carrier: c holds the constants and sqrt is
# the carrier's square root; m, kT, n, a and N are the context's ion mass,
# thermal energy, bath density, lattice edge and ion count. Over Quantities
# (CODATA, Quantity.sqrt) every operation checks its dimensions; over SI
# floats (_SI, math.sqrt) the same operations run in the same order, so the
# bits agree.

def _wavelength(c, sqrt, m, kT, n, a, N):
    return 2.0 * math.pi * c.hbar / sqrt(3.0 * m * kT)


def _speed(c, sqrt, m, kT, n, a, N):
    return sqrt(kT / m)


def _cross_section(c, sqrt, m, kT, n, a, N):
    return (c.coulomb_g * c.q_e ** 2 / kT) ** 2


def _rate(c, sqrt, m, kT, n, a, N):
    return n * _cross_section(c, sqrt, m, kT, n, a, N) * _speed(c, sqrt, m, kT, n, a, N)


def _tau1_product(c, sqrt, m, kT, n, a, N):
    return m * kT ** 3


def _tau1_denominator(c, sqrt, m, kT, n, a, N):
    return N * n * (c.coulomb_g * c.q_e ** 2) ** 2


def _tau2_product(c, sqrt, m, kT, n, a, N):
    return m * kT


def _tau2_denominator(c, sqrt, m, kT, n, a, N):
    # g and q_e^2 multiply in turn; (g q_e^2) as one factor would reassociate
    # the product and change the last bits of tau2
    return N * n * a * c.coulomb_g * c.q_e ** 2


_OPERAND_DIMS = (MASS, ENERGY, NUMBER_DENSITY, LENGTH, DIMENSIONLESS)  # of m, kT, n, a and N
# a carrier of Quantities, with one of each operand's dimension: a body's run over it is its proof
_PROOF_ARGS = (CODATA, Quantity.sqrt, *(Quantity(1.0, d) for d in _OPERAND_DIMS))


def _value(body, operands: tuple, quantities: bool = False) -> float:
    """body's SI value at the SI operands, over floats or, to check them, over Quantities; inf where it overflows."""
    try:
        if quantities:
            return body(CODATA, Quantity.sqrt, *map(Quantity, operands, _OPERAND_DIMS)).si
        return body(_SI, math.sqrt, *operands)
    except (ArithmeticError, ValueError):  # a float overflow or zero divisor; a non-finite Quantity
        return math.inf


class _Formula:
    """A formula body, its label and its result's dimension; building one proves that dimension.

    With a denominator body it is a decoherence time, sqrt(body) / denominator.
    Otherwise ``si`` rejects a value that is not finite or is below
    ``smallest``, the least value the body gives when no operation overflows.
    """

    __slots__ = ("label", "dim", "body", "denominator", "smallest")

    def __init__(self, label: str, dim: Dimension, body, denominator=None, smallest: float = 0.0) -> None:
        self.label, self.dim, self.body, self.denominator, self.smallest = label, dim, body, denominator, smallest
        proof = body(*_PROOF_ARGS)
        if denominator is not None:
            proof = proof.sqrt() / denominator(*_PROOF_ARGS)
        proof.require(dim, label)

    def si(self, operands: tuple, temperature: float, quantities: bool = False) -> float:
        """The SI value at (m, kT, n, a, N), or a ValidationError naming the formula, and T in K, out of range."""
        value = _value(self.body, operands, quantities)
        if self.denominator is not None:
            return self._time(value, _value(self.denominator, operands, quantities), temperature, operands[4])
        if not self.smallest <= value <= _LARGEST:  # also rejects NaN
            raise self._out_of_range(temperature)
        return value

    def _time(self, product: float, denominator: float, temperature: float, ion_count: float) -> float:
        """sqrt(product) / denominator, checked in the order the Quantity arithmetic would fail."""
        label = self.label
        if denominator == math.inf and product < math.inf:
            # as a float: an int ion count would print every digit
            raise ValidationError(f"{label} leaves the double range at ion_count {float(ion_count)!r}: "
                                  "its denominator overflows")
        if product < sys.float_info.min:
            raise ValidationError(f"temperature {temperature!r} K is too low for {label}: "
                                  "the product under its square root is below the smallest normal double")
        tau = math.sqrt(product) / denominator if denominator else math.inf
        if not tau <= _LARGEST:  # also rejects NaN, from an overflowing product over an overflowing denominator
            raise self._out_of_range(temperature)
        if tau == 0.0:
            raise ValidationError(f"{label} underflows to 0.0 s at temperature {temperature!r} K")
        return tau

    def _out_of_range(self, temperature: float) -> ValidationError:
        return ValidationError(f"{self.label} leaves the double range at temperature {temperature!r} K")

    def quantity(self, ctx: DecoherenceContext) -> Quantity:
        return Quantity(self.si(ctx._si, ctx.temperature.si), self.dim)


# a finite divisor's square root is at most 1.4e154, so a wavelength of 0.0 means it overflowed
_WAVELENGTH = _Formula("de Broglie wavelength", LENGTH, _wavelength, smallest=math.ulp(0.0))
_SPEED = _Formula("thermal speed", SPEED, _speed)
_CROSS_SECTION = _Formula("cross section", AREA, _cross_section)
_RATE = _Formula("scattering rate", RATE, _rate)
_TAU1 = _Formula("tau1", TIME, _tau1_product, _tau1_denominator)
_TAU2 = _Formula("tau2", TIME, _tau2_product, _tau2_denominator)


def de_broglie_wavelength(ctx: DecoherenceContext) -> Quantity:
    """Thermal de Broglie wavelength 2 pi hbar / sqrt(3 m k T)."""
    return _WAVELENGTH.quantity(ctx)


def thermal_speed(ctx: DecoherenceContext) -> Quantity:
    """One-dimensional thermal speed sqrt(k T / m)."""
    return _SPEED.quantity(ctx)


def coulomb_cross_section(ctx: DecoherenceContext) -> Quantity:
    """Coulomb cross section at the thermal speed, (g q_e^2 / k T)^2.

    Evaluating sigma(v) = (g q_e^2 / m v^2)^2 at v = sqrt(kT/m) cancels the
    mass, so equal-temperature ions share one cross section.
    """
    return _CROSS_SECTION.quantity(ctx)


def scattering_rate(ctx: DecoherenceContext) -> Quantity:
    """Scattering rate Lambda = n sigma v, with sigma and v at the thermal speed sqrt(kT/m)."""
    return _RATE.quantity(ctx)


def suppression_rate_time(rate: Quantity, time: Quantity, wavelength: Quantity, time_label: str = "time") -> float:
    """Check the suppression law's inputs, for the scalar and the grid form, and return Lambda t.

    An overflowing Lambda t is rejected: at dx = 0 it would give inf * 0 = nan.
    """
    time.require(TIME, time_label)
    wavelength.require(LENGTH, "wavelength")
    rate.require(RATE, "rate")
    if time.si < 0:
        raise ValidationError(f"{time_label} must be nonnegative, got {time.si!r}")
    if wavelength.si <= 0:
        raise ValidationError("wavelength must be positive")
    if rate.si < 0:
        raise ValidationError("rate must be nonnegative")
    rate_time = rate.si * time.si
    if not math.isfinite(rate_time):
        raise ValidationError(f"rate * {time_label} must be finite, got {rate.si!r} * {time.si!r}")
    return rate_time


def decoherence_factor(
    separation: Quantity,
    time: Quantity,
    wavelength: Quantity,
    rate: Quantity,
) -> float:
    """Off-diagonal suppression exp(-Lambda t (1 - exp(-dx^2 / 2 lambda^2))).

    Positions separated by dx lose phase coherence at rate Lambda scaled by
    how distinguishable the scattering environment finds them. For
    dx << lambda the exponent reduces to -Lambda t dx^2 / 2 lambda^2; for
    dx >> lambda it saturates at -Lambda t, which is also the value when
    (dx / lambda)^2 overflows. Returns a float in [0, 1]: a large finite
    Lambda t underflows to 0.0, the correctly rounded value.
    """
    separation.require(LENGTH, "separation")
    rate_time = suppression_rate_time(rate, time, wavelength)
    try:
        u = 0.5 * (separation.si / wavelength.si) ** 2
    except OverflowError:
        u = math.inf
    # expm1 keeps the small-separation branch accurate: exponent is
    # Lambda t (exp(-u) - 1).
    return math.exp(rate_time * math.expm1(-u))


def tau1(ctx: DecoherenceContext) -> Quantity:
    """Ensemble decoherence time sqrt(m (kT)^3) / (N n g^2 q_e^4) = 1/(N Lambda)."""
    return _TAU1.quantity(ctx)


def tau2(ctx: DecoherenceContext) -> Quantity:
    """Lattice-scale decoherence time sqrt(m kT) / (N n a g q_e^2)."""
    return _TAU2.quantity(ctx)


def _salt_times(record: SaltRecord, thermal_energy: float, temperature: float, ion_count: float) -> tuple:
    """tau1 and tau2 in s from a record's SI floats, m its cation's mass: as tau1(context_for_salt(...)) runs."""
    operands = (record._si.cation_kg, thermal_energy, record._si.per_m3, record._si.edge, ion_count)
    return _TAU1.si(operands, temperature), _TAU2.si(operands, temperature)
