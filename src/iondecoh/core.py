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

Evaluation: each formula below is a ``units._Formula``, which proves its
result's dimension once, at import, by a run over Quantities, and runs in
SI floats on every call; Quantity arithmetic, which checks every operation,
is left to library callers. Where a value leaves the double range, the
formula raises a ValidationError naming it.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .materials import SaltRecord
from .units import (
    AREA,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    NUMBER_DENSITY,
    RATE,
    SPEED,
    TEMPERATURE,
    TIME,
    Quantity,
    _FLOATS,
    _Formula,
    _over_floats,
    _Record,
    temperature_kelvin,
)

DEFAULT_TEMPERATURE = temperature_kelvin(310.0)
DEFAULT_ION_COUNT = 1e23

_SMALLEST_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max


class DecoherenceContext(_Record):
    """Inputs for one evaluation: ion mass, temperature, bath, lattice edge a, ensemble size.

    Every field is checked once, on construction; the formulas below read the
    checked SI floats, m, k_B T, n, a and N, which the context keeps as they
    take them. The ion mass, bath density and lattice edge are built as
    Quantities from those floats when read.
    """

    _fields = ("ion_mass", "temperature", "bath_density", "lattice_edge", "ion_count")
    __slots__ = ("temperature", "_si")  # _si: (m, kT, n, a, N), as the formula bodies take them

    def __init__(self, ion_mass: Quantity, temperature: Quantity, bath_density: Quantity,
                 lattice_edge: Quantity, ion_count: float = DEFAULT_ION_COUNT) -> None:
        ion_mass.require(MASS, "ion_mass")
        temperature.require(TEMPERATURE, "temperature")
        bath_density.require(NUMBER_DENSITY, "bath_density")
        lattice_edge.require(LENGTH, "lattice_edge")
        for label, q in (("ion_mass", ion_mass), ("bath_density", bath_density), ("lattice_edge", lattice_edge)):
            if q.si <= 0:
                raise ValidationError(f"{label} must be positive, got {q.si!r}")
        thermal_energy = _thermal_energy(temperature.si, ion_count)
        self._fill(temperature, (ion_mass.si, thermal_energy, bath_density.si, lattice_edge.si, ion_count))

    ion_mass = property(lambda self: Quantity(self._si[0], MASS))
    ion_count = property(lambda self: self._si[4])
    bath_density = property(lambda self: Quantity(self._si[2], NUMBER_DENSITY))
    lattice_edge = property(lambda self: Quantity(self._si[3], LENGTH))
    thermal_energy = property(lambda self: Quantity(self._si[1], ENERGY), doc="k_B T, derived from the temperature.")


def _thermal_energy(temperature: float, ion_count: float) -> float:
    """k_B T, once the temperature in K and the ion count are checked: every salt's checks of them."""
    if temperature <= 0:
        raise ValidationError(f"temperature must be positive, got {temperature!r}")
    thermal_energy = _FLOATS.k_B * temperature
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
    thermal_energy = _thermal_energy(temperature.si, ion_count)
    return DecoherenceContext._of(temperature, (record._si.cation_kg, thermal_energy, record._si.per_m3,
                                                record._si.edge, ion_count))


# -- formulas -------------------------------------------------------------------
#
# Each body is written once, over a carrier c: the constants, c.sqrt and
# c.cbrt; m, kT, n, a and N are the context's ion mass, thermal energy, bath
# density, lattice edge and ion count, as its _si holds them.

def _wavelength(c, m, kT, n, a, N):
    return 2.0 * math.pi * c.hbar / c.sqrt(3.0 * m * kT)


def _speed(c, m, kT, n, a, N):
    return c.sqrt(kT / m)


def _cross_section(c, m, kT, n, a, N):
    return (c.coulomb_g * c.q_e ** 2 / kT) ** 2


def _rate(c, m, kT, n, a, N):
    return n * _cross_section(c, m, kT, n, a, N) * _speed(c, m, kT, n, a, N)


def _tau1_product(c, m, kT, n, a, N):
    return m * kT ** 3


def _tau1_denominator(c, m, kT, n, a, N):
    return N * n * (c.coulomb_g * c.q_e ** 2) ** 2


def _tau2_product(c, m, kT, n, a, N):
    return m * kT


def _tau2_denominator(c, m, kT, n, a, N):
    # g and q_e^2 multiply in turn; (g q_e^2) as one factor would reassociate
    # the product and change the last bits of tau2
    return N * n * a * c.coulomb_g * c.q_e ** 2


_OPERAND_DIMS = (MASS, ENERGY, NUMBER_DENSITY, LENGTH, DIMENSIONLESS)  # of m, kT, n, a and N
_AT_TEMPERATURE = "{label} leaves the double range at temperature {at!r} K"


class _Time(_Formula):
    """A decoherence time, sqrt(product) / denominator, checked in the order the Quantity arithmetic would fail."""

    __slots__ = ("product", "denominator")

    def __init__(self, label: str, product, denominator) -> None:
        self.product, self.denominator = product, denominator
        super().__init__(label, TIME, _OPERAND_DIMS, lambda c, *x: c.sqrt(product(c, *x)) / denominator(c, *x),
                         _AT_TEMPERATURE)

    def si(self, operands: tuple, temperature: float) -> float:
        product, denominator = _over_floats(self.product, operands), _over_floats(self.denominator, operands)
        if denominator == math.inf and product < math.inf:
            # as a float: an int ion count would print every digit
            raise ValidationError(f"{self.label} leaves the double range at ion_count {float(operands[4])!r}: "
                                  "its denominator overflows")
        if product < _SMALLEST_NORMAL:
            raise ValidationError(f"temperature {temperature!r} K is too low for {self.label}: "
                                  "the product under its square root is below the smallest normal double")
        tau = math.sqrt(product) / denominator if denominator else math.inf
        if not tau <= _LARGEST:  # also rejects NaN, from an overflowing product over an overflowing denominator
            raise ValidationError(self.fault.format(label=self.label, at=temperature, value=tau))
        if tau == 0.0:
            raise ValidationError(f"{self.label} underflows to 0.0 s at temperature {temperature!r} K")
        return tau


# a finite divisor's square root is at most 1.4e154, so a wavelength of 0.0 means it overflowed
_WAVELENGTH = _Formula("de Broglie wavelength", LENGTH, _OPERAND_DIMS, _wavelength, _AT_TEMPERATURE, math.ulp(0.0))
_SPEED = _Formula("thermal speed", SPEED, _OPERAND_DIMS, _speed, _AT_TEMPERATURE)
_CROSS_SECTION = _Formula("cross section", AREA, _OPERAND_DIMS, _cross_section, _AT_TEMPERATURE)
_RATE = _Formula("scattering rate", RATE, _OPERAND_DIMS, _rate, _AT_TEMPERATURE)
_TAU1 = _Time("tau1", _tau1_product, _tau1_denominator)
_TAU2 = _Time("tau2", _tau2_product, _tau2_denominator)


def de_broglie_wavelength(ctx: DecoherenceContext) -> Quantity:
    """Thermal de Broglie wavelength 2 pi hbar / sqrt(3 m k T)."""
    return _WAVELENGTH.quantity(ctx._si, ctx.temperature.si)


def thermal_speed(ctx: DecoherenceContext) -> Quantity:
    """One-dimensional thermal speed sqrt(k T / m)."""
    return _SPEED.quantity(ctx._si, ctx.temperature.si)


def coulomb_cross_section(ctx: DecoherenceContext) -> Quantity:
    """Coulomb cross section at the thermal speed, (g q_e^2 / k T)^2.

    Evaluating sigma(v) = (g q_e^2 / m v^2)^2 at v = sqrt(kT/m) cancels the
    mass, so equal-temperature ions share one cross section.
    """
    return _CROSS_SECTION.quantity(ctx._si, ctx.temperature.si)


def scattering_rate(ctx: DecoherenceContext) -> Quantity:
    """Scattering rate Lambda = n sigma v, with sigma and v at the thermal speed sqrt(kT/m)."""
    return _RATE.quantity(ctx._si, ctx.temperature.si)


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
    return _TAU1.quantity(ctx._si, ctx.temperature.si)


def tau2(ctx: DecoherenceContext) -> Quantity:
    """Lattice-scale decoherence time sqrt(m kT) / (N n a g q_e^2)."""
    return _TAU2.quantity(ctx._si, ctx.temperature.si)

