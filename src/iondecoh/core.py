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
The bath number density n counts formula units, density / (m_cation + m_anion).

Charge convention: all ions scatter with unit charge q_e; the charge
numbers carried by the species records are metadata only.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .materials import SaltRecord, number_density
from .units import (
    AREA,
    CODATA,
    LENGTH,
    MASS,
    NUMBER_DENSITY,
    RATE,
    SPEED,
    TEMPERATURE,
    TIME,
    Quantity,
    _Record,
    temperature_kelvin,
)

DEFAULT_TEMPERATURE = temperature_kelvin(310.0)
DEFAULT_ION_COUNT = 1e23

# Constant factors of the formulas below, each computed once by the
# operations the formulas would otherwise repeat per call.
_Q_E_SQUARED = CODATA.q_e ** 2
_COUPLING = CODATA.coulomb_g * _Q_E_SQUARED  # g q_e^2
_COUPLING_SQUARED = _COUPLING ** 2  # (g q_e^2)^2


class DecoherenceContext(_Record):
    """Inputs for one evaluation: ion mass, temperature, bath, lattice edge a, ensemble size.

    Every field is checked once, here; the formulas below read them as they are.
    ``thermal_energy``, k_B T, is derived here too, but is not a field.
    """

    _fields = ("ion_mass", "temperature", "bath_density", "lattice_edge", "ion_count")
    __slots__ = (*_fields, "thermal_energy")

    def __init__(self, ion_mass: Quantity, temperature: Quantity, bath_density: Quantity,
                 lattice_edge: Quantity, ion_count: float = DEFAULT_ION_COUNT) -> None:
        ion_mass.require(MASS, "ion_mass")
        temperature.require(TEMPERATURE, "temperature")
        bath_density.require(NUMBER_DENSITY, "bath_density")
        lattice_edge.require(LENGTH, "lattice_edge")
        for label, q in (("ion_mass", ion_mass), ("temperature", temperature),
                         ("bath_density", bath_density), ("lattice_edge", lattice_edge)):
            if q.si <= 0:
                raise ValidationError(f"{label} must be positive, got {q.si!r}")
        thermal_energy = CODATA.k_B * temperature
        if thermal_energy.si == 0.0:
            raise ValidationError(
                f"temperature {temperature.si!r} K is too low: k_B T underflows to 0.0 J"
            )
        if not 1 <= ion_count < math.inf:  # also rejects NaN
            raise ValidationError(f"ion_count must be finite and at least 1, got {ion_count!r}")
        _Record.__init__(self, ion_mass, temperature, bath_density, lattice_edge, ion_count)
        object.__setattr__(self, "thermal_energy", thermal_energy)


def context_for_salt(
    record: SaltRecord,
    temperature: Quantity = DEFAULT_TEMPERATURE,
    ion_count: float = DEFAULT_ION_COUNT,
) -> DecoherenceContext:
    """Build the evaluation context for a salt record (cation mass convention)."""
    return DecoherenceContext(
        ion_mass=record.cation.mass,
        temperature=temperature,
        bath_density=number_density(record),
        lattice_edge=record.lattice_edge,
        ion_count=ion_count,
    )


def de_broglie_wavelength(ctx: DecoherenceContext) -> Quantity:
    """Thermal de Broglie wavelength 2 pi hbar / sqrt(3 m k T)."""
    return (2.0 * math.pi * CODATA.hbar / (3.0 * ctx.ion_mass * ctx.thermal_energy).sqrt()).require(
        LENGTH, "de Broglie wavelength"
    )


def thermal_speed(ctx: DecoherenceContext) -> Quantity:
    """One-dimensional thermal speed sqrt(k T / m)."""
    return (ctx.thermal_energy / ctx.ion_mass).sqrt().require(SPEED, "thermal speed")


def coulomb_cross_section(ctx: DecoherenceContext) -> Quantity:
    """Coulomb cross section at the thermal speed, (g q_e^2 / k T)^2.

    Evaluating sigma(v) = (g q_e^2 / m v^2)^2 at v = sqrt(kT/m) cancels the
    mass, so equal-temperature ions share one cross section.
    """
    return ((_COUPLING / ctx.thermal_energy) ** 2).require(
        AREA, "cross section"
    )


def scattering_rate(ctx: DecoherenceContext) -> Quantity:
    """Scattering rate Lambda = n sigma v, with sigma and v at the thermal speed sqrt(kT/m)."""
    return (ctx.bath_density * coulomb_cross_section(ctx) * thermal_speed(ctx)).require(
        RATE, "scattering rate"
    )


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
    try:
        product = ctx.ion_mass * ctx.thermal_energy ** 3
        denominator = Quantity(ctx.ion_count) * ctx.bath_density * _COUPLING_SQUARED
        return _decoherence_time(product, denominator, "tau1", ctx)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(f"tau1 leaves the double range at temperature {ctx.temperature.si!r} K") from None


def tau2(ctx: DecoherenceContext) -> Quantity:
    """Lattice-scale decoherence time sqrt(m kT) / (N n a g q_e^2)."""
    try:
        product = ctx.ion_mass * ctx.thermal_energy
        denominator = (
            Quantity(ctx.ion_count)
            * ctx.bath_density
            * ctx.lattice_edge
            # g and q_e^2 multiply in turn; _COUPLING here would reassociate the
            # product and change the last bits of tau2
            * CODATA.coulomb_g
            * _Q_E_SQUARED
        )
        return _decoherence_time(product, denominator, "tau2", ctx)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(f"tau2 leaves the double range at temperature {ctx.temperature.si!r} K") from None


def _decoherence_time(product: Quantity, denominator: Quantity, label: str, ctx: DecoherenceContext) -> Quantity:
    """sqrt(product) / denominator, rejected if the product has lost bits or the result is 0.0.

    tau1 and tau2 turn an operand or quotient that is not a finite double into
    a ValidationError that names the time.
    """
    temperature = ctx.temperature.si
    if product.si < sys.float_info.min:
        raise ValidationError(
            f"temperature {temperature!r} K is too low for {label}: "
            "the product under its square root is below the smallest normal double"
        )
    tau = (product.sqrt() / denominator).require(TIME, label)
    if tau.si == 0.0:
        raise ValidationError(f"{label} underflows to 0.0 s at temperature {temperature!r} K")
    return tau
