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
from dataclasses import dataclass

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
    dimensionless,
    temperature_kelvin,
)

DEFAULT_TEMPERATURE = temperature_kelvin(310.0)
DEFAULT_ION_COUNT = 1e23


@dataclass(frozen=True)
class DecoherenceContext:
    """Inputs for one evaluation: ion mass, bath, temperature, ensemble size.

    ``lattice_edge`` is only needed for tau2 and may be omitted otherwise.
    """

    ion_mass: Quantity
    temperature: Quantity
    bath_density: Quantity
    ion_count: float = DEFAULT_ION_COUNT
    lattice_edge: Quantity | None = None

    def __post_init__(self) -> None:
        self.ion_mass.require(MASS, "ion_mass")
        self.temperature.require(TEMPERATURE, "temperature")
        self.bath_density.require(NUMBER_DENSITY, "bath_density")
        for label, q in (("ion_mass", self.ion_mass), ("temperature", self.temperature), ("bath_density", self.bath_density)):
            if q.si <= 0:
                raise ValidationError(f"{label} must be positive, got {q.si!r}")
        if self.ion_count < 1:
            raise ValidationError(f"ion_count must be at least 1, got {self.ion_count!r}")
        if self.lattice_edge is not None:
            self.lattice_edge.require(LENGTH, "lattice_edge")
            if self.lattice_edge.si <= 0:
                raise ValidationError("lattice_edge must be positive")

    @property
    def thermal_energy(self) -> Quantity:
        return CODATA.k_B * self.temperature

    def require_lattice_edge(self) -> Quantity:
        if self.lattice_edge is None:
            raise ValidationError("this calculation needs a lattice_edge")
        return self.lattice_edge


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
        ion_count=ion_count,
        lattice_edge=record.lattice_edge,
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
    return ((CODATA.coulomb_g * CODATA.q_e ** 2 / ctx.thermal_energy) ** 2).require(
        AREA, "cross section"
    )


def scattering_rate(
    ctx: DecoherenceContext,
    averaging: str = "thermal_point",
    cutoff_fraction: float = 0.1,
) -> Quantity:
    """Scattering rate Lambda = n <sigma v>.

    averaging="thermal_point" (the default used everywhere) evaluates
    sigma and v at the single thermal speed sqrt(kT/m). The alternative
    "maxwell_boltzmann" averages sigma(v) v over a Maxwell-Boltzmann
    speed distribution; because sigma ~ v^-4 that average diverges at
    v -> 0, so it starts at cutoff_fraction * sqrt(kT/m). In reduced
    speed x = v / sqrt(kT/m) the average has the closed form

        <sigma v> = sigma(v_th) v_th sqrt(2/pi) integral_c^inf x^-1 exp(-x^2/2) dx
                  = sigma(v_th) v_th sqrt(2/pi) E1(c^2 / 2) / 2.

    The comparison mode exists to probe sensitivity to the averaging
    choice and is not used in the reference tables.
    """
    point = (ctx.bath_density * coulomb_cross_section(ctx) * thermal_speed(ctx)).require(
        RATE, "scattering rate"
    )
    if averaging == "thermal_point":
        return point
    if averaging == "maxwell_boltzmann":
        if not 0.0 < cutoff_fraction < 10.0:
            raise ValidationError(f"cutoff_fraction must be in (0, 10), got {cutoff_fraction!r}")
        # Imported here so that scipy loads only for this comparison mode.
        from scipy.special import exp1

        boost = math.sqrt(2.0 / math.pi) * 0.5 * float(exp1(0.5 * cutoff_fraction ** 2))
        return point * boost
    raise ValidationError(f"unknown averaging mode {averaging!r}")


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
    dx >> lambda it saturates at -Lambda t. Returns a float in [0, 1]: a
    large finite Lambda t underflows to 0.0, the correctly rounded value.
    """
    separation.require(LENGTH, "separation")
    time.require(TIME, "time")
    wavelength.require(LENGTH, "wavelength")
    rate.require(RATE, "rate")
    if time.si < 0:
        raise ValidationError(f"time must be nonnegative, got {time.si!r}")
    if wavelength.si <= 0:
        raise ValidationError("wavelength must be positive")
    if rate.si < 0:
        raise ValidationError("rate must be nonnegative")
    rate_time = rate.si * time.si
    if not math.isfinite(rate_time):
        raise ValidationError(f"rate * time must be finite, got {rate.si!r} * {time.si!r}")
    u = 0.5 * (separation.si / wavelength.si) ** 2
    # expm1 keeps the small-separation branch accurate: exponent is
    # Lambda t (exp(-u) - 1).
    return math.exp(rate_time * math.expm1(-u))


def tau1(ctx: DecoherenceContext) -> Quantity:
    """Ensemble decoherence time sqrt(m (kT)^3) / (N n g^2 q_e^4) = 1/(N Lambda)."""
    kT = ctx.thermal_energy
    numerator = (ctx.ion_mass * kT ** 3).sqrt()
    denominator = (
        dimensionless(ctx.ion_count)
        * ctx.bath_density
        * (CODATA.coulomb_g * CODATA.q_e ** 2) ** 2
    )
    return (numerator / denominator).require(TIME, "tau1")


def tau2(ctx: DecoherenceContext) -> Quantity:
    """Lattice-scale decoherence time sqrt(m kT) / (N n a g q_e^2)."""
    kT = ctx.thermal_energy
    numerator = (ctx.ion_mass * kT).sqrt()
    denominator = (
        dimensionless(ctx.ion_count)
        * ctx.bath_density
        * ctx.require_lattice_edge()
        * CODATA.coulomb_g
        * CODATA.q_e ** 2
    )
    return (numerator / denominator).require(TIME, "tau2")
