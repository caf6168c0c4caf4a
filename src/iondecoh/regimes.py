"""Which description a crystallisation event needs: classical, QM, or QFT.

The decision compares the decoherence timescale tau_dec = min(tau1, tau2)
with the dynamical timescale of the process, tau_dyn:

* tau_dyn / tau_dec <= threshold: coherence survives long enough that
  ordinary quantum mechanics is adequate (QuantumMechanicsAdequate).
* tau_dyn / tau_dec > threshold and no macroscopically coherent phase is
  observed: the superposition is destroyed long before the dynamics
  completes, classical dynamics suffices (ClassicalLimit).
* tau_dyn / tau_dec > threshold and a coherent phase is observed anyway:
  decoherence forbids a quantum-mechanical account of the observed order,
  pointing at field-theoretic mechanisms (QftRegimeIndicated).

The module also hosts a consistency check that runs the timescale formulas
backwards from an X-ray scattering time to an implied bulk density and
lattice spacing. Its three results, and the ratio tau_dyn / tau_dec, are
``units._Formula`` objects, proved at import and run in SI floats, as core's
formulas are; a ratio out of the double range names itself and both times.
"""

from __future__ import annotations

import enum
import math

from .core import DecoherenceContext, tau1 as _tau1
from .errors import ValidationError
from .materials import SaltRecord
from .units import DIMENSIONLESS, LENGTH, MASS, MASS_DENSITY, TIME, Quantity, _Formula, _Record

DEFAULT_THRESHOLD_RATIO = 1e3

THRESHOLD_NOTE = (
    "threshold_ratio is an operational choice of this library "
    "(default 1e3), not a published constant"
)


class Verdict(enum.Enum):
    CLASSICAL_LIMIT = "ClassicalLimit"
    QUANTUM_MECHANICS_ADEQUATE = "QuantumMechanicsAdequate"
    QFT_REGIME_INDICATED = "QftRegimeIndicated"


# tau_dyn / tau_dec, of two positive times; a ratio that underflows to 0.0 is kept
_TIMESCALE_RATIO = _Formula("timescale ratio", DIMENSIONLESS, (TIME, TIME), lambda c, dyn, dec: dyn / dec,
                            "{label} leaves the double range at tau_dyn {at[0]!r} s, tau_dec {at[1]!r} s")


class RegimeReport(_Record):
    """Classification result with every input echoed for auditability; timescale_ratio is kept, not a field."""

    _fields = ("tau1", "tau2", "tau_dyn", "coherent_phase_observed", "threshold_ratio", "verdict")
    __slots__ = (*_fields, "timescale_ratio")  # tau_dyn / tau_dec

    def __init__(self, *fields, **by_name) -> None:
        _Record.__init__(self, *fields, **by_name)
        at = (self.tau_dyn.require(TIME, "tau_dyn").si, self.tau_dec.require(TIME, "tau_dec").si)
        self._fill(*self._values(), _TIMESCALE_RATIO.si(at, at))

    @property
    def tau_dec(self) -> Quantity:
        return min(self.tau1, self.tau2)

    def to_dict(self) -> dict:
        return {
            "inputs": {
                "tau1_s": self.tau1.si,
                "tau2_s": self.tau2.si,
                "tau_dyn_s": self.tau_dyn.si,
                "coherent_phase_observed": self.coherent_phase_observed,
                "threshold_ratio": self.threshold_ratio,
            },
            "tau_dec_s": self.tau_dec.si,
            "timescale_ratio": self.timescale_ratio,
            "verdict": self.verdict.value,
            "note": THRESHOLD_NOTE,
        }


def classify(
    tau1: Quantity,
    tau2: Quantity,
    tau_dyn: Quantity,
    coherent_phase_observed: bool,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
) -> RegimeReport:
    """Apply the regime rule; see the module docstring for the three cases.

    The rule only sees the ratio tau_dyn / min(tau1, tau2), so rescaling
    every timescale by one factor never changes the verdict.
    """
    for label, q in (("tau1", tau1), ("tau2", tau2), ("tau_dyn", tau_dyn)):
        q.require(TIME, label)
        if q.si <= 0:
            raise ValidationError(f"{label} must be positive, got {q.si!r}")
    if not threshold_ratio > 1.0:  # also rejects NaN
        raise ValidationError(
            f"threshold_ratio must exceed 1, got {threshold_ratio!r}"
        )
    if threshold_ratio == math.inf:
        raise ValidationError("threshold_ratio must be finite, got inf")
    at = (tau_dyn.si, min(tau1.si, tau2.si))
    ratio = _TIMESCALE_RATIO.si(at, at)
    if ratio <= threshold_ratio:
        verdict = Verdict.QUANTUM_MECHANICS_ADEQUATE
    elif coherent_phase_observed:
        verdict = Verdict.QFT_REGIME_INDICATED
    else:
        verdict = Verdict.CLASSICAL_LIMIT
    # not the constructor, which would compute the ratio again: a perfbench libloop case would take 11.4 us,
    # not 10.2 us
    return RegimeReport._of(tau1, tau2, tau_dyn, coherent_phase_observed, threshold_ratio, verdict, ratio)


class XRayCheck(_Record):
    """Implied bulk properties if tau1 is rescaled to an X-ray interaction time.

    Scattering favours the X-ray probe by tau1 / tau_x, so a medium that
    decohered no faster than the probe interacts would need density
    implied_density = rho * tau1 / tau_x and formula-unit spacing
    (formula_mass / implied_density)^(1/3). wavelength_x = c * tau_x is the
    free-space length scale of the probe.
    """

    __slots__ = _fields = ("tau1", "tau_x", "wavelength_x", "implied_density", "implied_spacing")

    def to_dict(self) -> dict:
        return {
            "tau1_s": self.tau1.si,
            "tau_x_s": self.tau_x.si,
            "wavelength_x_m": self.wavelength_x.si,
            "implied_density_kg_m3": self.implied_density.si,
            "implied_spacing_m": self.implied_spacing.si,
        }


_XRAY_OPERANDS = (MASS_DENSITY, MASS, TIME, TIME)  # of rho and m, the salt's density and formula mass, and tau1, tau_x
_AT_TAU_X = "{label} leaves the double range at tau_x {at!r} s"
# in evaluation order; c.c is the speed of light. The spacing divides by the density, so a density
# of 0.0 is rejected; a spacing of 0.0, from a volume that underflows, is kept.
_DENSITY = _Formula("implied density", MASS_DENSITY, _XRAY_OPERANDS, lambda c, rho, m, t1, tx: rho * t1 / tx,
                    _AT_TAU_X, math.ulp(0.0))
_SPACING = _Formula("implied spacing", LENGTH, _XRAY_OPERANDS,
                    lambda c, rho, m, t1, tx: c.cbrt(m / (rho * t1 / tx)), _AT_TAU_X)
_WAVELENGTH_X = _Formula("wavelength_x", LENGTH, _XRAY_OPERANDS, lambda c, rho, m, t1, tx: c.c * tx, _AT_TAU_X)


def xray_consistency(ctx: DecoherenceContext, record: SaltRecord, tau_x: Quantity) -> XRayCheck:
    """Run the tau1 formula backwards against an X-ray interaction time; a result out of range is named."""
    tau_x.require(TIME, "tau_x")
    if tau_x.si <= 0:
        raise ValidationError(f"tau_x must be positive, got {tau_x.si!r}")
    tau1 = _tau1(ctx)
    operands = (record._si.density, record._si.cation_kg + record._si.anion_kg, tau1.si, tau_x.si)
    density, spacing, wavelength = (f.quantity(operands, tau_x.si) for f in (_DENSITY, _SPACING, _WAVELENGTH_X))
    return XRayCheck(tau1, tau_x, wavelength, density, spacing)
