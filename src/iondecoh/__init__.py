"""Unit-safe decoherence timescales for ions in saturated solution.

Submodules: units (dimension-checked quantities), materials (salt records
and the bundled data table), core (wavelength, cross section, rate,
suppression factor, tau1, tau2), densmat (grid density-matrix evolution),
vacuum (finite-mode Bogoliubov vacuum overlap), regimes (classical / QM /
QFT verdict and the X-ray consistency check), cli (the iondecoh command).
"""

from .core import (
    DEFAULT_ION_COUNT,
    DEFAULT_TEMPERATURE,
    DecoherenceContext,
    context_for_salt,
    coulomb_cross_section,
    de_broglie_wavelength,
    decoherence_factor,
    scattering_rate,
    tau1,
    tau2,
    thermal_speed,
)
from .densmat import (
    ReducedDensityMatrix,
    SuperpositionSpec,
    apply_decoherence,
    coherence_ratio,
    evolve_series,
    prepare_superposition,
)
from .errors import DimensionError, IonDecohError, SaltDataError, ValidationError
from .materials import (
    IonSpecies,
    SaltRecord,
    bundled_salt_database,
    load_salt_database,
    load_salts,
    number_density,
    parse_ion,
    salt_by_name,
)
from .regimes import (
    DEFAULT_THRESHOLD_RATIO,
    RegimeReport,
    Verdict,
    XRayCheck,
    classify,
    xray_consistency,
)
from .units import CODATA, Quantity
from .vacuum import (
    BogoliubovProfile,
    log_vacuum_overlap,
    overlap_decay_rate,
    pairing_family,
    uniform_profile,
    vacuum_overlap,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovProfile",
    "CODATA",
    "DEFAULT_ION_COUNT",
    "DEFAULT_TEMPERATURE",
    "DEFAULT_THRESHOLD_RATIO",
    "DecoherenceContext",
    "DimensionError",
    "IonDecohError",
    "IonSpecies",
    "Quantity",
    "ReducedDensityMatrix",
    "RegimeReport",
    "SaltDataError",
    "SaltRecord",
    "SuperpositionSpec",
    "ValidationError",
    "Verdict",
    "XRayCheck",
    "apply_decoherence",
    "bundled_salt_database",
    "classify",
    "coherence_ratio",
    "context_for_salt",
    "coulomb_cross_section",
    "de_broglie_wavelength",
    "decoherence_factor",
    "evolve_series",
    "load_salt_database",
    "load_salts",
    "log_vacuum_overlap",
    "number_density",
    "overlap_decay_rate",
    "pairing_family",
    "parse_ion",
    "prepare_superposition",
    "salt_by_name",
    "scattering_rate",
    "tau1",
    "tau2",
    "thermal_speed",
    "uniform_profile",
    "vacuum_overlap",
    "xray_consistency",
]
