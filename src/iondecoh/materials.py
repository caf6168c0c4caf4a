"""Salt database: ion species, per-salt records, and the bundled data table.

The data file is CSV with ``#`` comment lines and ten columns::

    name, cation_symbol, cation_mass_amu, anion_symbol, anion_mass_amu,
    density_kg_m3, lattice_a_angstrom, water_per_ion, ref_tau1_1e-40s, ref_tau2_1e-38s

``water_per_ion`` and the two reference times may be ``-`` (missing).
Every numeric field is a positive quantity whose SI value must be a
normal double.
Records keep file order, which is also the fixed output order everywhere.
Every SaltRecord's number density, density / (m_cation + m_anion), is a positive normal double.
"""

from __future__ import annotations

import math
import os
import re
import sys
from collections.abc import Iterable

from .errors import SaltDataError, ValidationError
from .units import (
    CODATA,
    LENGTH,
    MASS,
    MASS_DENSITY,
    NUMBER_DENSITY,
    Quantity,
    _Record,
    length_angstrom,
    mass_amu,
    time_s,
)

_ION_SYMBOL = re.compile(r"^([A-Z][a-z]?)(\d*)([+-])$")
_AMU = CODATA.amu.si  # kg, the factor mass_amu applies
_SMALLEST_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max

_FIELD_COUNT = 10  # the columns the module docstring lists, which the loader unpacks by name


class IonSpecies(_Record):
    """A single ionic species: element symbol, mass, signed charge number."""

    __slots__ = _fields = ("symbol", "mass", "charge_number")

    def __init__(self, symbol: str, mass: Quantity, charge_number: int) -> None:
        mass.require(MASS, f"{symbol} mass")
        if mass.si <= 0:
            raise ValidationError(f"{symbol}: mass must be positive")
        if charge_number == 0:
            raise ValidationError(f"{symbol}: charge number must be nonzero")
        _Record.__init__(self, symbol, mass, charge_number)


def parse_ion(symbol: str, mass_in_amu: float) -> IonSpecies:
    """Parse an ion symbol like ``Na+``, ``Cl-``, or ``Zn2+`` into a species."""
    match = _ION_SYMBOL.match(symbol)
    if match is None:
        raise ValidationError(
            f"ion symbol {symbol!r} must be an element followed by an optional "
            "multiplicity and a +/- sign, like Na+ or Zn2+"
        )
    _, digits, sign = match.groups()
    magnitude = int(digits) if digits else 1
    return IonSpecies(symbol, mass_amu(mass_in_amu), magnitude if sign == "+" else -magnitude)


class SaltRecord(_Record):
    """One binary salt: ions, bulk density, lattice edge, optional metadata.

    ``ref_tau1`` and ``ref_tau2`` are published reference decoherence times
    (SI seconds) used only for regression and display, never in formulas.
    ``water_per_ion`` is the saturation ratio, informational only.
    """

    __slots__ = _fields = ("name", "cation", "anion", "mass_density", "lattice_edge",
                           "water_per_ion", "ref_tau1", "ref_tau2")

    def __init__(self, name: str, cation: IonSpecies, anion: IonSpecies, mass_density: Quantity,
                 lattice_edge: Quantity, water_per_ion: float | None = None,
                 ref_tau1: Quantity | None = None, ref_tau2: Quantity | None = None) -> None:
        if not name:
            raise ValidationError("salt name must be nonempty")
        mass_density.require(MASS_DENSITY, f"{name}: density_kg_m3")
        lattice_edge.require(LENGTH, f"{name}: lattice_a_angstrom")
        if mass_density.si <= 0:
            raise ValidationError(f"{name}: density_kg_m3 must be positive")
        if lattice_edge.si <= 0:
            raise ValidationError(f"{name}: lattice_a_angstrom must be positive")
        if water_per_ion is not None and water_per_ion <= 0:
            raise ValidationError(f"{name}: water_per_ion must be positive")
        per_m3 = _per_volume(mass_density.si, cation.mass.si, anion.mass.si)  # positive masses: no zero divisor
        if not _SMALLEST_NORMAL <= per_m3 <= _LARGEST:  # an overflowing formula mass gives 0.0
            raise ValidationError(f"{name}: number density {per_m3!r} m^-3 is not a positive normal double")
        _Record.__init__(self, name, cation, anion, mass_density, lattice_edge, water_per_ion, ref_tau1, ref_tau2)

    @property
    def formula_mass(self) -> Quantity:
        """Mass of one formula unit (cation plus anion)."""
        return self.cation.mass + self.anion.mass


def _per_volume(density, cation_mass, anion_mass):
    """The number density body, density / (cation_mass + anion_mass), over Quantities or floats; proved below."""
    return density / (cation_mass + anion_mass)


_per_volume(*(Quantity(1.0, d) for d in (MASS_DENSITY, MASS, MASS))).require(NUMBER_DENSITY, "number density")


def number_density(record: SaltRecord) -> Quantity:
    """Formula units per volume: bulk density over the formula-unit mass; the record checked its range."""
    return Quantity(_per_volume(record.mass_density.si, record.cation.mass.si, record.anion.mass.si), NUMBER_DENSITY)


def _parse_float(field: str, name: str, line_number: int, scale: float = 1.0) -> float:
    """The number in ``field``; its SI value, times ``scale`` (at most 1), must be a positive normal double.

    Every numeric column holds a positive quantity. A value that is not
    positive, or whose SI form underflows or falls below the smallest
    normal double and so loses digits, is rejected here with its line and
    field.
    """
    try:
        value = float(field)
    except ValueError:
        raise SaltDataError(f"field {name!r}: cannot parse {field!r} as a number", line_number) from None
    # one chained test passes every good value; NaN, inf, <= 0 and subnormal fail it
    if not _SMALLEST_NORMAL <= value * scale <= _LARGEST:
        if not math.isfinite(value):
            raise SaltDataError(f"field {name!r}: {field!r} is not a finite number", line_number)
        raise SaltDataError(
            f"field {name!r}: {field!r} is {value * scale!r} in SI units, not a positive normal double",
            line_number,
        )
    return value


def _parse_optional(field: str, name: str, line_number: int, scale: float = 1.0) -> float | None:
    if field == "-":
        return None
    return _parse_float(field, name, line_number, scale)


def load_salt_database(stream: Iterable[str]) -> list[SaltRecord]:
    """Parse salt records from a text stream in file order.

    Raises SaltDataError with the line number, and the field for a
    numeric one, on malformed input and on a value that fails a physical
    constraint: a field that is not a positive normal double in SI units,
    a bad ion symbol, a zero charge, an empty name, or a number density
    that is not a positive normal double, which SaltRecord rejects.
    """
    records: list[SaltRecord] = []
    seen: set[str] = set()
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != _FIELD_COUNT:
            raise SaltDataError(
                f"expected {_FIELD_COUNT} fields, got {len(fields)}", line_number
            )
        (name, cation_symbol, cation_field, anion_symbol, anion_field,
         density_field, lattice_field, water_field, tau1_field, tau2_field) = fields
        if name in seen:
            raise SaltDataError(f"duplicate salt name {name!r}", line_number)
        seen.add(name)
        cation_amu = _parse_float(cation_field, "cation_mass_amu", line_number, _AMU)
        anion_amu = _parse_float(anion_field, "anion_mass_amu", line_number, _AMU)
        density = _parse_float(density_field, "density_kg_m3", line_number)
        lattice = _parse_float(lattice_field, "lattice_a_angstrom", line_number, 1e-10)
        water = _parse_optional(water_field, "water_per_ion", line_number)
        tau1 = _parse_optional(tau1_field, "ref_tau1_1e-40s", line_number, 1e-40)
        tau2 = _parse_optional(tau2_field, "ref_tau2_1e-38s", line_number, 1e-38)
        # the fields are positive normal doubles, so the records' own checks can
        # only fail on the name, an ion symbol, a zero charge or the number density
        try:
            record = SaltRecord(
                name=name,
                cation=parse_ion(cation_symbol, cation_amu),
                anion=parse_ion(anion_symbol, anion_amu),
                mass_density=Quantity(density, MASS_DENSITY),
                lattice_edge=length_angstrom(lattice),
                water_per_ion=water,
                ref_tau1=None if tau1 is None else time_s(tau1 * 1e-40),
                ref_tau2=None if tau2 is None else time_s(tau2 * 1e-38),
            )
        except ValidationError as exc:
            raise SaltDataError(str(exc), line_number) from None
        records.append(record)
    return records


def load_salts(path) -> list[SaltRecord]:
    """Load salt records from a file path; a leading UTF-8 byte-order mark is ignored.

    A file that is not UTF-8, or that holds no records, raises SaltDataError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            records = load_salt_database(handle)
    except UnicodeDecodeError as exc:
        raise SaltDataError(f"cannot read data file {path!r}: not UTF-8 text ({exc.reason})") from None
    if not records:
        raise SaltDataError(f"data file {path!r} holds no salt records")
    return records


def bundled_salt_database() -> list[SaltRecord]:
    """The 16 binary salts shipped with the package, in fixed order."""
    return load_salts(os.path.join(os.path.dirname(__file__), "data", "salts.csv"))


def salt_by_name(records: list[SaltRecord], name: str) -> SaltRecord:
    """Look up a salt by exact name; error message lists the valid names."""
    for record in records:
        if record.name == name:
            return record
    valid = ", ".join(r.name for r in records)
    raise ValidationError(f"unknown salt {name!r}; valid names: {valid}")
