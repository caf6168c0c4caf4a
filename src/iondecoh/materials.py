"""Salt database: ion species, per-salt records, and the bundled data table.

The data file is CSV with ``#`` comment lines and ten columns::

    name, cation_symbol, cation_mass_amu, anion_symbol, anion_mass_amu,
    density_kg_m3, lattice_a_angstrom, water_per_ion, ref_tau1_1e-40s, ref_tau2_1e-38s

``water_per_ion`` and the two reference times may be ``-`` (missing).
Records keep file order, which is also the fixed output order everywhere.
"""

from __future__ import annotations

import math
import os
import re

from .errors import SaltDataError, ValidationError
from .units import (
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

_FIELD_NAMES = (
    "name",
    "cation_symbol",
    "cation_mass_amu",
    "anion_symbol",
    "anion_mass_amu",
    "density_kg_m3",
    "lattice_a_angstrom",
    "water_per_ion",
    "ref_tau1_1e-40s",
    "ref_tau2_1e-38s",
)


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
        _Record.__init__(self, name, cation, anion, mass_density, lattice_edge, water_per_ion, ref_tau1, ref_tau2)

    @property
    def formula_mass(self) -> Quantity:
        """Mass of one formula unit (cation plus anion)."""
        return self.cation.mass + self.anion.mass


def number_density(record: SaltRecord) -> Quantity:
    """Formula units per volume: bulk density over the formula-unit mass."""
    return (record.mass_density / record.formula_mass).require(
        NUMBER_DENSITY, f"{record.name}: number density"
    )


def _parse_float(field: str, name: str, line_number: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise SaltDataError(f"field {name!r}: cannot parse {field!r} as a number", line_number) from None
    if not math.isfinite(value):
        raise SaltDataError(f"field {name!r}: {field!r} is not a finite number", line_number)
    return value


def _parse_optional(field: str, name: str, line_number: int) -> float | None:
    if field == "-":
        return None
    return _parse_float(field, name, line_number)


def load_salt_database(stream: Iterable[str]) -> list[SaltRecord]:
    """Parse salt records from a text stream in file order.

    Raises SaltDataError with a line number on malformed input and
    ValidationError when a parsed value fails a physical constraint.
    """
    records: list[SaltRecord] = []
    seen: set[str] = set()
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(_FIELD_NAMES):
            raise SaltDataError(
                f"expected {len(_FIELD_NAMES)} fields, got {len(fields)}", line_number
            )
        row = dict(zip(_FIELD_NAMES, fields))
        name = row["name"]
        if name in seen:
            raise SaltDataError(f"duplicate salt name {name!r}", line_number)
        seen.add(name)
        try:
            record = SaltRecord(
                name=name,
                cation=parse_ion(row["cation_symbol"], _parse_float(row["cation_mass_amu"], "cation_mass_amu", line_number)),
                anion=parse_ion(row["anion_symbol"], _parse_float(row["anion_mass_amu"], "anion_mass_amu", line_number)),
                mass_density=Quantity(_parse_float(row["density_kg_m3"], "density_kg_m3", line_number), MASS_DENSITY),
                lattice_edge=length_angstrom(_parse_float(row["lattice_a_angstrom"], "lattice_a_angstrom", line_number)),
                water_per_ion=_parse_optional(row["water_per_ion"], "water_per_ion", line_number),
                ref_tau1=_scaled_time(_parse_optional(row["ref_tau1_1e-40s"], "ref_tau1_1e-40s", line_number), 1e-40),
                ref_tau2=_scaled_time(_parse_optional(row["ref_tau2_1e-38s"], "ref_tau2_1e-38s", line_number), 1e-38),
            )
        except ValidationError as exc:
            raise ValidationError(f"line {line_number}: {exc}") from None
        records.append(record)
    return records


def _scaled_time(value: float | None, scale: float) -> Quantity | None:
    if value is None:
        return None
    if value <= 0:
        raise ValidationError("reference time must be positive")
    return time_s(value * scale)


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
