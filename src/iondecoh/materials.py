"""Salt database: ion species, per-salt records, and the bundled data table.

The data file is CSV with ``#`` comment lines and ten columns::

    name, cation_symbol, cation_mass_amu, anion_symbol, anion_mass_amu,
    density_kg_m3, lattice_a_angstrom, water_per_ion, ref_tau1_1e-40s, ref_tau2_1e-38s

``water_per_ion`` and the two reference times may be ``-`` (missing).
Every numeric field is a positive quantity whose SI value must be a
normal double.
Records keep file order, which is also the fixed output order everywhere.
Every SaltRecord's number density, density / (m_cation + m_anion), is a positive normal double.
A record keeps SI floats, each ion as its symbol, charge number and kg, and its fields
give IonSpecies and Quantities on access; the loader builds no Quantity.
The loader yields each record as its line is read; load_salts lists them, or
hands them to a consumer that can keep less than the records.
"""

from __future__ import annotations

import math
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import SaltDataError, ValidationError
from .units import (
    CODATA,
    LENGTH,
    MASS,
    MASS_DENSITY,
    NUMBER_DENSITY,
    TIME,
    Quantity,
    _Record,
    mass_amu,
)

_ION_SYMBOL = re.compile(r"^([A-Z][a-z]?)(\d*)([+-])$")
_AMU = CODATA.amu.si  # kg, the factor mass_amu applies
_SMALLEST_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max

_FIELD_COUNT = 10  # the columns the module docstring lists, which the loader unpacks by name
# a SaltRecord's SI floats, each ion as its (symbol, charge number) and its mass in kg; per_m3 is n
_SaltFloats = namedtuple("_SaltFloats", "cation cation_kg anion anion_kg density edge water ref_tau1 ref_tau2 per_m3")


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

    _fields = ("name", "cation", "anion", "mass_density", "lattice_edge", "water_per_ion", "ref_tau1", "ref_tau2")
    __slots__ = ("name", "_si")  # _si: the _SaltFloats the fields are built from

    def __init__(self, name: str, cation: IonSpecies, anion: IonSpecies, mass_density: Quantity,
                 lattice_edge: Quantity, water_per_ion: float | None = None,
                 ref_tau1: Quantity | None = None, ref_tau2: Quantity | None = None) -> None:
        mass_density.require(MASS_DENSITY, f"{name}: density_kg_m3")
        lattice_edge.require(LENGTH, f"{name}: lattice_a_angstrom")
        refs = [None if ref is None else ref.require(TIME, f"{name}: {label}").si
                for label, ref in (("ref_tau1", ref_tau1), ("ref_tau2", ref_tau2))]
        self._set_si(name, (cation.symbol, cation.charge_number), cation.mass.si, (anion.symbol, anion.charge_number),
                     anion.mass.si, mass_density.si, lattice_edge.si, water_per_ion, *refs)

    def _set_si(self, name, cation, cation_kg, anion, anion_kg, density, edge, water, ref_tau1, ref_tau2) -> None:
        """Check the record's SI floats and keep them: the one initialiser, of the constructor and the loader."""
        if not name:
            raise ValidationError("salt name must be nonempty")
        if density <= 0:
            raise ValidationError(f"{name}: density_kg_m3 must be positive")
        if edge <= 0:
            raise ValidationError(f"{name}: lattice_a_angstrom must be positive")
        if water is not None and water <= 0:
            raise ValidationError(f"{name}: water_per_ion must be positive")
        if ref_tau1 is not None and ref_tau1 <= 0:
            raise ValidationError(f"{name}: ref_tau1 must be positive")
        if ref_tau2 is not None and ref_tau2 <= 0:
            raise ValidationError(f"{name}: ref_tau2 must be positive")
        per_m3 = _per_volume(density, cation_kg, anion_kg)  # positive masses: no zero divisor
        if not _SMALLEST_NORMAL <= per_m3 <= _LARGEST:  # an overflowing formula mass gives 0.0
            raise ValidationError(f"{name}: number density {per_m3!r} m^-3 is not a positive normal double")
        set_name, set_si = self._setters
        set_name(self, name)
        set_si(self, _SaltFloats(cation, cation_kg, anion, anion_kg, density, edge, water, ref_tau1, ref_tau2, per_m3))

    cation = property(lambda self: IonSpecies(self._si.cation[0], Quantity(self._si.cation_kg, MASS),
                                              self._si.cation[1]))
    anion = property(lambda self: IonSpecies(self._si.anion[0], Quantity(self._si.anion_kg, MASS), self._si.anion[1]))
    mass_density = property(lambda self: Quantity(self._si.density, MASS_DENSITY))
    lattice_edge = property(lambda self: Quantity(self._si.edge, LENGTH))
    water_per_ion = property(lambda self: self._si.water)
    ref_tau1 = property(lambda self: None if self._si.ref_tau1 is None else Quantity(self._si.ref_tau1, TIME))
    ref_tau2 = property(lambda self: None if self._si.ref_tau2 is None else Quantity(self._si.ref_tau2, TIME))
    formula_mass = property(lambda self: Quantity(self._si.cation_kg + self._si.anion_kg, MASS))  # of a formula unit


def _per_volume(density, cation_mass, anion_mass):
    """The number density body, density / (cation_mass + anion_mass), over Quantities or floats; proved below."""
    return density / (cation_mass + anion_mass)


_per_volume(*(Quantity(1.0, d) for d in (MASS_DENSITY, MASS, MASS))).require(NUMBER_DENSITY, "number density")


def number_density(record: SaltRecord) -> Quantity:
    """Formula units per volume: bulk density over the formula-unit mass; the record checked its range."""
    return Quantity(record._si.per_m3, NUMBER_DENSITY)


def _parse_float(field: str, name: str, line_number: int, scale: float = 1.0) -> float:
    """The number in ``field`` times ``scale`` (at most 1): its SI value, which must be a positive normal double.

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
    return value * scale


def load_salt_database(stream: Iterable[str]) -> Iterator[SaltRecord]:
    """Parse salt records from a text stream, yielding each in file order as its line is read.

    Raises SaltDataError with the line number, and the field for a
    numeric one, on malformed input and on a value that fails a physical
    constraint: a field that is not a positive normal double in SI units,
    a bad ion symbol, a zero charge, an empty name, or a number density
    that is not a positive normal double, which SaltRecord rejects. The
    error comes when iteration reaches the faulty line, after the records
    before it.
    """
    seen: set[str] = set()
    ions: dict[str, tuple[str, int]] = {}  # symbol -> (symbol, charge number), parsed once a load
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
        cation_kg = _parse_float(cation_field, "cation_mass_amu", line_number, _AMU)
        anion_kg = _parse_float(anion_field, "anion_mass_amu", line_number, _AMU)
        density = _parse_float(density_field, "density_kg_m3", line_number)
        lattice = _parse_float(lattice_field, "lattice_a_angstrom", line_number, 1e-10)
        water = None if water_field == "-" else _parse_float(water_field, "water_per_ion", line_number)
        tau1 = None if tau1_field == "-" else _parse_float(tau1_field, "ref_tau1_1e-40s", line_number, 1e-40)
        tau2 = None if tau2_field == "-" else _parse_float(tau2_field, "ref_tau2_1e-38s", line_number, 1e-38)
        # the fields are positive normal doubles, so only an ion symbol, a zero
        # charge, the name or the number density can fail from here on
        try:
            cation, anion = [ions.get(s) or ions.setdefault(s, (s, parse_ion(s, 1.0).charge_number))
                             for s in (cation_symbol, anion_symbol)]
            record = SaltRecord.__new__(SaltRecord)
            record._set_si(name, cation, cation_kg, anion, anion_kg, density, lattice, water, tau1, tau2)
        except ValidationError as exc:
            raise SaltDataError(str(exc), line_number) from None
        yield record


def load_salts(path, consume=list):
    """Load the salt records of a file path: their list, or what consume makes of them.

    consume gets an iterator that reads each record's line only when it is
    reached, so one that renders each record as it comes keeps none of them.
    A leading UTF-8 byte-order mark is ignored. A file that is not UTF-8, or
    that holds no records, raises SaltDataError where the iteration reaches
    the fault, as each fault that load_salt_database raises does.
    """
    def records(handle):
        empty = True
        for record in load_salt_database(handle):
            empty = False
            yield record
        if empty:
            raise SaltDataError(f"data file {path!r} holds no salt records")

    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return consume(records(handle))
    except UnicodeDecodeError as exc:
        raise SaltDataError(f"cannot read data file {path!r}: not UTF-8 text ({exc.reason})") from None


def bundled_salt_database() -> list[SaltRecord]:
    """The 16 binary salts shipped with the package, in fixed order."""
    return load_salts(os.path.join(os.path.dirname(__file__), "data", "salts.csv"))


def salt_by_name(records: list[SaltRecord], name: str) -> SaltRecord:
    """Look up a salt by exact name; error message lists the valid names."""
    for record in records:
        if record.name == name:
            return record
    raise _unknown_salt(name, [r.name for r in records])


def _unknown_salt(name: str, names: list[str]) -> ValidationError:
    """The error for a salt the data does not hold; it lists the names the data holds, in file order."""
    return ValidationError(f"unknown salt {name!r}; valid names: {', '.join(names)}")
