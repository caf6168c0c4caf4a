"""Salt database: ion species, per-salt records, and the bundled data table.

The data file is CSV with ``#`` comment lines and ten columns::

    name, cation_symbol, cation_mass_amu, anion_symbol, anion_mass_amu,
    density_kg_m3, lattice_a_angstrom, water_per_ion, ref_tau1_1e-40s, ref_tau2_1e-38s

``water_per_ion`` and the two reference times may be ``-`` (missing). Every
numeric field is a positive quantity whose SI value must be a normal double.
Records keep file order, which is also the fixed output order everywhere.
Every SaltRecord's number density, density / (m_cation + m_anion), is a positive normal double.
A record keeps SI floats, each ion as its symbol, charge number and kg, and its fields
give IonSpecies and Quantities on access; the loader builds no Quantity.
Each row is parsed in one pass; only a row that fails it is parsed again, field by field.
The loader yields each record as its line is read, so a caller that iterates
it can keep less than the records; load_salts lists them. A line may hold at
most 65,536 characters, its newline included. One rule picks salts by name,
for salt_by_name and for the CLI's --salt and --salts: each record asked for,
in file order as it is read, and then an unknown name raises with the names
read, in file order; only the names are kept, not the records.
"""

from __future__ import annotations

import functools
import math
import os
import re
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
    _Formula,
    _LARGEST,
    _Record,
    _SMALLEST_NORMAL,
    mass_amu,
)

_ION_SYMBOL = re.compile(r"^([A-Z][a-z]?)(\d*)([+-])$")
_AMU = CODATA.amu.si  # kg, the factor mass_amu applies

_FIELD_COUNT = 10  # the columns the module docstring lists, which the loader unpacks by name
_MAX_LINE = 65536  # characters a line may hold, its newline included
# each numeric column's index, name and factor to SI units, in column order; from 7 on a column may be "-"
_NUMERIC_COLUMNS = ((2, "cation_mass_amu", _AMU), (4, "anion_mass_amu", _AMU), (5, "density_kg_m3", 1.0),
                    (6, "lattice_a_angstrom", 1e-10), (7, "water_per_ion", 1.0), (8, "ref_tau1_1e-40s", 1e-40),
                    (9, "ref_tau2_1e-38s", 1e-38))
_BUNDLED_PATH = os.path.join(os.path.dirname(__file__), "data", "salts.csv")
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
        if name:  # an empty name is the first fault, which _salt_floats raises
            for label, value in (("density_kg_m3", mass_density.si), ("lattice_a_angstrom", lattice_edge.si),
                                 ("water_per_ion", water_per_ion), ("ref_tau1", refs[0]), ("ref_tau2", refs[1])):
                if value is not None and value <= 0:
                    raise ValidationError(f"{name}: {label} must be positive")
        self._fill(name, _salt_floats(name, (cation.symbol, cation.charge_number), cation.mass.si,
                                      (anion.symbol, anion.charge_number), anion.mass.si, mass_density.si,
                                      lattice_edge.si, water_per_ion, *refs))

    cation = property(lambda self: IonSpecies(self._si.cation[0], Quantity(self._si.cation_kg, MASS),
                                              self._si.cation[1]))
    anion = property(lambda self: IonSpecies(self._si.anion[0], Quantity(self._si.anion_kg, MASS), self._si.anion[1]))
    mass_density = property(lambda self: Quantity(self._si.density, MASS_DENSITY))
    lattice_edge = property(lambda self: Quantity(self._si.edge, LENGTH))
    water_per_ion = property(lambda self: self._si.water)
    ref_tau1 = property(lambda self: None if self._si.ref_tau1 is None else Quantity(self._si.ref_tau1, TIME))
    ref_tau2 = property(lambda self: None if self._si.ref_tau2 is None else Quantity(self._si.ref_tau2, TIME))
    formula_mass = property(lambda self: Quantity(self._si.cation_kg + self._si.anion_kg, MASS))  # of a formula unit


# positive masses give no zero divisor; an overflowing formula mass gives 0.0, which is rejected
_NUMBER_DENSITY = _Formula("number density", NUMBER_DENSITY, (MASS_DENSITY, MASS, MASS),
                           lambda c, density, cation_kg, anion_kg: density / (cation_kg + anion_kg),
                           "{at}: {label} {value!r} m^-3 is not a positive normal double", _SMALLEST_NORMAL)


def _salt_floats(name, cation, cation_kg, anion, anion_kg, density, edge, water, ref_tau1, ref_tau2) -> _SaltFloats:
    """A SaltRecord's _si, once the name and number density are checked: for the constructor and the loader,
    whose callers have checked that each value given is positive."""
    if not name:
        raise ValidationError("salt name must be nonempty")
    per_m3 = _NUMBER_DENSITY.si((density, cation_kg, anion_kg), name)
    floats = (cation, cation_kg, anion, anion_kg, density, edge, water, ref_tau1, ref_tau2, per_m3)
    return tuple.__new__(_SaltFloats, floats)  # a namedtuple's own __new__ is a Python function


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

    Raises SaltDataError with the line number, and the field for a numeric
    one, on malformed input and on a value that fails a physical constraint:
    a field that is not a positive normal double in SI units, a bad ion
    symbol, a zero charge, an empty name, a number density that is not a
    positive normal double, which SaltRecord rejects, or a line over
    _MAX_LINE characters, which a stream with readline stops reading at the
    cap (/dev/zero, a FIFO that sends no newline). The error comes when
    iteration reaches the faulty line, after the records before it. A row's
    numbers are parsed in one pass; only a row that fails it goes through
    _parse_float, stripped field by field in column order, for its fault.
    """
    seen: set[str] = set()
    ions: dict[str, tuple[str, int]] = {}  # symbol -> (symbol, charge number), parsed once a load
    lines = iter(functools.partial(stream.readline, _MAX_LINE + 1), "") if hasattr(stream, "readline") else stream
    for line_number, raw in enumerate(lines, start=1):
        if len(raw) > _MAX_LINE:
            raise SaltDataError(f"more than {_MAX_LINE} characters", line_number)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != _FIELD_COUNT:
            raise SaltDataError(f"expected {_FIELD_COUNT} fields, got {len(fields)}", line_number)
        # only the text used as text is stripped; float() skips the whitespace around a number itself
        name, cation_symbol, anion_symbol = fields[0].strip(), fields[1].strip(), fields[3].strip()
        water_field, tau1_field, tau2_field = fields[7].strip(), fields[8].strip(), fields[9].strip()
        if name in seen:
            raise SaltDataError(f"duplicate salt name {name!r}", line_number)
        seen.add(name)
        try:
            cation_kg, anion_kg = float(fields[2]) * _AMU, float(fields[4]) * _AMU
            density, lattice = float(fields[5]), float(fields[6]) * 1e-10
            water = None if water_field == "-" else float(water_field)
            tau1 = None if tau1_field == "-" else float(tau1_field) * 1e-40
            tau2 = None if tau2_field == "-" else float(tau2_field) * 1e-38
            good = (_SMALLEST_NORMAL <= cation_kg <= _LARGEST and _SMALLEST_NORMAL <= anion_kg <= _LARGEST
                    and _SMALLEST_NORMAL <= density <= _LARGEST and _SMALLEST_NORMAL <= lattice <= _LARGEST
                    and (water is None or _SMALLEST_NORMAL <= water <= _LARGEST)
                    and (tau1 is None or _SMALLEST_NORMAL <= tau1 <= _LARGEST)
                    and (tau2 is None or _SMALLEST_NORMAL <= tau2 <= _LARGEST))
        except ValueError:
            good = False
        if not good:  # each field again, stripped, in column order: the first bad one raises
            cation_kg, anion_kg, density, lattice, water, tau1, tau2 = [
                None if column >= 7 and fields[column].strip() == "-"
                else _parse_float(fields[column].strip(), label, line_number, scale)
                for column, label, scale in _NUMERIC_COLUMNS]
        # the fields are positive normal doubles, so only an ion symbol, a zero
        # charge, the name or the number density can fail from here on
        try:
            try:
                cation, anion = ions[cation_symbol], ions[anion_symbol]
            except KeyError:  # a symbol first seen in this row: each parsed once a load, the cation first
                for symbol in (cation_symbol, anion_symbol):
                    if symbol not in ions:
                        ions[symbol] = (symbol, parse_ion(symbol, 1.0).charge_number)
                cation, anion = ions[cation_symbol], ions[anion_symbol]
            record = SaltRecord._of(name, _salt_floats(name, cation, cation_kg, anion, anion_kg, density, lattice,
                                                       water, tau1, tau2))
        except ValidationError as exc:
            raise SaltDataError(str(exc), line_number) from None
        yield record


def _read_salts(path) -> Iterator[SaltRecord]:
    """The salt records of a file path, in file order, each yielded as its line is read.

    A leading UTF-8 byte-order mark is ignored. A file that is not UTF-8, or
    that holds no records, raises SaltDataError where the iteration reaches
    the fault, as each fault that load_salt_database raises does.
    """
    empty = True
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for record in load_salt_database(handle):
                empty = False
                yield record
    except UnicodeDecodeError as exc:
        raise SaltDataError(f"cannot read data file {path!r}: not UTF-8 text ({exc.reason})") from None
    if empty:
        raise SaltDataError(f"data file {path!r} holds no salt records")


def load_salts(path) -> list[SaltRecord]:
    """The salt records of a file path, in file order; a file not UTF-8, empty or faulty raises SaltDataError."""
    return list(_read_salts(path))


def bundled_salt_database() -> list[SaltRecord]:
    """The 16 binary salts shipped with the package, in fixed order."""
    return load_salts(_BUNDLED_PATH)


def salt_by_name(records: Iterable[SaltRecord], name: str) -> SaltRecord:
    """Look up a salt by exact name, the first record that holds it; error message lists the valid names."""
    return next(_select(records, [name]))


def _select(records: Iterable[SaltRecord], names: list[str]) -> Iterator[SaltRecord]:
    """Each record whose name is in names, in file order, as it is read; then the first name no record held raises."""
    wanted, read = set(names), []  # read: every name in file order, for the error; no record is kept
    for record in records:
        read.append(record.name)
        if record.name in wanted:
            yield record
    missing = wanted.difference(read)
    for name in names:
        if name in missing:
            raise ValidationError(f"unknown salt {name!r}; valid names: {', '.join(read)}")
