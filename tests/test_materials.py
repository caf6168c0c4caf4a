import io
import itertools

import pytest

from iondecoh import materials
from iondecoh.errors import DimensionError, SaltDataError, ValidationError
from iondecoh.units import MASS, Quantity, mass_density_kg_m3, time_s

EXPECTED_ORDER = [
    "NaF", "NaCl", "NaBr", "NaI", "KF", "KCl", "KBr", "CsF",
    "CsCl", "CsBr", "CsI", "AgCl", "AgBr", "AgI", "ZnS", "PbS",
]


def test_bundled_database_order_and_size():
    records = materials.bundled_salt_database()
    assert [r.name for r in records] == EXPECTED_ORDER


def test_nacl_record_fields():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    assert nacl.cation.symbol == "Na+"
    assert nacl.cation.charge_number == 1
    assert nacl.anion.charge_number == -1
    assert nacl.cation.mass.si == pytest.approx(3.81757931944708e-26, rel=1e-12)
    assert nacl.mass_density.si == 2163.0
    assert nacl.lattice_edge.si == pytest.approx(5.64e-10, rel=1e-15)
    assert nacl.water_per_ion == 10.0
    assert nacl.ref_tau1.si == pytest.approx(4.6e-40, rel=1e-12)
    assert nacl.ref_tau2.si == pytest.approx(4.4e-38, rel=1e-12)


def test_divalent_charges():
    records = materials.bundled_salt_database()
    zns = materials.salt_by_name(records, "ZnS")
    pbs = materials.salt_by_name(records, "PbS")
    assert zns.cation.charge_number == 2
    assert zns.anion.charge_number == -2
    assert pbs.cation.charge_number == 2


def test_number_density_nacl():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    n = materials.number_density(nacl)
    assert n.si == pytest.approx(2.228819610591948e28, rel=1e-12)
    assert n.si == pytest.approx(2.229e28, rel=1e-3)


def test_number_density_scales_linearly_with_density():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    doubled = materials.SaltRecord(nacl.name, nacl.cation, nacl.anion,
                                   mass_density_kg_m3(2.0 * nacl.mass_density.si), nacl.lattice_edge)
    assert materials.number_density(doubled).si == pytest.approx(
        2.0 * materials.number_density(nacl).si, rel=1e-15
    )


def test_number_density_inverse_in_formula_mass():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    heavy = materials.SaltRecord(
        nacl.name,
        cation=materials.parse_ion("Na+", 2 * 22.990),
        anion=materials.parse_ion("Cl-", 2 * 35.453),
        mass_density=nacl.mass_density,
        lattice_edge=nacl.lattice_edge,
    )
    assert materials.number_density(heavy).si == pytest.approx(
        materials.number_density(nacl).si / 2.0, rel=1e-12
    )


def test_formula_mass_is_cation_plus_anion():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    assert nacl.formula_mass.si == pytest.approx(
        nacl.cation.mass.si + nacl.anion.mass.si, rel=1e-15
    )


def test_parse_ion_symbols():
    assert materials.parse_ion("Na+", 22.990).charge_number == 1
    assert materials.parse_ion("Cl-", 35.453).charge_number == -1
    assert materials.parse_ion("Zn2+", 65.390).charge_number == 2
    assert materials.parse_ion("S2-", 32.066).charge_number == -2
    for bad in ("Na", "na+", "Na++", "2+", "Na0"):
        with pytest.raises(ValidationError):
            materials.parse_ion(bad, 22.990)
    for mass in (0.0, -22.990):
        with pytest.raises(ValidationError, match="^Na\\+: mass must be positive$"):
            materials.parse_ion("Na+", mass)


def test_empty_stream_gives_empty_database():
    assert list(materials.load_salt_database(io.StringIO("# only comments\n\n"))) == []


def test_comments_and_blank_lines_skipped():
    text = "# header\n\nNaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n"
    records = list(materials.load_salt_database(io.StringIO(text)))
    assert len(records) == 1 and records[0].name == "NaCl"


def test_wrong_field_count_reports_line_number():
    text = "# comment\nNaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6\n"
    with pytest.raises(SaltDataError, match="line 2") as excinfo:
        list(materials.load_salt_database(io.StringIO(text)))
    assert excinfo.value.line_number == 2
    assert "9" in str(excinfo.value)


def test_unparseable_number_reports_field_and_line():
    text = "NaCl,Na+,alot,Cl-,35.453,2163,5.64,10,4.6,4.4\n"
    with pytest.raises(SaltDataError, match="cation_mass_amu"):
        list(materials.load_salt_database(io.StringIO(text)))


def test_negative_density_names_line_and_field():
    text = "NaCl,Na+,22.990,Cl-,35.453,-2163,5.64,10,4.6,4.4\n"
    with pytest.raises(SaltDataError, match="line 1: field 'density_kg_m3'") as excinfo:
        list(materials.load_salt_database(io.StringIO(text)))
    assert excinfo.value.line_number == 1


def test_duplicate_names_rejected():
    line = "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n"
    with pytest.raises(SaltDataError, match="duplicate"):
        list(materials.load_salt_database(io.StringIO(line + line)))


def test_unknown_salt_lookup_lists_valid_names():
    records = materials.bundled_salt_database()
    with pytest.raises(ValidationError, match="NaCl"):
        materials.salt_by_name(records, "unobtanium")


def test_salt_by_name_reads_a_generator_no_further_than_its_match():
    nacl_line = "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n"
    nine_fields = "KBr,K+,39.098,Br-,79.904,2750,6.60,-,9.6\n"
    stream = io.StringIO(nacl_line + nine_fields)
    assert materials.salt_by_name(materials.load_salt_database(stream), "NaCl").name == "NaCl"
    assert stream.readline() == nine_fields  # the faulty line was never read
    with pytest.raises(ValidationError, match="^unknown salt 'KBr'; valid names: NaCl$"):
        materials.salt_by_name(materials.load_salt_database(io.StringIO(nacl_line)), "KBr")


def test_salt_by_name_over_a_list_with_a_repeated_name_returns_the_first():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    twin = materials.SaltRecord("NaCl", nacl.cation, nacl.anion, mass_density_kg_m3(1000.0), nacl.lattice_edge)
    assert materials.salt_by_name([twin, nacl], "NaCl") is twin
    assert materials.salt_by_name([nacl, twin], "NaCl") is nacl


def test_record_validation_rejects_wrong_dimension():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    with pytest.raises(DimensionError):
        materials.SaltRecord(nacl.name, nacl.cation, nacl.anion, time_s(1.0), nacl.lattice_edge)


def test_number_density_every_bundled_salt_positive():
    for record in materials.bundled_salt_database():
        assert materials.number_density(record).si > 0


def test_record_rejects_a_reference_time_of_another_dimension():
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    with pytest.raises(DimensionError, match=r"^NaCl: ref_tau2 must have dimension \[s\]"):
        materials.SaltRecord(nacl.name, nacl.cation, nacl.anion, nacl.mass_density, nacl.lattice_edge,
                             ref_tau1=time_s(1.0), ref_tau2=nacl.lattice_edge)


@pytest.mark.parametrize("seconds", [-1.0, 0.0])
@pytest.mark.parametrize("field", ["ref_tau1", "ref_tau2"])
def test_record_rejects_a_reference_time_that_is_not_positive(field, seconds):
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    with pytest.raises(ValidationError, match=rf"^NaCl: {field} must be positive$"):
        materials.SaltRecord(nacl.name, nacl.cation, nacl.anion, nacl.mass_density, nacl.lattice_edge,
                             **{field: time_s(seconds)})


@pytest.mark.parametrize("value", [-1.0, 0.0])
@pytest.mark.parametrize("field, label", [("mass_density", "density_kg_m3"), ("lattice_edge", "lattice_a_angstrom"),
                                          ("water_per_ion", "water_per_ion")])
def test_record_rejects_a_bulk_field_that_is_not_positive(field, label, value):
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    fields = dict(zip(materials.SaltRecord._fields, nacl._values()))
    fields[field] = value if field == "water_per_ion" else fields[field] * value
    with pytest.raises(ValidationError, match=rf"^NaCl: {label} must be positive$"):
        materials.SaltRecord(**fields)


def test_the_constructor_reports_its_faults_in_order():
    # name, density, edge, water, ref_tau1, ref_tau2, then the number density: each fault mended in turn
    nacl = materials.salt_by_name(materials.bundled_salt_database(), "NaCl")
    light = materials.IonSpecies("X+", Quantity(1e-30, MASS), 1)
    fields = dict(name="", cation=light, anion=light, mass_density=mass_density_kg_m3(-1.0),
                  lattice_edge=-nacl.lattice_edge, water_per_ion=0.0, ref_tau1=time_s(-1.0), ref_tau2=time_s(0.0))
    mends = [("name", "NaCl", "salt name must be nonempty"),
             ("mass_density", mass_density_kg_m3(1e300), "NaCl: density_kg_m3 must be positive"),
             ("lattice_edge", nacl.lattice_edge, "NaCl: lattice_a_angstrom must be positive"),
             ("water_per_ion", 10.0, "NaCl: water_per_ion must be positive"),
             ("ref_tau1", nacl.ref_tau1, "NaCl: ref_tau1 must be positive"),
             ("ref_tau2", nacl.ref_tau2, "NaCl: ref_tau2 must be positive")]
    for field, good, message in mends:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            materials.SaltRecord(**fields)
        fields[field] = good
    with pytest.raises(ValidationError, match=r"^NaCl: number density inf m\^-3 is not a positive normal double$"):
        materials.SaltRecord(**fields)


def test_the_loader_parses_each_ion_symbol_once_a_load(monkeypatch):
    text = "".join(f"S{i},Na+,22.990,{'Cl-' if i % 2 else 'S2-'},35.453,2163,5.64,10,4.6,4.4\n" for i in range(50))
    parsed = []
    parse_ion = materials.parse_ion
    monkeypatch.setattr(materials, "parse_ion", lambda symbol, amu: parsed.append(symbol) or parse_ion(symbol, amu))
    for _ in range(2):  # no cache outlives a load
        parsed.clear()
        records = list(materials.load_salt_database(io.StringIO(text)))
        assert parsed == ["Na+", "S2-", "Cl-"]
        assert [r.anion.charge_number for r in records[:2]] == [-2, -1]


def test_the_loader_yields_each_record_before_it_reads_the_next_line():
    good = "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n"
    lines = iter([good, good.replace("NaCl", "KCl"), "KBr,K+\n"])
    records = materials.load_salt_database(lines)
    assert next(records).name == "NaCl"
    assert next(lines).startswith("KCl")  # the loader has not read past NaCl's line
    with pytest.raises(SaltDataError, match="^line 2: expected 10 fields, got 2$"):
        next(records)


def test_read_salts_yields_each_record_before_it_reads_the_next_line(tmp_path):
    path = tmp_path / "salts.csv"
    path.write_text("NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\nKBr,K+\n")
    seen = []
    with pytest.raises(SaltDataError, match="^line 2: expected 10 fields, got 2$"):
        for record in materials._read_salts(path):
            seen.append(record.name)
    assert seen == ["NaCl"]
    assert next(materials._read_salts(path)).name == "NaCl"  # reads no further than the first record
    with pytest.raises(SaltDataError, match="^line 2: expected 10 fields, got 2$"):
        materials.load_salts(path)


def test_a_line_may_hold_max_line_characters_and_no_more(tmp_path):
    longest = "#" * (materials._MAX_LINE - 1) + "\n"  # its newline included
    path = tmp_path / "salts.csv"
    path.write_text(longest + "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n#" + longest)
    records = materials._read_salts(path)
    assert next(records).name == "NaCl"
    with pytest.raises(SaltDataError, match="^line 3: more than 65536 characters$"):
        next(records)


def test_an_open_stream_is_read_no_further_than_the_cap(tmp_path):
    path = tmp_path / "salts.csv"
    path.write_text("#" * 70_000 + "\nNaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n")
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(SaltDataError, match="^line 1: more than 65536 characters$"):
            list(materials.load_salt_database(handle))
        assert handle.readline() == "#" * (70_000 - materials._MAX_LINE - 1) + "\n"


GOOD_FIELDS = "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4".split(",")
# each numeric column's index, and a text whose SI form falls below the smallest normal double, with that form
BELOW_NORMAL = {
    "cation_mass_amu": (2, "1e-300", "0.0"),
    "anion_mass_amu": (4, "1e-300", "0.0"),
    "density_kg_m3": (5, "1e-310", "1e-310"),
    "lattice_a_angstrom": (6, "1e-300", "1e-310"),
    "water_per_ion": (7, "1e-310", "1e-310"),
    "ref_tau1_1e-40s": (8, "1e-300", "0.0"),
    "ref_tau2_1e-38s": (9, "1e-300", "0.0"),
}


def _row(**swaps) -> str:
    """GOOD_FIELDS as a line, with the text of each column named in swaps replaced."""
    fields = list(GOOD_FIELDS)
    for column, text in swaps.items():
        fields[BELOW_NORMAL[column][0]] = text
    return ",".join(fields) + "\n"


def _load_error(text: str) -> str:
    with pytest.raises(SaltDataError) as excinfo:
        list(materials.load_salt_database(io.StringIO(text)))
    return str(excinfo.value)


@pytest.mark.parametrize("text, fault", [
    ("abc", "cannot parse 'abc' as a number"),
    (" abc ", "cannot parse 'abc' as a number"),  # the message quotes the field stripped
    ("nan", "'nan' is not a finite number"),
    ("inf", "'inf' is not a finite number"),
    ("-inf", "'-inf' is not a finite number"),
    (None, None),  # the column's value below the smallest normal double in SI units
])
@pytest.mark.parametrize("column", list(BELOW_NORMAL))
def test_each_numeric_column_names_its_fault(column, text, fault):
    if text is None:
        _, text, si = BELOW_NORMAL[column]
        fault = f"{text!r} is {si} in SI units, not a positive normal double"
    assert _load_error("# header\n" + _row(**{column: text})) == f"line 2: field {column!r}: {fault}"


@pytest.mark.parametrize("first, later", list(itertools.combinations(BELOW_NORMAL, 2)))
def test_a_row_with_two_bad_fields_names_the_first_in_column_order(first, later):
    # the later field cannot be parsed at all; the first parses, but is not positive
    assert _load_error(_row(**{first: "-1", later: "abc"})).startswith(f"line 1: field {first!r}: '-1' is -")
    assert _load_error(_row(**{first: "nan", later: "abc"})) == f"line 1: field {first!r}: 'nan' is not a finite number"


def test_a_bad_number_on_a_duplicate_name_row_reports_the_duplicate():
    assert _load_error(_row() + _row(density_kg_m3="abc")) == "line 2: duplicate salt name 'NaCl'"


@pytest.mark.parametrize("missing", [False, True])
def test_space_padded_fields_load_as_the_unpadded_row(missing):
    fields = list(GOOD_FIELDS)
    if missing:
        fields[7:10] = ["-", "-", "-"]
    padded = ",".join(f" {field}\t " for field in fields) + "\n"
    (plain,) = materials.load_salt_database(io.StringIO(",".join(fields) + "\n"))
    (loaded,) = materials.load_salt_database(io.StringIO(padded))
    assert loaded == plain and loaded._si == plain._si
    assert (loaded.water_per_ion is None) is missing
