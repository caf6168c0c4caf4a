import io

import pytest

from iondecoh import materials
from iondecoh.errors import DimensionError, SaltDataError, ValidationError
from iondecoh.units import mass_density_kg_m3, time_s

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


def test_load_salts_hands_the_records_to_consume_as_they_are_read(tmp_path):
    path = tmp_path / "salts.csv"
    path.write_text("NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\nKBr,K+\n")
    seen = []
    with pytest.raises(SaltDataError, match="^line 2: expected 10 fields, got 2$"):
        materials.load_salts(path, lambda records: [seen.append(r.name) for r in records])
    assert seen == ["NaCl"]
    assert materials.load_salts(path, next).name == "NaCl"  # reads no further than the first record
