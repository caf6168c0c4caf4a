"""The frozen records: repr, ==, hash, immutability, pickle and copy.

Each expected repr is the one the records printed when they were frozen
dataclasses, so the printed form of every record is part of the contract.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from test_readme_corpus import STREAMED_ROWS, write_perturbed_salts

from iondecoh import core, densmat, materials, regimes, units, vacuum
from iondecoh.units import LENGTH, MASS, MASS_DENSITY, NUMBER_DENSITY, TEMPERATURE, TIME, Quantity


def q(si, exponents):
    return f"Quantity(si={si}, dim=Dimension(exponents={exponents}))"


KG, M, S, K = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
ION_X = materials.IonSpecies("X+", Quantity(1.0, MASS), 1)
ION_Y = materials.IonSpecies("Y-", Quantity(2.0, MASS), -1)
EYE = "array([[1., 0.],\n       [0., 1.]])"
AMU = 1.66053906892e-27

# name -> (build, repr); a name with "._of" is a record that a fast path makes, which skips the constructor
RECORDS = {
    "IonSpecies": (
        lambda: materials.IonSpecies("X+", Quantity(1.0, MASS), 1),
        f"IonSpecies(symbol='X+', mass={q(1.0, KG)}, charge_number=1)"),
    "SaltRecord": (
        lambda: materials.SaltRecord("XY", ION_X, ION_Y, Quantity(3.0, MASS_DENSITY), Quantity(4.0, LENGTH)),
        f"SaltRecord(name='XY', cation=IonSpecies(symbol='X+', mass={q(1.0, KG)}, charge_number=1), "
        f"anion=IonSpecies(symbol='Y-', mass={q(2.0, KG)}, charge_number=-1), "
        f"mass_density={q(3.0, (1, -3, 0, 0, 0))}, lattice_edge={q(4.0, M)}, "
        "water_per_ion=None, ref_tau1=None, ref_tau2=None)"),
    "SaltRecord._of": (
        lambda: next(materials.load_salt_database(["XY,X+,1,Y-,2,3,4,5,1,1\n"])),
        f"SaltRecord(name='XY', cation=IonSpecies(symbol='X+', mass={q(AMU, KG)}, charge_number=1), "
        f"anion=IonSpecies(symbol='Y-', mass={q(2 * AMU, KG)}, charge_number=-1), "
        f"mass_density={q(3.0, (1, -3, 0, 0, 0))}, lattice_edge={q(4e-10, M)}, "
        f"water_per_ion=5.0, ref_tau1={q(1e-40, S)}, ref_tau2={q(1e-38, S)})"),
    "DecoherenceContext": (
        lambda: core.DecoherenceContext(Quantity(1.0, MASS), Quantity(2.0, TEMPERATURE),
                                        Quantity(3.0, NUMBER_DENSITY), Quantity(4.0, LENGTH)),
        f"DecoherenceContext(ion_mass={q(1.0, KG)}, temperature={q(2.0, K)}, "
        f"bath_density={q(3.0, (0, -3, 0, 0, 0))}, lattice_edge={q(4.0, M)}, ion_count=1e+23)"),
    "DecoherenceContext._of": (
        lambda: core.context_for_salt(RECORDS["SaltRecord"][0](), Quantity(2.0, TEMPERATURE), 7.0),
        f"DecoherenceContext(ion_mass={q(1.0, KG)}, temperature={q(2.0, K)}, "
        f"bath_density={q(1.0, (0, -3, 0, 0, 0))}, lattice_edge={q(4.0, M)}, ion_count=7.0)"),
    "SuperpositionSpec": (
        lambda: densmat.SuperpositionSpec(Quantity(1.0, LENGTH), Quantity(0.5, LENGTH)),
        f"SuperpositionSpec(separation={q(1.0, M)}, width={q(0.5, M)}, relative_phase=0.0)"),
    "ReducedDensityMatrix": (
        lambda: densmat.ReducedDensityMatrix(np.zeros(2), Quantity(1.0, LENGTH), np.eye(2), np.array([1.0, 0.0]),
                                             Quantity(0.0, TIME)),
        f"ReducedDensityMatrix(positions=array([0., 0.]), spacing={q(1.0, M)}, elements={EYE}, "
        f"initial_band_peaks=array([1., 0.]), time={q(0.0, S)})"),
    "SimSample": (
        lambda: densmat.SimSample(0.5, 0.25, 1.0, 0.75, -0.0),
        "SimSample(time=0.5, coherence=0.25, trace=1.0, purity=0.75, min_eigenvalue=-0.0)"),
    "RegimeReport": (
        lambda: regimes.classify(Quantity(1.0, TIME), Quantity(2.0, TIME), Quantity(3.0, TIME), False),
        f"RegimeReport(tau1={q(1.0, S)}, tau2={q(2.0, S)}, tau_dyn={q(3.0, S)}, "
        "coherent_phase_observed=False, threshold_ratio=1000.0, "
        "verdict=<Verdict.QUANTUM_MECHANICS_ADEQUATE: 'QuantumMechanicsAdequate'>)"),
    "XRayCheck": (
        lambda: regimes.XRayCheck(Quantity(1.0, TIME), Quantity(2.0, TIME), Quantity(3.0, LENGTH),
                                  Quantity(4.0, MASS_DENSITY), Quantity(5.0, LENGTH)),
        f"XRayCheck(tau1={q(1.0, S)}, tau_x={q(2.0, S)}, wavelength_x={q(3.0, M)}, "
        f"implied_density={q(4.0, (1, -3, 0, 0, 0))}, implied_spacing={q(5.0, M)})"),
    "BogoliubovProfile": (
        lambda: vacuum.BogoliubovProfile([0.5, 1.0]),
        "BogoliubovProfile(u=array([0.5, 1. ]))"),
    "BogoliubovProfile._of": (
        lambda: vacuum.uniform_profile(0.5, 2),
        "BogoliubovProfile(u=array([0.5, 0.5]))"),
    "PhysicalConstants": (
        lambda: units.CODATA,
        f"PhysicalConstants(hbar={q(1.0545718176461565e-34, (1, 2, -1, 0, 0))}, "
        f"k_B={q(1.380649e-23, (1, 2, -2, -1, 0))}, q_e={q(1.602176634e-19, (0, 0, 0, 0, 1))}, "
        f"coulomb_g={q(8987551786.170797, (1, 3, -2, 0, -2))}, amu={q(1.66053906892e-27, KG)}, "
        f"c={q(299792458.0, (0, 1, -1, 0, 0))})"),
}
# records that hold numpy arrays are unhashable, as a tuple of arrays is
WITH_ARRAYS = {"ReducedDensityMatrix", "BogoliubovProfile", "BogoliubovProfile._of"}


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    build, expected = RECORDS[name]
    assert type(build()).__name__ == name.partition(".")[0]
    assert repr(build()) == expected


@pytest.mark.parametrize("name", list(RECORDS))
def test_equality_and_hash_go_over_the_fields(name):
    build, _ = RECORDS[name]
    record = build()
    assert record == record
    assert record.__eq__(object()) is NotImplemented
    if name in WITH_ARRAYS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    twin = build()
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)


def test_a_changed_field_breaks_equality():
    assert densmat.SimSample(0.5, 0.25, 1.0, 0.75, 0.0) != densmat.SimSample(0.5, 0.25, 1.0, 0.75, 1e-300)
    ctx = RECORDS["DecoherenceContext"][0]()
    assert ctx != core.DecoherenceContext(ctx.ion_mass, ctx.temperature, ctx.bath_density, ctx.lattice_edge, 2.0)


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_are_frozen(name):
    build, expected = RECORDS[name]
    record = build()
    field = expected.partition("(")[2].split("=")[0]  # the first field, as the repr names it
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        record.extra = 1


@pytest.mark.parametrize("name", list(RECORDS))
@pytest.mark.parametrize("clone", [
    lambda record: pickle.loads(pickle.dumps(record)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(name, clone):
    record = RECORDS[name][0]()
    restored = clone(record)
    assert type(restored) is type(record)
    assert repr(restored) == repr(record)
    if name not in WITH_ARRAYS:
        assert restored == record


DRAWN_PROFILES = {
    "pairing": lambda: vacuum.pairing_family(seed=3)(5),
    "uniform": lambda: vacuum.uniform_profile(0.5, 3),
}


@pytest.mark.parametrize("draw", list(DRAWN_PROFILES.values()), ids=list(DRAWN_PROFILES))
@pytest.mark.parametrize("clone", [
    lambda record: pickle.loads(pickle.dumps(record)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_drawn_profile_is_the_record_over_its_u(draw, clone):
    # a profile that draws its U_k when read prints, pickles and copies as one built over them, bit for bit
    built = vacuum.BogoliubovProfile(draw().u)
    assert repr(draw()) == repr(built)
    assert pickle.dumps(draw()) == pickle.dumps(built)
    restored, twin = clone(draw()), clone(built)
    assert type(restored) is vacuum.BogoliubovProfile and repr(restored) == repr(twin)
    assert (restored.mode_count, restored.u.tobytes()) == (twin.mode_count, built.u.tobytes())


@pytest.mark.parametrize("draw", list(DRAWN_PROFILES.values()), ids=list(DRAWN_PROFILES))
def test_a_drawn_profile_compares_and_hashes_as_a_record_of_an_array(draw):
    # as a tuple of arrays does: == of more than one mode is ambiguous, and an array is unhashable
    with pytest.raises(ValueError, match="ambiguous"):
        draw() == draw()
    with pytest.raises(TypeError, match="unhashable"):
        hash(draw())


@pytest.mark.parametrize("rows", [None, STREAMED_ROWS], ids=["bundled", "perturbed"])
def test_fast_path_records_equal_their_constructors_twins(tmp_path, rows):
    # the loader's SaltRecord and context_for_salt's context skip the constructors; _si holds what formulas read
    path = materials._BUNDLED_PATH
    if rows is not None:
        path = tmp_path / "salts.csv"
        write_perturbed_salts(path, rows)
    records = materials.load_salts(path)
    assert len(records) == (rows or 16)
    for rec in records:
        twin = materials.SaltRecord(rec.name, rec.cation, rec.anion, rec.mass_density, rec.lattice_edge,
                                    rec.water_per_ion, rec.ref_tau1, rec.ref_tau2)
        assert (rec, repr(rec), rec._si) == (twin, repr(twin), twin._si)
        for temperature, ion_count in ((core.DEFAULT_TEMPERATURE, core.DEFAULT_ION_COUNT),
                                       (Quantity(77.0, TEMPERATURE), 1)):
            ctx = core.context_for_salt(rec, temperature, ion_count)
            twin = core.DecoherenceContext(rec.cation.mass, temperature, materials.number_density(rec),
                                           rec.lattice_edge, ion_count)
            assert (ctx, repr(ctx), ctx._si) == (twin, repr(twin), twin._si)


def test_thermal_energy_is_derived_but_not_a_field():
    ctx = RECORDS["DecoherenceContext"][0]()
    assert ctx.thermal_energy == units.CODATA.k_B * ctx.temperature
    assert "thermal_energy" not in repr(ctx)
    assert copy.deepcopy(ctx).thermal_energy == ctx.thermal_energy
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.thermal_energy = ctx.temperature


@pytest.mark.parametrize("args, kwargs", [
    ((0.5, 0.25, 1.0, 0.75), {}),
    ((0.5, 0.25, 1.0, 0.75, 0.0, 1.0), {}),
    ((0.5, 0.25, 1.0, 0.75), {"min_eigenvalue": 0.0, "time": 0.5}),
    ((), {"time": 0.5, "coherence": 0.25, "trace": 1.0, "purity": 0.75, "extra": 0.0}),
], ids=["missing", "too-many", "repeated", "unknown"])
def test_constructor_rejects_a_wrong_field_set(args, kwargs):
    with pytest.raises(TypeError, match="SimSample"):
        densmat.SimSample(*args, **kwargs)


def test_keyword_and_positional_construction_agree():
    assert densmat.SimSample(0.5, 0.25, trace=1.0, min_eigenvalue=0.0, purity=0.75) == densmat.SimSample(
        0.5, 0.25, 1.0, 0.75, 0.0
    )
