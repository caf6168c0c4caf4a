"""The frozen records: repr, ==, hash, immutability, pickle and copy.

Each expected repr is the one the records printed when they were frozen
dataclasses, so the printed form of every record is part of the contract.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from iondecoh import core, densmat, materials, regimes, units, vacuum
from iondecoh.units import LENGTH, MASS, MASS_DENSITY, NUMBER_DENSITY, TEMPERATURE, TIME, Quantity


def q(si, exponents):
    return f"Quantity(si={si}, dim=Dimension(exponents={exponents}))"


KG, M, S, K = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
ION_X = materials.IonSpecies("X+", Quantity(1.0, MASS), 1)
ION_Y = materials.IonSpecies("Y-", Quantity(2.0, MASS), -1)
EYE = "array([[1., 0.],\n       [0., 1.]])"

# name -> (build, repr)
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
    "DecoherenceContext": (
        lambda: core.DecoherenceContext(Quantity(1.0, MASS), Quantity(2.0, TEMPERATURE),
                                        Quantity(3.0, NUMBER_DENSITY), Quantity(4.0, LENGTH)),
        f"DecoherenceContext(ion_mass={q(1.0, KG)}, temperature={q(2.0, K)}, "
        f"bath_density={q(3.0, (0, -3, 0, 0, 0))}, lattice_edge={q(4.0, M)}, ion_count=1e+23)"),
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
    "PhysicalConstants": (
        lambda: units.CODATA,
        f"PhysicalConstants(hbar={q(1.0545718176461565e-34, (1, 2, -1, 0, 0))}, "
        f"k_B={q(1.380649e-23, (1, 2, -2, -1, 0))}, q_e={q(1.602176634e-19, (0, 0, 0, 0, 1))}, "
        f"coulomb_g={q(8987551786.170797, (1, 3, -2, 0, -2))}, amu={q(1.66053906892e-27, KG)}, "
        f"c={q(299792458.0, (0, 1, -1, 0, 0))})"),
}
# records that hold numpy arrays are unhashable, as a tuple of arrays is
WITH_ARRAYS = {"ReducedDensityMatrix", "BogoliubovProfile"}


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    build, expected = RECORDS[name]
    assert type(build()).__name__ == name
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
    field = expected[len(name) + 1:].split("=")[0]  # the first field, as the repr names it
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
