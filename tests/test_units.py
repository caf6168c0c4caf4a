import copy
import dataclasses
import itertools
import math
import pickle
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants as codata

from iondecoh import core, materials, regimes, units
from iondecoh.errors import DimensionError, ValidationError
from iondecoh.materials import bundled_salt_database, number_density, salt_by_name


def test_amu_to_kg_matches_codata():
    assert units.mass_amu(22.990).si == pytest.approx(3.81757931944708e-26, rel=1e-12)
    assert units.mass_amu(22.990).si == pytest.approx(3.81754e-26, rel=1e-4)
    assert units.mass_amu(22.990).dim == units.MASS


def test_angstrom_to_m():
    assert units.length_angstrom(5.64).si == pytest.approx(5.64e-10, rel=1e-15)
    assert units.length_angstrom(0.0).si == 0.0


finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


exponents = st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(5)))


@given(exponents, exponents)
def test_dimension_algebra(a, b):
    da, db = units.Dimension(a), units.Dimension(b)
    assert (da * db).exponents == tuple(x + y for x, y in zip(a, b))
    assert (da / db).exponents == tuple(x - y for x, y in zip(a, b))
    assert (da ** 2).root(2) == da
    assert da * units.DIMENSIONLESS == da


@given(exponents, finite, finite)
def test_quantity_mul_div_compose_dimensions(exps, x, y):
    q = units.Quantity(x, units.Dimension(exps))
    r = units.Quantity(y, units.SPEED)
    assert (q * r).dim == units.Dimension(exps) * units.SPEED
    assert (q / r).dim == units.Dimension(exps) / units.SPEED
    assert (q * r).si == pytest.approx(x * y, rel=1e-15)


def test_addition_requires_matching_dimensions():
    with pytest.raises(DimensionError):
        units.length_m(1.0) + units.time_s(1.0)
    total = units.length_m(1.0) + units.length_angstrom(1.0)
    assert total.si == pytest.approx(1.0 + 1e-10)
    assert units.length_m(1.0) - units.length_m(0.25) == -units.length_m(-0.75) == units.length_m(0.75)
    # an operand that is not a Quantity or a number is left to Python, which raises TypeError
    for operation in (lambda q: q + 1, lambda q: q - 1, lambda q: q * None, lambda q: None * q,
                      lambda q: q / None, lambda q: None / q):
        with pytest.raises(TypeError):
            operation(units.Quantity(1.0))


def test_comparison_requires_matching_dimensions():
    with pytest.raises(DimensionError):
        units.length_m(1.0) < units.time_s(1.0)
    assert units.length_angstrom(1.0) < units.length_m(1.0)


def test_sqrt_dimension_rules():
    area = units.length_m(9.0) * units.length_m(4.0)
    side = area.sqrt()
    assert side.dim == units.LENGTH
    assert side.si == 6.0
    with pytest.raises(DimensionError):
        units.length_m(4.0).sqrt()
    with pytest.raises(ValueError):
        (units.length_m(-1.0) * units.length_m(1.0)).sqrt()


def test_non_finite_magnitudes_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            units.Quantity(bad)


def test_overflow_and_zero_divisor_raise_the_finite_magnitude_error():
    cases = (
        lambda: units.Quantity(1e200) ** 2,
        lambda: units.Quantity(0.0) ** -1,
        lambda: units.Quantity(1.0) / units.Quantity(0.0),
        lambda: units.Quantity(1.0) / 0.0,
        lambda: 1.0 / units.Quantity(0.0),
        # an int no double holds: float division raises OverflowError
        lambda: units.time_s(1.0) / 10**400,
        lambda: 10**400 / units.time_s(1.0),
    )
    for case in cases:
        with pytest.raises(ValueError, match="quantity magnitude must be finite"):
            case()


def test_quantities_are_immutable():
    q = units.length_m(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.si = 2.0


@pytest.mark.parametrize("target, field, value", [
    (units.length_m(1.0), "si", 2.0),
    (units.length_m(1.0), "dim", units.TIME),
    (units.LENGTH, "exponents", (0, 0, 1, 0, 0)),
])
def test_fields_cannot_be_assigned(target, field, value):
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(target, field, value)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(target, field)


@given(exponents)
def test_dimensions_are_interned(exps):
    assert units.Dimension(exps) is units.Dimension(exps)
    assert units.Dimension(list(exps)) is units.Dimension(exps)
    assert units.Dimension(exps) * units.DIMENSIONLESS is units.Dimension(exps)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_value_and_interned_dimension(clone):
    q = units.Quantity(2.5, units.ENERGY)
    c = clone(q)
    assert c == q and hash(c) == hash(q)
    assert c.dim is units.ENERGY
    assert clone(units.ENERGY) is units.ENERGY


def test_equality_hash_and_repr():
    q = units.length_m(1.5)
    assert q == units.Quantity(1.5, units.LENGTH) and hash(q) == hash(units.Quantity(1.5, units.LENGTH))
    assert q != units.time_s(1.5) and q != 1.5
    assert repr(q) == "Quantity(si=1.5, dim=Dimension(exponents=(0, 1, 0, 0, 0)))"


@pytest.mark.parametrize("operation, message", [
    (lambda: units.length_m(1.0) + units.time_s(1.0), "cannot add [m] and [s]"),
    (lambda: units.length_m(1.0) - units.time_s(1.0), "cannot subtract [m] and [s]"),
    (lambda: units.length_m(1.0) < units.time_s(1.0), "cannot compare [m] and [s]"),
    (lambda: units.length_m(3.0).require(units.TIME, "elapsed time"),
     "elapsed time must have dimension [s], got [m]"),
    (lambda: units.length_m(4.0).sqrt(), "cannot take 2th root of dimension m"),
    (lambda: units.length_m(4.0) ** 0.5, "dimension exponent must be an integer, got 0.5"),
], ids=["add", "subtract", "compare", "require", "root", "non-integer-power"])
def test_dimension_error_messages(operation, message):
    with pytest.raises(DimensionError) as info:
        operation()
    assert str(info.value) == message


FORMULAS = (core.de_broglie_wavelength, core.scattering_rate, core.tau1, core.tau2)


def _counting(monkeypatch, cls, name):
    """Count the calls of cls.name from here on; the list holds one item per call."""
    calls, original = [], getattr(cls, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_warm_formulas_create_no_dimension(monkeypatch):
    # the formulas' dimensions are proved at import; a call composes none
    pbs = salt_by_name(bundled_salt_database(), "PbS")
    created = _counting(monkeypatch, units.Dimension, "__new__")
    ctx = core.context_for_salt(pbs, units.temperature_kelvin(300.0), 1e20)
    results = [formula(ctx) for formula in FORMULAS]
    assert [q.dim for q in results] == [units.LENGTH, units.RATE, units.TIME, units.TIME]
    assert created == []


def test_each_formula_builds_one_quantity_its_result(monkeypatch):
    records = bundled_salt_database()
    ctx = core.context_for_salt(salt_by_name(records, "NaCl"))
    built = _counting(monkeypatch, units.Quantity, "__init__")
    for formula in (*FORMULAS, core.thermal_speed, core.coulomb_cross_section):
        built.clear()
        result = formula(ctx)
        assert [args[0] for args in built] == [result], formula.__name__
    # the context keeps the record's SI floats and builds no Quantity; its fields build theirs when read
    kbr = salt_by_name(records, "KBr")
    built.clear()
    ctx = core.context_for_salt(kbr)
    assert built == []
    assert (ctx.ion_mass, ctx.bath_density, ctx.lattice_edge) == (kbr.cation.mass, number_density(kbr), kbr.lattice_edge)


def test_ratio_and_require():
    assert units.length_m(3.0).ratio(units.length_m(2.0)) == 1.5
    with pytest.raises(DimensionError):
        units.length_m(3.0).ratio(units.time_s(2.0))
    with pytest.raises(DimensionError):
        units.length_m(3.0).require(units.TIME, "elapsed time")


def test_dimension_rendering():
    assert str(units.ENERGY) == "kg·m²·s⁻²"
    assert str(units.DIMENSIONLESS) == "1"
    assert str(units.Quantity(2.0, units.LENGTH)) == "2 m"
    assert str(units.Quantity(0.5)) == "0.5"


def test_codata_constants_match_scipy_bit_for_bit():
    assert units.CODATA.hbar.si == codata.hbar
    assert units.CODATA.k_B.si == codata.k
    assert units.CODATA.q_e.si == codata.e
    assert units.CODATA.amu.si == codata.atomic_mass
    assert units.CODATA.c.si == codata.c
    assert units.CODATA.coulomb_g.si == 1.0 / (4.0 * math.pi * codata.epsilon_0)


def test_codata_constant_dimensions():
    assert units.CODATA.hbar.dim == units.ENERGY * units.TIME
    assert units.CODATA.k_B.dim == units.ENERGY / units.TEMPERATURE
    # g q_e^2 is an energy times a length
    coupling = units.CODATA.coulomb_g * units.CODATA.q_e ** 2
    assert coupling.dim == units.ENERGY * units.LENGTH
    assert coupling.si == pytest.approx(2.307077550778355e-28, rel=1e-12)


def _formulas():
    """Every _Formula the package builds, found by scanning the modules that build them."""
    return [value for module in (core, materials, regimes) for value in vars(module).values()
            if isinstance(value, units._Formula)]


def test_every_formula_is_found_and_proved_at_import():
    found = _formulas()
    assert sorted(formula.label for formula in found) == sorted([
        "de Broglie wavelength", "thermal speed", "cross section", "scattering rate", "tau1", "tau2",
        "number density", "implied density", "implied spacing", "wavelength_x", "timescale ratio"])
    for formula in found:  # building a formula ran this proof; it still holds
        assert formula.over_quantities((1.0,) * len(formula.operand_dims)).dim is formula.dim, formula.label


EDGE_OPERANDS = [5e-324, sys.float_info.min, 1.0, 3.0e-26, sys.float_info.max]


def _si_or_none(formula, operands):
    """formula.si at the operands, or None where it rejects them."""
    try:
        return formula.si(operands, "the edge")
    except ValidationError:
        return None


@pytest.mark.parametrize("formula", _formulas(), ids=lambda formula: formula.label)
def test_the_float_run_equals_the_quantity_run_bit_for_bit(formula):
    # at every edge operand: where the Quantity run gives a value, the float
    # run gives its bits, and si gives them or rejects them; where the
    # Quantity run raises, si rejects the operands too
    kept = 0
    for operands in itertools.product(EDGE_OPERANDS, repeat=len(formula.operand_dims)):
        try:
            checked = formula.over_quantities(operands)
        except ValueError:  # Quantity's constructor rejects a magnitude that is not finite
            checked = None
        value = _si_or_none(formula, operands)
        if checked is None:
            # an overflowing density makes the spacing 0.0; xray_consistency rejects that density first
            assert value is None or formula is regimes._SPACING and _si_or_none(regimes._DENSITY, operands) is None
            continue
        assert checked.dim is formula.dim
        assert units._over_floats(formula.body, operands).hex() == checked.si.hex(), operands
        if value is not None:
            assert value.hex() == checked.si.hex(), operands
            kept += 1
    assert kept > 0


XRAY_OPERANDS = (units.MASS_DENSITY, units.MASS, units.TIME, units.TIME)


@pytest.mark.parametrize("label, dim, operand_dims, body, message", [
    ("implied density", units.MASS_DENSITY, XRAY_OPERANDS, lambda c, rho, m, t1, tx: rho * t1 * tx,
     "implied density must have dimension [kg·m⁻³], got [kg·m⁻³·s²]"),
    ("implied spacing", units.LENGTH, XRAY_OPERANDS, lambda c, rho, m, t1, tx: c.cbrt(m * rho * t1 / tx),
     "cannot take 3th root of dimension kg²·m⁻³"),
    ("number density", units.NUMBER_DENSITY, (units.MASS_DENSITY, units.MASS, units.MASS),
     lambda c, density, cation_kg, anion_kg: density * (cation_kg + anion_kg),
     "number density must have dimension [m⁻³], got [kg²·m⁻³]"),
], ids=["xray-density", "xray-spacing", "number-density"])
def test_a_body_of_the_wrong_dimension_fails_its_proof_at_build(label, dim, operand_dims, body, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        units._Formula(label, dim, operand_dims, body, "{label} at {at}")
