import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants as codata

from iondecoh import units
from iondecoh.errors import DimensionError


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


def test_quantities_are_immutable():
    q = units.length_m(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.si = 2.0


def test_ratio_and_require():
    assert units.length_m(3.0).ratio(units.length_m(2.0)) == 1.5
    with pytest.raises(DimensionError):
        units.length_m(3.0).ratio(units.time_s(2.0))
    with pytest.raises(DimensionError):
        units.length_m(3.0).require(units.TIME, "elapsed time")


def test_dimension_rendering():
    assert str(units.ENERGY) == "kg·m²·s⁻²"
    assert str(units.DIMENSIONLESS) == "1"


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
