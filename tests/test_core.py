import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iondecoh import core
from iondecoh.errors import DimensionError, ValidationError
from iondecoh.materials import IonSpecies, SaltRecord, bundled_salt_database, number_density, salt_by_name
from iondecoh.units import (
    CODATA,
    MASS,
    NUMBER_DENSITY,
    SPEED,
    TIME,
    Quantity,
    length_angstrom,
    length_m,
    mass_density_kg_m3,
    mass_amu,
    number_density_per_m3,
    rate_per_s,
    temperature_kelvin,
    time_s,
    _Formula,
)


@pytest.fixture(scope="module")
def nacl_ctx():
    return core.context_for_salt(salt_by_name(bundled_salt_database(), "NaCl"))


def make_ctx(mass_amu_value=22.990, temperature=310.0, density=2.228819610591948e28,
             ion_count=1e23, lattice_edge=length_m(5.64e-10)):
    return core.DecoherenceContext(
        ion_mass=mass_amu(mass_amu_value),
        temperature=temperature_kelvin(temperature),
        bath_density=number_density_per_m3(density),
        ion_count=ion_count,
        lattice_edge=lattice_edge,
    )


def test_de_broglie_wavelength_sodium(nacl_ctx):
    lam = core.de_broglie_wavelength(nacl_ctx)
    assert lam.si == pytest.approx(2.992808158860304e-11, rel=1e-12)
    assert 0.28e-10 <= lam.si <= 0.32e-10


def test_de_broglie_scaling():
    base = core.de_broglie_wavelength(make_ctx()).si
    assert core.de_broglie_wavelength(make_ctx(mass_amu_value=4 * 22.990)).si == pytest.approx(
        base / 2.0, rel=1e-12
    )
    assert core.de_broglie_wavelength(make_ctx(temperature=4 * 310.0)).si == pytest.approx(
        base / 2.0, rel=1e-12
    )


def test_thermal_speed(nacl_ctx):
    v = core.thermal_speed(nacl_ctx)
    assert v.si == pytest.approx(334.8331538650779, rel=1e-12)
    assert core.thermal_speed(make_ctx(temperature=4 * 310.0)).si == pytest.approx(
        2 * v.si, rel=1e-12
    )
    assert core.thermal_speed(make_ctx(mass_amu_value=4 * 22.990)).si == pytest.approx(
        v.si / 2, rel=1e-12
    )


def test_cross_section_value_and_mass_independence(nacl_ctx):
    sigma = core.coulomb_cross_section(nacl_ctx)
    assert sigma.si == pytest.approx(2.9055906780916585e-15, rel=1e-12)
    heavy = core.coulomb_cross_section(make_ctx(mass_amu_value=207.2))
    assert heavy.si == pytest.approx(sigma.si, rel=1e-15)
    hot = core.coulomb_cross_section(make_ctx(temperature=620.0))
    assert hot.si == pytest.approx(sigma.si / 4.0, rel=1e-12)


def test_scattering_rate_value_and_linearity(nacl_ctx):
    rate = core.scattering_rate(nacl_ctx)
    assert rate.si == pytest.approx(2.1683920552103244e16, rel=1e-12)
    double_n = core.scattering_rate(make_ctx(density=2 * 2.228819610591948e28))
    assert double_n.si == pytest.approx(2 * rate.si, rel=1e-12)


def test_tau1_anchor(nacl_ctx):
    t1 = core.tau1(nacl_ctx)
    assert t1.si == pytest.approx(4.6117121560058674e-40, rel=1e-12)
    assert t1.si == pytest.approx(4.6e-40, rel=0.02)
    rate = core.scattering_rate(nacl_ctx)
    assert t1.si * nacl_ctx.ion_count * rate.si == pytest.approx(1.0, rel=1e-12)


def test_tau2_anchor(nacl_ctx):
    t2 = core.tau2(nacl_ctx)
    assert t2.si == pytest.approx(4.407581031621567e-38, rel=1e-12)
    assert t2.si == pytest.approx(4.4e-38, rel=0.02)


def test_tau_ratio_independent_of_mass_and_density():
    ratios = set()
    for m, n in ((22.990, 2.2e28), (132.905, 4.5e27), (207.2, 9.9e28)):
        ctx = make_ctx(mass_amu_value=m, density=n)
        ratios.add(round(core.tau2(ctx).si / core.tau1(ctx).si, 6))
    assert len(ratios) == 1


def test_tau_scaling_laws():
    base = make_ctx()
    t1, t2 = core.tau1(base).si, core.tau2(base).si
    heavier = make_ctx(mass_amu_value=4 * 22.990)
    assert core.tau1(heavier).si == pytest.approx(2 * t1, rel=1e-12)
    assert core.tau2(heavier).si == pytest.approx(2 * t2, rel=1e-12)
    bigger_ensemble = make_ctx(ion_count=1e24)
    assert core.tau1(bigger_ensemble).si == pytest.approx(t1 / 10, rel=1e-12)
    wider = make_ctx(lattice_edge=length_m(2 * 5.64e-10))
    assert core.tau2(wider).si == pytest.approx(t2 / 2, rel=1e-12)
    assert core.tau1(wider).si == pytest.approx(t1, rel=1e-15)


def test_context_validation():
    with pytest.raises(ValidationError):
        make_ctx(temperature=-1.0)
    with pytest.raises(ValidationError):
        make_ctx(ion_count=0.5)
    with pytest.raises(ValidationError, match="lattice_edge must be positive"):
        make_ctx(lattice_edge=length_m(0.0))
    with pytest.raises(DimensionError):
        core.DecoherenceContext(
            ion_mass=time_s(1.0),
            temperature=temperature_kelvin(310.0),
            bath_density=number_density_per_m3(1e28),
            lattice_edge=length_m(5.64e-10),
        )
    with pytest.raises(DimensionError):
        make_ctx(lattice_edge=time_s(1.0))


@pytest.mark.parametrize("temperature", [1e-310, 1e-320])
def test_context_rejects_a_temperature_whose_thermal_energy_underflows(temperature):
    message = f"temperature {temperature!r} K is too low: k_B T underflows to 0.0 J"
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_ctx(temperature=temperature)


BELOW_NORMAL = "the product under its square root is below the smallest normal double"


@pytest.mark.parametrize("temperature, label", [
    (1e-300, "tau1"), (1e-100, "tau1"), (1e-80, "tau1"), (1e-300, "tau2"),
])
def test_underflowing_decoherence_time_rejected(temperature, label):
    # m (kT)^3 or m kT underflows to 0.0 before tau does
    ctx = make_ctx(temperature=temperature)
    message = f"temperature {temperature!r} K is too low for {label}: {BELOW_NORMAL}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        getattr(core, label)(ctx)


@pytest.mark.parametrize("temperature, label", [
    (1e-72, "tau1"), (1e-76, "tau1"), (1e-270, "tau2"),
])
def test_subnormal_product_under_the_square_root_rejected(temperature, label):
    # m (kT)^3 or m kT below the smallest normal double has lost bits: at
    # 1e-76 K tau1 would come out 0.8% off, at 1e-270 K tau2 4.4e-7 off
    message = f"temperature {temperature!r} K is too low for {label}: {BELOW_NORMAL}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        getattr(core, label)(make_ctx(temperature=temperature))


@pytest.mark.parametrize("ion_count", [0.5, math.nan, math.inf, -math.inf])
def test_context_rejects_an_ion_count_outside_one_to_infinity(ion_count):
    nacl = salt_by_name(bundled_salt_database(), "NaCl")
    message = f"ion_count must be finite and at least 1, got {ion_count!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        core.context_for_salt(nacl, ion_count=ion_count)


@pytest.mark.parametrize("ion_count", [10 ** 400, 2 ** 1024], ids=["10**400", "2**1024"])
def test_context_rejects_an_integer_ion_count_above_the_largest_double(ion_count):
    nacl = salt_by_name(bundled_salt_database(), "NaCl")
    message = "ion_count must be at most the largest double, got a larger integer"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        core.context_for_salt(nacl, ion_count=ion_count)


@pytest.mark.parametrize("label, ctx_args", [
    ("tau1", {"temperature": 1e150}),  # (kT)^3 overflows
    ("tau1", {"mass_amu_value": 1e308, "density": 1e-200}),  # the quotient overflows
    ("tau2", {"mass_amu_value": 1e308, "density": 1e-200}),
    ("tau2", {"density": 1e-320}),  # the denominator underflows to 0.0
])
def test_decoherence_time_outside_the_double_range_is_named(label, ctx_args):
    ctx = make_ctx(**ctx_args)
    message = f"{label} leaves the double range at temperature {ctx.temperature.si!r} K"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        getattr(core, label)(ctx)


@pytest.mark.parametrize("label", ["tau1", "tau2"])
def test_an_overflowing_denominator_names_the_ion_count(label):
    # N n overflows; the product under the root is a normal double
    message = f"{label} leaves the double range at ion_count 1e+300: its denominator overflows"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        getattr(core, label)(make_ctx(ion_count=1e300))


@pytest.mark.parametrize("label", ["tau1", "tau2"])
def test_an_integer_ion_count_is_quoted_as_a_float(label):
    nacl = salt_by_name(bundled_salt_database(), "NaCl")
    message = f"{label} leaves the double range at ion_count 8.98846567431158e+307: its denominator overflows"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        getattr(core, label)(core.context_for_salt(nacl, ion_count=2 ** 1023))


@pytest.mark.parametrize("cation_kg, density, per_m3", [(1e308, 2163.0, "0.0"), (1e-300, 1e300, "inf")],
                         ids=["formula-mass-overflows", "quotient-overflows"])
def test_context_rejects_a_number_density_outside_the_double_range(cation_kg, density, per_m3):
    # the record itself fails to build, so no context can be made from it
    ion = IonSpecies("Na+", Quantity(cation_kg, MASS), 1)
    message = f"Big: number density {per_m3} m^-3 is not a positive normal double"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SaltRecord("Big", ion, ion, mass_density_kg_m3(density), length_angstrom(5.64))


def test_a_body_of_the_wrong_dimension_fails_its_proof():
    with pytest.raises(DimensionError, match=re.escape("thermal speed must have dimension [m·s⁻¹], got [m²·s⁻²]")):
        _Formula("thermal speed", SPEED, core._OPERAND_DIMS, lambda c, m, kT, n, a, N: kT / m,
                 core._AT_TEMPERATURE)
    with pytest.raises(DimensionError, match=r"^tau1 must have dimension \[s\], got "):
        core._Time("tau1", lambda c, m, kT, n, a, N: m * kT ** 3, lambda c, m, kT, n, a, N: N * n)


# each public formula and the formula record whose body it runs
FORMULAS = {
    core.de_broglie_wavelength: core._WAVELENGTH,
    core.thermal_speed: core._SPEED,
    core.coulomb_cross_section: core._CROSS_SECTION,
    core.scattering_rate: core._RATE,
    core.tau1: core._TAU1,
    core.tau2: core._TAU2,
}
EDGES = [5e-324, sys.float_info.min, 1.0, sys.float_info.max]
SUBNORMAL_PRODUCT = "the product under its square root is below the smallest normal double"


def wide(low, high):
    """An edge of the double range, or 10**k for k in [low, high]."""
    return st.one_of(st.sampled_from(EDGES), st.floats(low, high).map(lambda k: 10.0 ** k))


AMU = CODATA.amu.si


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(density=wide(-323, 308), cation_kg=wide(-323, 308), anion_kg=wide(-323, 308))
@example(density=2.3e-308, cation_kg=1e300 * AMU, anion_kg=1e300 * AMU)  # n underflows to 0.0
@example(density=1e308, cation_kg=AMU, anion_kg=AMU)  # n overflows
@example(density=2163.0, cation_kg=sys.float_info.max, anion_kg=1.0)  # the formula mass overflows
@example(density=1e-300, cation_kg=1e10, anion_kg=1e10)  # n is subnormal
def test_a_record_builds_only_with_a_positive_normal_number_density(density, cation_kg, anion_kg):
    per_m3 = density / (cation_kg + anion_kg)  # the number density body over SI floats
    try:
        record = SaltRecord("Salt", IonSpecies("Na+", Quantity(cation_kg, MASS), 1),
                            IonSpecies("Cl-", Quantity(anion_kg, MASS), -1),
                            mass_density_kg_m3(density), length_angstrom(5.64))
    except ValidationError as exc:
        assert str(exc) == f"Salt: number density {per_m3!r} m^-3 is not a positive normal double"
        assert not sys.float_info.min <= per_m3 <= sys.float_info.max
        return
    n = number_density(record)
    assert n.dim is NUMBER_DENSITY and n.si.hex() == per_m3.hex()
    assert sys.float_info.min <= n.si <= sys.float_info.max
    # the context reads n as the record holds it, and has no check of its own left to fail
    assert core.context_for_salt(record).bath_density == n


def _outcome(call):
    """The float a call returns, as its exact bits, or the class and message of what it raised."""
    try:
        return call().hex()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(m=wide(-308, 308), temperature=wide(-310, 308), n=wide(-323, 308), a=wide(-323, 308),
       ion_count=st.one_of(st.sampled_from([1.0, sys.float_info.max]), st.floats(0, 308).map(lambda k: 10.0 ** k)))
@example(m=3.8e-26, temperature=310.0, n=2.2e28, a=5.64e-10, ion_count=1e300)  # N n overflows
@example(m=3.8e-26, temperature=1e150, n=2.2e28, a=5.64e-10, ion_count=1e23)  # (kT)^3 overflows
@example(m=3.8e-26, temperature=310.0, n=1e-320, a=5.64e-10, ion_count=1e23)  # a denominator underflows to 0.0
@example(m=3e-308, temperature=1e-300, n=2.2e28, a=5.64e-10, ion_count=1.0)  # 3 m kT underflows to 0.0
@example(m=1e308, temperature=1e300, n=2.2e28, a=5.64e-10, ion_count=1.0)  # 3 m kT overflows
@example(m=3e-308, temperature=1e300, n=2.2e28, a=5.64e-10, ion_count=1.0)  # kT / m overflows
def test_float_path_equals_the_carrier_path_bit_for_bit(m, temperature, n, a, ion_count):
    try:
        ctx = core.DecoherenceContext(Quantity(m, MASS), temperature_kelvin(temperature),
                                      number_density_per_m3(n), length_m(a), ion_count)
    except ValidationError:
        assume(False)
    for public, formula in FORMULAS.items():
        floats = _outcome(lambda: public(ctx).si)
        checked = _outcome(lambda: formula.over_quantities(ctx._si).si)
        if isinstance(checked, tuple):  # Quantity arithmetic rejects what the formula rejects
            assert isinstance(floats, tuple) and floats[0] is ValidationError, public.__name__
        elif isinstance(formula, core._Time) and isinstance(floats, tuple):
            # a time also rejects a product under its root that is not a normal double, and 0.0
            assert floats[1].endswith((SUBNORMAL_PRODUCT, f"underflows to 0.0 s at temperature {temperature!r} K"))
        else:  # and the float path gives the bits that the run over Quantities gives
            assert floats == checked, public.__name__


def test_cold_but_representable_decoherence_times_are_kept():
    nacl = salt_by_name(bundled_salt_database(), "NaCl")
    ctx = core.context_for_salt(nacl, temperature=temperature_kelvin(1e-60))
    assert core.tau1(ctx).si == 8.449279016595415e-134
    assert core.tau2(ctx).si == 2.5033378073123554e-69


def test_factor_is_one_at_zero_separation():
    assert core.decoherence_factor(length_m(0.0), time_s(1e-15), length_m(3e-11), rate_per_s(2e16)) == 1.0


def test_factor_is_one_at_zero_time():
    assert core.decoherence_factor(length_m(1e-9), time_s(0.0), length_m(3e-11), rate_per_s(2e16)) == 1.0


def test_factor_saturated_branch():
    lam, rate, t = length_m(3e-11), rate_per_s(2e15), time_s(1e-15)
    f = core.decoherence_factor(length_m(100 * lam.si), t, lam, rate)
    assert f == pytest.approx(math.exp(-rate.si * t.si), rel=1e-12)


def test_factor_gaussian_branch():
    lam, rate, t = length_m(3e-11), rate_per_s(2e15), time_s(1e-15)
    dx = length_m(lam.si / 100)
    f = core.decoherence_factor(dx, t, lam, rate)
    expected_exponent = -rate.si * t.si * 0.5 * (dx.si / lam.si) ** 2
    assert math.log(f) == pytest.approx(expected_exponent, rel=1e-4)


def test_factor_semigroup_in_time():
    lam, rate = length_m(3e-11), rate_per_s(2e15)
    dx = length_m(4.2e-11)
    f_a = core.decoherence_factor(dx, time_s(3e-16), lam, rate)
    f_b = core.decoherence_factor(dx, time_s(7e-16), lam, rate)
    f_ab = core.decoherence_factor(dx, time_s(1e-15), lam, rate)
    assert f_a * f_b == pytest.approx(f_ab, rel=1e-12)


def test_factor_randomized_properties():
    rng = np.random.default_rng(7)
    for _ in range(500):
        lam = length_m(10.0 ** rng.uniform(-12, -9))
        rate = rate_per_s(10.0 ** rng.uniform(12, 18))
        t = time_s(10.0 ** rng.uniform(-18, -14))
        dx = length_m(lam.si * 10.0 ** rng.uniform(-3, 3))
        f = core.decoherence_factor(dx, t, lam, rate)
        assert math.exp(-rate.si * t.si) <= f <= 1.0
        assert f == core.decoherence_factor(length_m(-dx.si), t, lam, rate)
        later = core.decoherence_factor(dx, time_s(t.si * 1.5), lam, rate)
        assert later <= f
        wider = core.decoherence_factor(length_m(dx.si * 1.5), t, lam, rate)
        assert wider <= f


def test_factor_input_validation():
    lam, rate = length_m(3e-11), rate_per_s(2e15)
    with pytest.raises(ValidationError):
        core.decoherence_factor(length_m(1e-10), time_s(-1e-18), lam, rate)
    with pytest.raises(ValidationError):
        core.decoherence_factor(length_m(1e-10), time_s(1e-18), length_m(0.0), rate)
    with pytest.raises(DimensionError):
        core.decoherence_factor(time_s(1e-10), time_s(1e-18), lam, rate)
    # rate * time overflows to inf; at dx = 0 that would give inf * 0 = nan
    for dx in (0.0, 1e-10):
        with pytest.raises(ValidationError, match="finite"):
            core.decoherence_factor(length_m(dx), time_s(1e300), lam, rate_per_s(1e300))


def test_every_public_name_resolves():
    import iondecoh

    assert len(set(iondecoh.__all__)) == len(iondecoh.__all__)
    for name in iondecoh.__all__:
        assert getattr(iondecoh, name) is not None, name


def _traced_layers():
    # the benchmark's traced run wraps each name in perfbench/spans.py LAYERS
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_name_resolves():
    import importlib

    for layer, names in _traced_layers().items():
        module = importlib.import_module(f"iondecoh.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"iondecoh.{layer}.{name}"


def test_cli_import_loads_every_traced_layer_and_no_numpy():
    # a traced run looks each layer up in sys.modules right after importing the CLI
    import json
    import subprocess
    import sys

    script = "import json, sys\nimport iondecoh.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    loaded = set(json.loads(result.stdout))
    assert {f"iondecoh.{layer}" for layer in _traced_layers()} <= loaded
    assert "numpy" not in loaded


def test_all_timescale_outputs_have_time_dimension(nacl_ctx):
    from iondecoh.units import TIME

    assert core.tau1(nacl_ctx).dim == TIME
    assert core.tau2(nacl_ctx).dim == TIME
