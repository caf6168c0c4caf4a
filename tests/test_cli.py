import json
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import threading

import pytest
from test_readme_corpus import BULK_FLAGS, ROWS, STREAMED_ROWS, write_perturbed_salts

from iondecoh import cli, core, regimes
from iondecoh.materials import SaltRecord, load_salts
from iondecoh.units import CODATA, temperature_kelvin

GOOD_LINE = "NaCl,Na+,22.990,Cl-,35.453,2163,5.64,10,4.6,4.4\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_anchor_row(capsys):
    code, out, err = run_cli(capsys, "table", "--salts", "NaCl", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "name,tau1_1e-40s,tau2_1e-38s,tau1_s,tau2_s"
    assert lines[1].startswith("NaCl,4.6,4.4,")


def test_table_all_order(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert len(names) == 16
    assert names[:4] == ["NaF", "NaCl", "NaBr", "NaI"]
    assert names[-2:] == ["ZnS", "PbS"]


def test_table_selection_keeps_file_order(capsys):
    _, out, _ = run_cli(capsys, "table", "--salts", "PbS,NaCl", "--format", "csv")
    names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert names == ["NaCl", "PbS"]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--salts", "NaCl", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    (entry,) = payload["salts"]
    assert entry["tau1_s"] == pytest.approx(4.6117121560058674e-40, rel=1e-12)
    assert entry["ref_tau1_s"] == pytest.approx(4.6e-40, rel=1e-12)
    assert payload["temperature_k"] == 310.0


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--format", "json")
    _, second, _ = run_cli(capsys, "table", "--format", "json")
    assert first == second


def test_unknown_salt_exits_one_and_lists_names(capsys):
    code, out, err = run_cli(capsys, "table", "--salts", "Kryptonite")
    assert code == 1
    assert out == ""
    assert "valid names" in err and "NaCl" in err


def test_factor_zero_separation(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--salt", "NaCl", "--dx", "0", "--time", "1e-15"
    )
    assert code == 0
    assert "1.0" in out


def test_factor_explicit_wavelength_and_rate(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--wavelength", "3e-11", "--rate", "2e15",
        "--dx", "3e-9", "--time", "1e-15", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["factor"] == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_factor_requires_a_source(capsys):
    code, _, err = run_cli(capsys, "factor", "--dx", "1e-10", "--time", "1e-15")
    assert code == 1
    assert "--salt" in err


def test_sim_emits_time_series(capsys):
    code, out, _ = run_cli(
        capsys, "sim", "--wavelength", "1e-10", "--rate", "1e15",
        "--separation", "1e-8", "--width", "1e-9",
        "--t-total", "3e-15", "--steps", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time_s,coherence,trace,purity,min_eigenvalue"
    assert len(lines) == 7
    final = lines[-1].split(",")
    assert float(final[1]) == pytest.approx(math.exp(-3.0), rel=0.02)
    assert float(final[2]) == pytest.approx(1.0, rel=1e-12)


def test_sim_rejects_unresolvable_grid(capsys):
    code, _, err = run_cli(
        capsys, "sim", "--wavelength", "1e-10", "--rate", "1e15",
        "--separation", "4e-8", "--width", "1e-9", "--t-total", "1e-15",
    )
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_sim_rejects_nonpositive_steps(capsys, steps):
    code, out, err = run_cli(
        capsys, "sim", "--wavelength", "1e-10", "--rate", "1e15",
        "--separation", "1e-8", "--width", "1e-9", "--t-total", "3e-15",
        f"--steps={steps}",
    )
    assert code == 1 and out == ""
    assert err == f"error: steps must be at least 1, got {steps}\n"


def test_xray_output(capsys):
    code, out, _ = run_cli(
        capsys, "xray", "--salt", "NaCl", "--tau-x", "0.5e-18", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["implied_density_kg_m3"] == pytest.approx(1.995026678688138e-18, rel=1e-12)
    assert payload["implied_spacing_m"] == pytest.approx(3.6504322883086997e-3, rel=1e-12)
    assert payload["wavelength_x_m"] == pytest.approx(1.49896229e-10, rel=1e-12)


@pytest.mark.parametrize("argv, wavelength, spacing", [
    (["--tau-x", "1e-320"], 2.997891204653e-312, 9.908760940490737e-104),
    (["--tau-x", "5e-324"], 1.481171544e-315, 7.833379756443932e-105),
    (["--tau-x", "5e-324", "--ion-count", "1e8"], 1.481171544e-315, 0.0),  # the volume underflows to 0.0
], ids=["1e-320", "5e-324", "spacing-underflows"])
def test_xray_keeps_a_subnormal_or_zero_result(capsys, argv, wavelength, spacing):
    code, out, err = run_cli(capsys, "xray", "--salt", "NaCl", *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["wavelength_x_m"], payload["implied_spacing_m"]) == (wavelength, spacing)
    assert payload["wavelength_x_m"] < sys.float_info.min


def test_bcs_uniform(capsys):
    code, out, _ = run_cli(
        capsys, "bcs", "--uniform-u", "0.9", "--modes", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    (point,) = payload["points"]
    assert point["overlap"] == pytest.approx(0.9 ** 100, rel=1e-9)
    assert "decay_rate_per_mode" not in payload  # fewer than three counts


def test_bcs_pairing_slope(capsys):
    code, out, _ = run_cli(
        capsys, "bcs", "--modes", "100,1000,10000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["decay_rate_per_mode"] == pytest.approx(-0.8032293786368829, rel=1e-9)


def test_bcs_builds_each_profile_once(capsys, monkeypatch):
    family = cli.vacuum.pairing_family()
    calls = []

    def counting_family(modes):
        calls.append(modes)
        return family(modes)

    monkeypatch.setattr(cli.vacuum, "pairing_family", lambda *args: counting_family)
    code, out, err = run_cli(capsys, "bcs", "--modes", "1000,10,100", "--format", "json")
    assert (code, err) == (0, "")
    assert calls == [10, 100, 1000]
    # the same fit as the library's overlap_decay_rate, bit for bit
    expected = cli.vacuum.overlap_decay_rate(family, [10, 100, 1000])
    assert json.loads(out)["decay_rate_per_mode"] == expected


def test_bcs_bounds_the_sum_of_its_counts(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_BCS_MODES", 300)
    code, _, err = run_cli(capsys, "bcs", "--modes", "100,200", "--format", "csv")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "bcs", "--modes", "100,201") == (
        1, "", "error: --modes counts sum to 301 modes, above a run's bound of 300\n")


def test_classify_nacl(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--salt", "NaCl", "--tau-dyn", "1.0",
        "--observed-coherence", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "QftRegimeIndicated"
    assert payload["salt"] == "NaCl"


def test_classify_explicit_times(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--tau1", "1e-3", "--tau2", "2e-3", "--tau-dyn", "0.5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "QuantumMechanicsAdequate"


def test_classify_rejects_nan_threshold(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--tau1", "1e-3", "--tau2", "2e-3", "--tau-dyn", "0.5",
        "--threshold", "nan", "--format", "json",
    )
    assert (code, out, err) == (1, "", "error: argument --threshold: 'nan' is not a finite number\n")


def test_output_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "table", "--salts", "NaCl", "--format", "csv", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("name,")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".iondecoh")]
    assert leftovers == []


def test_failed_run_leaves_no_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "table", "--salts", "Kryptonite", "--output", str(target)
    )
    assert code == 1
    assert not target.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--half-bandwidth", "inf", "argument --half-bandwidth: 'inf' is not a finite number"),
    ("--half-bandwidth", "1e308", "2 * half_bandwidth must be finite, got 1e+308"),
    ("--half-bandwidth", "nan", "argument --half-bandwidth: 'nan' is not a finite number"),
    ("--gap", "nan", "gap must be positive, got nan"),
], ids=["--half-bandwidth-inf", "--half-bandwidth-1e308", "--half-bandwidth-nan", "--gap-nan"])
def test_bcs_rejects_non_finite_band(capsys, option, value, message):
    assert run_cli(capsys, "bcs", "--modes", "10", option, value) == (1, "", f"error: {message}\n")


SALT = "salt 'NaCl': "  # a fault of a salt's own formulas names the salt
COLD = "error: temperature 1e-320 K is too low: k_B T underflows to 0.0 J\n"


@pytest.mark.parametrize("argv, message", [
    (["table", "--salts", "NaCl", "--temperature", "1e300"],
     f"error: {SALT}tau1 leaves the double range at temperature 1e+300 K\n"),
    (["classify", "--salt", "NaCl", "--tau-dyn", "1", "--temperature", "1e150"],
     f"error: {SALT}tau1 leaves the double range at temperature 1e+150 K\n"),
    (["factor", "--salt", "NaCl", "--temperature", "1e-320", "--dx", "1e-9", "--time", "1"], COLD),
    (["sim", "--salt", "NaCl", "--temperature", "1e-320", "--separation", "3e-9",
      "--width", "3e-10", "--t-total", "2e-16", "--steps", "2", "--num-points", "16"], COLD),
    (["xray", "--salt", "NaCl", "--temperature", "1e-320", "--tau-x", "0.5e-18"], COLD),
], ids=["table-hot", "classify-hot", "factor-cold", "sim-cold", "xray-cold"])
def test_temperature_out_of_float_range_exits_one(capsys, argv, message):
    # kT**3 overflows, or kT underflows to 0.0
    assert run_cli(capsys, *argv) == (1, "", message)


OVERFLOW_SIM = ["sim", "--wavelength", "3e-11", "--rate", "1e300", "--separation", "3e-9",
                "--width", "3e-10", "--t-total", "1e300", "--steps", "1", "--num-points", "16"]
PHASE_SIM = ["sim", "--wavelength", "1e-10", "--rate", "1e15", "--separation", "1e-8",
             "--width", "1e-9", "--t-total", "3e-15", "--steps", "2", "--num-points", "64"]
MISSING_SIM = ["sim", "--salt", "NaCl", "--separation", "3e-9", "--width", "3e-10",
               "--t-total", "2e-16", "--steps", "2", "--num-points", "8"]
MISSED = "grid cannot resolve the packets: the sampled state has norm 0.0; raise num_points or lower extent_widths"
SUBNORMAL = "K is too low for tau1: the product under its square root is below the smallest normal double"

# a data-file fault: the case writes its bytes to a file, puts that file's
# path for DATA_FILE in argv and {path} in the message, and expects exit 2
DATA_FILE = "{data-file}"
NAN_DENSITY = GOOD_LINE.replace(",2163,", ",nan,")
NAN_WATER = GOOD_LINE.replace(",10,", ",nan,")
# loads (the formula mass is a finite 3.3e281 kg), but tau1's quotient
# overflows at the default temperature and ion count
HUGE_IONS = GOOD_LINE.replace(",22.990,Cl-,35.453,", ",1e308,Cl-,1e308,")
NOT_AN_ION_COUNT = "ion_count must be finite and at least 1, got "
NOT_FINITE_ION_COUNT = "argument --ion-count: '{}' is not a finite number"
KBR_LINE = "KBr,K+,39.098,Br-,79.904,2750,6.60,-,9.6,7.9\n"
# table's fault order: a data-file fault (exit 2) anywhere in the file, then an
# unknown or empty --salts, then a --temperature/--ion-count fault, then the
# first formula fault in file order
NINE_FIELDS_ON_LINE_3 = ("# header\n" + GOOD_LINE + KBR_LINE.rsplit(",", 1)[0] + "\n").encode()
BIG_THEN_GOOD = (HUGE_IONS.replace("NaCl,", "Big,") + GOOD_LINE + KBR_LINE).encode()
# past the text decoder's first 8 KiB read, so the byte is met after the faulting row is evaluated
BIG_THEN_NOT_UTF8 = (HUGE_IONS.replace("NaCl,", "Big,") + "".join(
    KBR_LINE.replace("KBr,", f"KBr{i},") for i in range(300))).encode() + b"\xff\n"
NOT_UTF8 = "cannot read data file '{path}': not UTF-8 text (invalid start byte)"

# argv -> the one stderr line of a run that exits 1 (or, with a third item
# holding data-file bytes, 2 unless a fourth item gives the code) with
# nothing on stdout; in process, a numpy RuntimeWarning on the way fails the test
ONE_LINE_ERRORS = {
    "factor-overflow": (["factor", "--wavelength", "1e-10", "--rate", "1e300", "--time", "1e300", "--dx", "0"],
                        "rate * time must be finite, got 1e+300 * 1e+300"),
    "sim-overflow": (OVERFLOW_SIM, "rate * dt must be finite, got 1e+300 * 1e+300"),
    "sim-phase-inf": ([*PHASE_SIM, "--phase", "inf"], "argument --phase: 'inf' is not a finite number"),
    "sim-misses-1000": ([*MISSING_SIM, "--extent-widths", "1000"], MISSED),
    "sim-misses-1e308": ([*MISSING_SIM, "--extent-widths", "1e308"], MISSED),
    "sim-width-squared-underflows": (
        ["sim", "--wavelength", "1e-170", "--rate", "1", "--separation", "0", "--width", "1e-170",
         "--t-total", "1e-15", "--steps", "1", "--num-points", "16"],
        "width 1e-170 m is too small: 4 * width**2 underflows to 0.0"),
    "sim-spacing-squared-overflows": (
        ["sim", "--wavelength", "1e-10", "--rate", "1", "--separation", "0", "--width", "1e-154",
         "--t-total", "1e-15", "--steps", "1", "--format", "csv"],
        "grid spacing 1.5686274509803937e-155 m is too small: 1 / spacing**2 overflows"),
    # a fault of --temperature or --ion-count alone names no salt
    "table-1e-310": (["table", "--salts", "NaCl", "--temperature", "1e-310"],
                     "temperature 1e-310 K is too low: k_B T underflows to 0.0 J"),
    "table-negative-temperature": (["table", "--temperature=-5"], "temperature must be positive, got -5.0"),
    "table-ion-count-nan": (["table", "--ion-count", "nan"], NOT_FINITE_ION_COUNT.format("nan")),
    "factor-ion-count-nan": (["factor", "--salt", "NaCl", "--dx", "1e-9", "--time", "1e-16", "--ion-count", "nan"],
                             NOT_FINITE_ION_COUNT.format("nan")),
    "factor-ion-count-inf": (["factor", "--salt", "NaCl", "--dx", "1e-9", "--time", "1e-16", "--ion-count", "inf"],
                             NOT_FINITE_ION_COUNT.format("inf")),
    "sim-ion-count-nan": ([*MISSING_SIM, "--ion-count", "nan"], NOT_FINITE_ION_COUNT.format("nan")),
    "xray-ion-count-nan": (["xray", "--salt", "NaCl", "--tau-x", "0.5e-18", "--ion-count", "nan"],
                           NOT_FINITE_ION_COUNT.format("nan")),
    "classify-ion-count-inf": (["classify", "--salt", "NaCl", "--tau-dyn", "1", "--ion-count", "inf"],
                               NOT_FINITE_ION_COUNT.format("inf")),
    "table-ion-count-below-1": (["table", "--ion-count", "0.5"], f"{NOT_AN_ION_COUNT}0.5"),
    "table-1e-300": (["table", "--salts", "NaCl", "--temperature", "1e-300"],
                     f"{SALT}temperature 1e-300 {SUBNORMAL}"),
    "table-1e-100": (["table", "--salts", "NaCl", "--temperature", "1e-100"],
                     f"{SALT}temperature 1e-100 {SUBNORMAL}"),
    "table-1e-78": (["table", "--salts", "NaCl", "--temperature", "1e-78", "--format", "csv"],
                    f"{SALT}temperature 1e-78 {SUBNORMAL}"),
    "table-1e-76": (["table", "--salts", "NaCl", "--temperature", "1e-76", "--format", "csv"],
                    f"{SALT}temperature 1e-76 {SUBNORMAL}"),
    "table-1e-72": (["table", "--salts", "NaCl", "--temperature", "1e-72", "--format", "csv"],
                    f"{SALT}temperature 1e-72 {SUBNORMAL}"),
    "factor-1e-310": (["factor", "--salt", "NaCl", "--temperature", "1e-310", "--dx", "1e-9", "--time", "1"],
                      "temperature 1e-310 K is too low: k_B T underflows to 0.0 J"),
    "xray-1e-100": (["xray", "--salt", "NaCl", "--temperature", "1e-100", "--tau-x", "0.5e-18"],
                    f"{SALT}temperature 1e-100 {SUBNORMAL}"),
    "xray-negative-tau-x": (["xray", "--salt", "NaCl", "--tau-x=-1e-18"], f"{SALT}tau_x must be positive, got -1e-18"),
    # an xray result out of the double range names itself: the density underflows to 0.0 or
    # overflows, or c * tau_x overflows
    "xray-density-underflows": (["xray", "--salt", "NaCl", "--tau-x", "1e308"],
                                f"{SALT}implied density leaves the double range at tau_x 1e+308 s"),
    "xray-density-overflows": (["xray", "--salt", "NaCl", "--tau-x", "1e-320", "--temperature", "1e100"],
                               f"{SALT}implied density leaves the double range at tau_x 1e-320 s"),
    "xray-wavelength-overflows": (["xray", "--salt", "NaCl", "--tau-x", "1e300", "--temperature", "1e22"],
                                  f"{SALT}wavelength_x leaves the double range at tau_x 1e+300 s"),
    # N n (g q_e^2)^2 overflows, though m (k_B T)^3 is a normal double
    "table-ion-count-1e300": (["table", "--ion-count", "1e300"],
                              "salt 'NaF': tau1 leaves the double range at ion_count 1e+300: its denominator overflows"),
    "classify-ion-count-1e300": (["classify", "--salt", "NaCl", "--tau-dyn", "1", "--ion-count", "1e300"],
                                 f"{SALT}tau1 leaves the double range at ion_count 1e+300: its denominator overflows"),
    # m (k_B T)^3 is 1.0e-307, a normal double, but tau1 is about 3e-327 s
    "table-1e-71-N1e200": (["table", "--salts", "NaCl", "--temperature", "1e-71", "--ion-count", "1e200"],
                           f"{SALT}tau1 underflows to 0.0 s at temperature 1e-71 K"),
    "classify-ratio-overflows": (
        ["classify", "--tau1", "1e-40", "--tau2", "1e-38", "--tau-dyn", "1e308", "--format", "json"],
        "timescale ratio leaves the double range at tau_dyn 1e+308 s, tau_dec 1e-40 s"),
    "classify-threshold-inf": (["classify", "--salt", "NaCl", "--tau-dyn", "1", "--threshold", "inf", "--format", "json"],
                               "argument --threshold: 'inf' is not a finite number"),
    "classify-subnormal-tau1": (["classify", "--tau1", "1e-320", "--tau2", "1", "--tau-dyn", "1", "--format", "csv"],
                                "timescale ratio leaves the double range at tau_dyn 1.0 s, tau_dec 1e-320 s"),
    "sim-width-squared-overflows": (
        ["sim", "--wavelength", "3e-10", "--rate", "1", "--separation", "0", "--width", "1e300",
         "--t-total", "1e-9", "--steps", "1", "--num-points", "16", "--format", "csv"],
        "width 1e+300 m is too large: 4 * width**2 overflows"),
    "sim-span-overflows": (
        ["sim", "--wavelength", "1e-10", "--rate", "1", "--separation", "0", "--width", "1e150",
         "--extent-widths", "1.8e158", "--t-total", "1e-15", "--steps", "1", "--num-points", "8",
         "--format", "csv"],
        "extent_widths must be positive and give a finite grid span, got 1.8e+158"),
    "bcs-negative-seed": (["bcs", "--modes", "10", "--seed=-1"], "seed must be a non-negative integer, got -1"),
    "bcs-no-modes": (["bcs", "--modes", ","], "--modes must list at least one mode count"),
    "bcs-modes-not-an-int": (["bcs", "--modes", "10,x"], "argument --modes: invalid int value: 'x'"),
    # a negative non-finite value, written with a space, is the flag's value, not an option name
    "bcs-modes-minus-inf": (["bcs", "--modes", "-inf"], "argument --modes: invalid int value: '-inf'"),
    "bcs-gap-minus-infinity": (["bcs", "--modes", "10", "--gap", "-Infinity"], "gap must be positive, got -inf"),
    # the counts' sum is bounded, not each count, and the run ends before any draw
    "bcs-modes-above-bound": (["bcs", "--modes", "500000000,500000001"],
                              "--modes counts sum to 1000000001 modes, above a run's bound of 1000000000"),
    "factor-dx-not-a-number": (["factor", "--salt", "NaCl", "--dx", "abc", "--time", "1"],
                               "argument --dx: invalid float value: 'abc'"),
    # --salt beside an explicit value is refused, not dropped in favour of the salt's
    "factor-salt-and-both-values": (["factor", "--salt", "NaCl", "--wavelength", "1", "--rate", "1", "--dx", "3e-9",
                                     "--time", "1e-16", "--format", "csv"],
                                    "give either --salt or both --wavelength and --rate"),
    "sim-salt-and-rate": ([*MISSING_SIM, "--rate", "1"], "give either --salt or both --wavelength and --rate"),
    "classify-salt-and-tau1": (["classify", "--salt", "NaCl", "--tau1", "5", "--tau-dyn", "1"],
                               "give either --salt or both --tau1 and --tau2"),
    "data-file-not-utf8": (["table", "--data-file", DATA_FILE],
                           "cannot read data file '{path}': not UTF-8 text (invalid start byte)",
                           b"\xff" + GOOD_LINE.encode()),
    "data-file-nan-density": (["table", "--data-file", DATA_FILE, "--format", "csv"],
                              "line 1: field 'density_kg_m3': 'nan' is not a finite number", NAN_DENSITY.encode()),
    "data-file-nan-water": (["table", "--data-file", DATA_FILE],
                            "line 2: field 'water_per_ion': 'nan' is not a finite number",
                            ("# header\n" + NAN_WATER).encode()),
    "data-file-huge-ions": (["table", "--data-file", DATA_FILE],
                            f"{SALT}tau1 leaves the double range at temperature 310.0 K", HUGE_IONS.encode(), 1),
    **{f"data-file-huge-ions-{argv[0]}": (
        [*argv, "--salt", "Big", "--data-file", DATA_FILE],
        "salt 'Big': tau1 leaves the double range at temperature 310.0 K",
        HUGE_IONS.replace("NaCl,", "Big,").encode(), 1)
       for argv in (["xray", "--tau-x", "0.5e-18"], ["classify", "--tau-dyn", "1"])},
    "data-file-empty": (["table", "--data-file", DATA_FILE], "data file '{path}' holds no salt records", b""),
    # a line with no newline, as /dev/zero gives, is read no further than the cap
    "data-file-line-too-long": (["table", "--data-file", DATA_FILE], "line 2: more than 65536 characters",
                                (GOOD_LINE + "x" * 70000).encode()),
    "table-order-data-fault-beats-formula-fault": (
        ["table", "--data-file", DATA_FILE, "--ion-count", "1e300"], "line 3: expected 10 fields, got 9",
        NINE_FIELDS_ON_LINE_3),
    "table-order-data-fault-beats-unknown-salt": (
        ["table", "--data-file", DATA_FILE, "--salts", "Nope", "--format", "json"],
        "line 3: expected 10 fields, got 9", NINE_FIELDS_ON_LINE_3),
    "table-order-data-fault-beats-empty-salts": (
        ["table", "--data-file", DATA_FILE, "--salts", ",", "--temperature=-1"], "line 3: expected 10 fields, got 9",
        NINE_FIELDS_ON_LINE_3),
    # a --salt command reads the file to its end, so a fault after the salt's row still wins
    **{f"salt-order-data-fault-beats-found-salt-{argv[0]}": (
        [*argv, "--salt", "NaCl", "--data-file", DATA_FILE], "line 3: expected 10 fields, got 9",
        NINE_FIELDS_ON_LINE_3)
       for argv in (["factor", "--dx", "3e-9", "--time", "1e-16"], ["xray", "--tau-x", "0.5e-18"],
                    ["classify", "--tau-dyn", "1"],
                    ["sim", "--separation", "3e-9", "--width", "3e-10", "--t-total", "2e-16", "--steps", "1",
                     "--num-points", "16"])},
    "table-order-empty-file-beats-every-flag": (
        ["table", "--data-file", DATA_FILE, "--salts", "Nope", "--temperature=-1", "--format", "csv"],
        "data file '{path}' holds no salt records", b""),
    "table-order-unknown-salt-beats-flag-fault": (
        ["table", "--data-file", DATA_FILE, "--salts", "Nope", "--temperature=-1"],
        "unknown salt 'Nope'; valid names: Big, NaCl, KBr", BIG_THEN_GOOD, 1),
    "table-order-unknown-salt-beats-formula-fault": (
        ["table", "--data-file", DATA_FILE, "--salts", "KBr,Nope,Big", "--format", "json"],
        "unknown salt 'Nope'; valid names: Big, NaCl, KBr", BIG_THEN_GOOD, 1),
    "table-order-empty-salts-beats-flag-fault": (
        ["table", "--data-file", DATA_FILE, "--salts", ",", "--ion-count", "0"],
        "--salts must name at least one salt", BIG_THEN_GOOD, 1),
    "table-order-flag-fault-beats-formula-fault": (
        ["table", "--data-file", DATA_FILE, "--temperature=-1", "--format", "csv"],
        "temperature must be positive, got -1.0", BIG_THEN_GOOD, 1),
    "table-order-first-formula-fault-in-file-order": (
        ["table", "--data-file", DATA_FILE, "--salts", "Big2,NaCl,Big1", "--format", "json"],
        "salt 'Big1': tau1 leaves the double range at temperature 310.0 K",
        (GOOD_LINE + HUGE_IONS.replace("NaCl,", "Big1,") + HUGE_IONS.replace("NaCl,", "Big2,")).encode(), 1),
    "table-order-not-utf8-after-formula-fault": (["table", "--data-file", DATA_FILE], NOT_UTF8, BIG_THEN_NOT_UTF8),
    "table-order-not-utf8-after-flag-fault": (
        ["table", "--data-file", DATA_FILE, "--salts", "Nope", "--ion-count", "0.5", "--format", "json"],
        NOT_UTF8, BIG_THEN_NOT_UTF8),
    "data-file-comments-only": (["table", "--data-file", DATA_FILE, "--format", "csv"],
                                "data file '{path}' holds no salt records", b"# only comments\n"),
    **{f"data-file-{case}": (["table", "--data-file", DATA_FILE], f"line 1: {message}",
                             GOOD_LINE.replace(*swap).encode())
       for case, swap, message in [
           ("negative-density", (",2163,", ",-2163,"),
            "field 'density_kg_m3': '-2163' is -2163.0 in SI units, not a positive normal double"),
           ("zero-density", (",2163,", ",0,"),
            "field 'density_kg_m3': '0' is 0.0 in SI units, not a positive normal double"),
           ("negative-lattice-edge", (",5.64,", ",-5.64,"),
            "field 'lattice_a_angstrom': '-5.64' is -5.64e-10 in SI units, not a positive normal double"),
           ("zero-lattice-edge", (",5.64,", ",0.0,"),
            "field 'lattice_a_angstrom': '0.0' is 0.0 in SI units, not a positive normal double"),
           ("negative-cation-mass", (",22.990,", ",-22.990,"),
            f"field 'cation_mass_amu': '-22.990' is {-22.990 * CODATA.amu.si!r} in SI units, "
            "not a positive normal double"),
           ("zero-anion-mass", (",35.453,", ",0,"),
            "field 'anion_mass_amu': '0' is 0.0 in SI units, not a positive normal double"),
           ("negative-water", (",10,", ",-10,"),
            "field 'water_per_ion': '-10' is -10.0 in SI units, not a positive normal double"),
           ("negative-ref-tau1", (",4.6,", ",-4.6,"),
            f"field 'ref_tau1_1e-40s': '-4.6' is {-4.6 * 1e-40!r} in SI units, not a positive normal double"),
           ("zero-ref-tau2", (",4.4\n", ",0\n"),
            "field 'ref_tau2_1e-38s': '0' is 0.0 in SI units, not a positive normal double"),
           # positive in the file, but zero or subnormal once in SI units
           ("ref-tau1-underflows", (",4.6,", ",1e-300,"),
            "field 'ref_tau1_1e-40s': '1e-300' is 0.0 in SI units, not a positive normal double"),
           ("mass-underflows", (",35.453,", ",1e-320,"),
            "field 'anion_mass_amu': '1e-320' is 0.0 in SI units, not a positive normal double"),
           ("subnormal-density", (",2163,", ",1e-320,"),
            "field 'density_kg_m3': '1e-320' is 1e-320 in SI units, not a positive normal double"),
           ("number-density-overflows", (",22.990,Cl-,35.453,2163,", ",1,Cl-,1,1e308,"),
            "NaCl: number density inf m^-3 is not a positive normal double"),
           ("number-density-underflows", (",22.990,Cl-,35.453,2163,", ",1e300,Cl-,1,2.3e-308,"),
            "NaCl: number density 0.0 m^-3 is not a positive normal double"),
           ("bad-ion-symbol", (",Na+,", ",Na,"),
            "ion symbol 'Na' must be an element followed by an optional multiplicity "
            "and a +/- sign, like Na+ or Zn2+"),
           ("zero-charge", (",Cl-,", ",Cl0-,"), "Cl0-: charge number must be nonzero"),
           ("empty-name", ("NaCl,", ","), "salt name must be nonempty"),
       ]},
}


@pytest.mark.parametrize("case", list(ONE_LINE_ERRORS))
def test_one_line_error(capsys, tmp_path, case):
    argv, message, *data = ONE_LINE_ERRORS[case]
    code = 1
    if data:
        data, code = data if len(data) == 2 else (data[0], 2)
        path = tmp_path / "salts.csv"
        path.write_bytes(data)
        argv = [str(path) if arg == DATA_FILE else arg for arg in argv]
        message = message.replace("{path}", str(path))
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


def test_cold_table_keeps_representable_times(capsys):
    code, out, err = run_cli(
        capsys, "table", "--salts", "NaCl", "--temperature", "1e-60", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[3] == "8.449279016595415e-134"


@pytest.mark.parametrize("argv, line", [
    (["--wavelength", "1e-10", "--rate", "1", "--time", "1", "--dx", "1e200"], "0.36787944117144233"),
    (["--salt", "NaCl", "--time", "1e-16", "--dx", "1e160"], "0.11436135589653033"),
], ids=["explicit", "nacl"])
def test_factor_saturates_where_the_separation_squared_overflows(capsys, argv, line):
    # (dx / lambda)^2 is not a double: the factor is its dx >> lambda limit exp(-Lambda t)
    assert run_cli(capsys, "factor", *argv) == (0, f"decoherence factor = {line}\n", "")


def test_sim_kernel_saturates_without_a_warning(capsys):
    # (dx / lambda)^2 overflows off the diagonal; a numpy warning would fail the run
    code, out, err = run_cli(
        capsys, "sim", "--wavelength", "1e-300", "--rate", "1", "--separation", "3e-9",
        "--width", "3e-10", "--t-total", "1e-15", "--steps", "1", "--num-points", "64", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3


def test_factor_underflow_prints_zero(capsys):
    code, out, err = run_cli(
        capsys, "factor", "--wavelength", "1e-10", "--rate", "1e20",
        "--time", "1", "--dx", "1e-9",
    )
    assert (code, out, err) == (0, "decoherence factor = 0.0\n", "")


@pytest.mark.parametrize("target", ["absent/table.csv", "taken"])
def test_unwritable_output_exits_one(capsys, tmp_path, target):
    (tmp_path / "taken").mkdir()
    code, out, err = run_cli(
        capsys, "table", "--salts", "NaCl", "--output", str(tmp_path / target)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_file_mode_follows_umask(capsys, tmp_path, umask, mode):
    target = tmp_path / "table.csv"
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "table", "--salts", "NaCl", "--output", str(target))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_fifo_output_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    argv = ["table", "--salts", "NaCl", "--format", "csv"]
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opened first, so the writer's open does not wait
    try:
        result = run_cli(capsys, *argv, "--output", str(fifo))
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert result == (0, "", "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert written.decode() == run_cli(capsys, *argv)[1]


def test_output_never_takes_a_file_that_holds_its_new_name(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "urandom", bytes)  # every new name is ".iondecoh-" and zeros
    taken = tmp_path / (".iondecoh-" + bytes(8).hex())
    taken.write_text("kept\n")
    target = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "table", "--salts", "NaCl", "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name]


def test_output_through_a_symlink_writes_the_file_it_names(capsys, tmp_path):
    # as the shell's > does: the link stays a link, and the file it names gets the text
    real = tmp_path / "data" / "table.csv"
    real.parent.mkdir()
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(os.path.join("data", "table.csv"))
    argv = ["table", "--salts", "NaCl", "--format", "csv"]
    assert run_cli(capsys, *argv, "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "table.csv")
    assert real.read_text() == run_cli(capsys, *argv)[1]
    assert sorted(p.name for p in real.parent.iterdir()) == ["table.csv"]


def test_output_error_quotes_the_path_as_given(capsys, tmp_path):
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "absent" / "table.csv")
    code, out, err = run_cli(capsys, "table", "--salts", "NaCl", "--output", str(link))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {str(link)!r}: No such file or directory\n"


MAIN_SCRIPT = "import sys\nfrom iondecoh.cli import main\nsys.exit(main())\n"
BROKEN_PIPE = "error: cannot write to stdout: Broken pipe\n"


def buffered_env():
    """The environment with stdout block-buffered, as it is by default for a pipe."""
    return {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def test_stdout_pipe_closed_mid_text_is_one_error_line(capsys, tmp_path):
    data = tmp_path / "salts.csv"
    data.write_text("".join(f"S{i}{GOOD_LINE[len('NaCl'):]}" for i in range(6000)))
    argv = ["table", "--data-file", str(data), "--format", "csv"]
    # four times the 64 KiB a pipe holds, so the writer meets the closed end
    assert len(run_cli(capsys, *argv)[1]) >= 4 * 65536
    with open(tmp_path / "stderr", "w") as stderr:
        child = subprocess.Popen([sys.executable, "-c", MAIN_SCRIPT, *argv], stdout=subprocess.PIPE, stderr=stderr,
                                 env=buffered_env())
        assert child.stdout.readline() == b"name,tau1_1e-40s,tau2_1e-38s,tau1_s,tau2_s\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 1
    assert (tmp_path / "stderr").read_text() == BROKEN_PIPE


def test_stdout_pipe_closed_before_the_text_is_one_error_line(tmp_path):
    # the text stays in stdout's buffer until main flushes it, so the interpreter's exit flush would meet the
    # closed pipe again
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open(tmp_path / "stderr", "w") as stderr:
            argv = ["table", "--salts", "NaCl", "--format", "csv"]
            child = subprocess.run([sys.executable, "-c", MAIN_SCRIPT, *argv], stdout=write_end, stderr=stderr,
                                   env=buffered_env())
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert (tmp_path / "stderr").read_text() == BROKEN_PIPE


# the fault matrix: each fault is set on one child run only. A file-size limit
# (RLIMIT_FSIZE, set in the child by preexec_fn) stands for a full disk under
# stdout or --output; a pipe whose read end is closed before the run stands
# for a reader that has gone; an address-space limit (RLIMIT_AS) stands for
# memory that runs out. Every case must end with exit 0 and its whole
# output, or with exit 1 and exactly one error line.
FAULT_SIM = ["sim", "--wavelength", "1e-10", "--rate", "1e15", "--separation", "1e-8", "--width", "1e-9",
             "--t-total", "3e-15", "--steps", "2", "--num-points", "16", "--format", "json"]
TOO_LARGE = "error: cannot write to stdout: File too large\n"


def limit_in_child(size, which=resource.RLIMIT_FSIZE):
    """A preexec_fn that limits one resource of the child, by default its file size, to size."""
    def limit():
        resource.setrlimit(which, (size, size))

    return limit


def run_child(argv, stdout, limit=None):
    """(exit code, stderr text) of one CLI run; stderr is a pipe, which no file-size limit touches."""
    child = subprocess.run([sys.executable, "-c", MAIN_SCRIPT, *argv], stdout=stdout, stderr=subprocess.PIPE,
                           env=buffered_env(), preexec_fn=limit, timeout=120)
    return child.returncode, child.stderr.decode()


@pytest.fixture(scope="module")
def big_data(tmp_path_factory):
    """A data file whose csv table is about 200 KB."""
    path = tmp_path_factory.mktemp("data") / "salts.csv"
    path.write_text("".join(f"S{i}{GOOD_LINE[len('NaCl'):]}" for i in range(3000)))
    return str(path)


@pytest.mark.parametrize("argv, size", [
    (["table", "--salts", "NaCl", "--format", "csv"], 10),
    (["table", "--salts", "NaCl", "--format", "csv"], 100),
    (["table", "--salts", "NaCl"], 100),
    (["table", "--data-file", "{data}", "--format", "csv"], 4096),
    (["--help"], 10),
    (FAULT_SIM, 100),
    (FAULT_SIM, 1 << 20),
], ids=["table-10", "table-100", "table-human-100", "table-bulk-4096", "help-10", "sim-json-100", "sim-json-1MiB"])
def test_stdout_under_a_file_size_limit(tmp_path, big_data, argv, size):
    argv = [big_data if arg == "{data}" else arg for arg in argv]
    with open(tmp_path / "whole", "wb") as stdout:
        assert run_child(argv, stdout) == (0, "")
    whole = (tmp_path / "whole").read_bytes()
    with open(tmp_path / "stdout", "wb") as stdout:
        code, err = run_child(argv, stdout, limit_in_child(size))
    if len(whole) <= size:
        assert (code, err) == (0, "") and (tmp_path / "stdout").read_bytes() == whole
    else:
        assert (code, err) == (1, TOO_LARGE)


def test_output_under_a_file_size_limit_leaves_no_file(tmp_path, big_data):
    target = tmp_path / "out" / "table.csv"
    target.parent.mkdir()
    with open(tmp_path / "stdout", "wb") as stdout:
        code, err = run_child(["table", "--data-file", big_data, "--format", "csv", "--output", str(target)],
                              stdout, limit_in_child(4096))
    assert (code, err) == (1, f"error: cannot write {str(target)!r}: File too large\n")
    assert list(target.parent.iterdir()) == []
    assert (tmp_path / "stdout").read_bytes() == b""


def test_output_under_a_roomy_file_size_limit_is_whole(tmp_path, big_data):
    target = tmp_path / "table.csv"
    argv = ["table", "--data-file", big_data, "--format", "csv"]
    with open(tmp_path / "stdout", "wb") as stdout:
        assert run_child([*argv, "--output", str(target)], stdout, limit_in_child(1 << 20)) == (0, "")
    with open(tmp_path / "expected", "wb") as stdout:
        assert run_child(argv, stdout) == (0, "")
    assert target.read_bytes() == (tmp_path / "expected").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"], FAULT_SIM], ids=["help", "table-help", "sim-json"])
def test_stdout_into_a_closed_pipe(argv):
    # table's case is test_stdout_pipe_closed_before_the_text_is_one_error_line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = run_child(argv, write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (1, BROKEN_PIPE)


@pytest.mark.parametrize("argv, line", [
    (["sim", "--salt", "NaCl", "--separation", "3e-9", "--width", "3e-10", "--t-total", "2e-16", "--steps", "1",
      "--num-points", "6000"],
     "error: Unable to allocate 549. MiB for an array with shape (6000, 6000) and data type complex128\n"),
    # 10^8 modes are 763 MiB as one array; bcs sums them a leaf at a time, so the run is whole
    (["bcs", "--modes", "100000000", "--format", "json"], None),
], ids=["sim-6000", "bcs-1e8"])
def test_allocation_under_an_address_space_limit(tmp_path, monkeypatch, argv, line):
    # OpenBLAS reserves memory per thread at import, so one thread keeps the
    # limit's headroom the same on every machine
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    whole = b""
    if line is None:
        with open(tmp_path / "whole", "wb") as stdout:
            assert run_child(argv, stdout) == (0, "")
        whole = (tmp_path / "whole").read_bytes()
    with open(tmp_path / "stdout", "wb") as stdout:
        assert run_child(argv, stdout, limit_in_child(600 << 20, resource.RLIMIT_AS)) == (
            (1, line) if line else (0, ""))
    assert (tmp_path / "stdout").read_bytes() == whole


def test_negative_phase_in_scientific_notation(capsys):
    code, out, err = run_cli(
        capsys, "sim", "--wavelength", "1e-10", "--rate", "1e15",
        "--separation", "1e-8", "--width", "1e-9", "--t-total", "3e-15",
        "--steps", "2", "--num-points", "64", "--phase", "-1e-3", "--format", "csv",
    )
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 4


def test_negative_time_in_scientific_notation_reaches_value_check(capsys):
    code, out, err = run_cli(
        capsys, "sim", "--wavelength", "1e-10", "--rate", "1e15",
        "--separation", "1e-8", "--width", "1e-9", "--t-total", "-3e-15",
        "--steps", "5", "--num-points", "64",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: dt must be nonnegative") and err.count("\n") == 1


def test_missing_data_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "table", "--data-file", str(tmp_path / "absent.csv")
    )
    assert code == 2
    assert "cannot read" in err


def test_malformed_data_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "salts.csv"
    bad.write_text("# header\nNaCl,Na+,22.990\n")
    code, _, err = run_cli(capsys, "table", "--data-file", str(bad))
    assert code == 2
    assert "line 2" in err


def test_env_var_data_dir(capsys, tmp_path, monkeypatch):
    custom = tmp_path / "salts.csv"
    custom.write_text("Xx,Na+,22.990,Cl-,35.453,2163,5.64,-,-,-\n")
    monkeypatch.setenv(cli.ENV_DATA_DIR, str(tmp_path))
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("Xx,")


@pytest.mark.parametrize("via", ["flag", "env"])
def test_byte_order_mark_is_ignored(capsys, tmp_path, monkeypatch, via):
    path = tmp_path / "salts.csv"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD_LINE.encode())
    if via == "flag":
        data = ["--data-file", str(path)]
    else:
        data = []
        monkeypatch.setenv(cli.ENV_DATA_DIR, str(tmp_path))
    code, out, err = run_cli(capsys, "table", "--format", "csv", *data)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("NaCl,4.6,4.4,")
    code, out, err = run_cli(capsys, "factor", "--salt", "NaCl", "--dx", "3e-9", "--time", "1e-16", *data)
    assert (code, err) == (0, "")
    assert out.startswith("decoherence factor = ")


def test_flag_overrides_env_var(capsys, tmp_path, monkeypatch):
    env_file = tmp_path / "salts.csv"
    env_file.write_text("Xx,Na+,22.990,Cl-,35.453,2163,5.64,-,-,-\n")
    flag_file = tmp_path / "flagged.csv"
    flag_file.write_text(GOOD_LINE)
    monkeypatch.setenv(cli.ENV_DATA_DIR, str(tmp_path))
    code, out, _ = run_cli(
        capsys, "table", "--format", "csv", "--data-file", str(flag_file)
    )
    assert code == 0
    names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert names == ["NaCl"]


def test_bad_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "table", "--no-such-flag")
    assert code == 1
    assert err != ""


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "table" in out and "classify" in out


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "iondecoh.cli", "table", "--salts", "NaCl", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("NaCl,4.6,4.4,")


SMALL_RUNS = {
    "table": ["table", "--format", "csv"],
    "factor": ["factor", "--salt", "NaCl", "--dx", "3e-9", "--time", "1e-16"],
    "sim": ["sim", "--salt", "NaCl", "--separation", "3e-9", "--width", "3e-10",
            "--t-total", "2e-16", "--steps", "2", "--num-points", "32"],
    "xray": ["xray", "--salt", "NaCl", "--tau-x", "0.5e-18"],
    "bcs": ["bcs", "--modes", "10,100,1000"],
    "classify": ["classify", "--salt", "NaCl", "--tau-dyn", "1.0"],
}


def test_xray_reaches_xray_consistency_through_its_module_attribute(capsys, monkeypatch):
    # library callers and the benchmark's spans see the check that the CLI runs
    calls = []
    check = regimes.xray_consistency
    monkeypatch.setattr(regimes, "xray_consistency", lambda *args: calls.append(args) or check(*args))
    code, out, err = run_cli(capsys, *SMALL_RUNS["xray"])
    assert (code, err) == (0, "")
    assert len(calls) == 1 and calls[0][1].name == "NaCl"


@pytest.mark.parametrize("command, contexts", [
    ("table", 0), ("factor", 0), ("sim", 0), ("classify", 0), ("xray", 1),
])
def test_only_xray_builds_a_context(capsys, monkeypatch, command, contexts):
    # every other salt command runs its formulas over the record's floats; a context's constructor ends in _fill,
    # and context_for_salt calls _of
    built = []
    fill, of = core.DecoherenceContext._fill, core.DecoherenceContext._of
    monkeypatch.setattr(core.DecoherenceContext, "_fill",
                        lambda self, *values: built.append(values) or fill(self, *values))
    monkeypatch.setattr(core.DecoherenceContext, "_of",
                        classmethod(lambda cls, *values: built.append(values) or of(*values)))
    assert run_cli(capsys, *SMALL_RUNS[command])[0] == 0
    assert len(built) == contexts


def test_an_os_error_off_stdout_is_not_reported_as_a_stdout_fault(capsys, tmp_path, monkeypatch):
    # an unreadable bundled table is a data-file fault, as an unreadable --data-file is
    monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
    monkeypatch.setattr(cli, "_BUNDLED_PATH", str(tmp_path))
    assert run_cli(capsys, "table", "--format", "csv") == (
        2, "", f"error: cannot read data file {str(tmp_path)!r}: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


# argv, exit code; every run blocks scipy, and all but sim and bcs block numpy too
IMPORT_RUNS = {
    **{command: (argv, 0) for command, argv in SMALL_RUNS.items()},
    "unknown-salt": (["table", "--salts", "Kryptonite"], 1),
    "malformed-data-file": (["table", "--data-file", "{malformed}"], 2),
}
NUMPY_FREE_CASES = [case for case in IMPORT_RUNS if case not in ("sim", "bcs")]
OUTPUT_RUN = ["table", "--format", "csv", "--output", "{output}"]  # run with tempfile blocked too


@pytest.fixture(scope="module")
def isolated_run(tmp_path_factory):
    """Run an IMPORT_RUNS case in a fresh interpreter, once per case for the module."""
    malformed = tmp_path_factory.mktemp("data") / "salts.csv"
    malformed.write_text("# header\nNaCl,Na+,22.990\n")
    paths = {"{malformed}": str(malformed), "{output}": str(malformed.with_name("table.csv"))}
    results = {}

    def run(case):
        if case not in results:
            argv = OUTPUT_RUN if case == "output" else IMPORT_RUNS[case][0]
            argv = [paths.get(arg, arg) for arg in argv]
            # a None entry in sys.modules makes every import of that name raise ImportError:
            # no run loads scipy or dataclasses, only sim and bcs numpy, the csv table no json,
            # and --output no tempfile
            blocked = ["scipy", "dataclasses"] if case in ("sim", "bcs") else ["scipy", "dataclasses", "numpy"]
            if case == "table":
                blocked.append("json")
            if case == "output":
                blocked.append("tempfile")
            script = (
                "import sys\n"
                f"for name in {blocked!r}:\n"
                "    sys.modules[name] = None\n"
                "import iondecoh.cli\n"
                "before = 'numpy' in sys.modules\n"
                f"code = iondecoh.cli.main({argv!r})\n"
                "print(before, 'numpy' in sys.modules)\n"
                "sys.exit(code)\n"
            )
            results[case] = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        return results[case]

    return run


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_cli_run_does_not_import_scipy(isolated_run, command):
    result = isolated_run(command)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[:-1]


@pytest.mark.parametrize("case", NUMPY_FREE_CASES)
def test_scalar_subcommands_run_without_numpy(isolated_run, case):
    result = isolated_run(case)
    expected_code = IMPORT_RUNS[case][1]
    assert result.returncode == expected_code
    if expected_code == 0:
        assert result.stderr == ""
        assert result.stdout.splitlines()[:-1]
    else:
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ")


def test_csv_table_runs_with_json_blocked(isolated_run):
    assert IMPORT_RUNS["table"][0][-1] == "csv"
    result = isolated_run("table")
    assert (result.returncode, result.stderr) == (0, "")


def test_output_runs_with_tempfile_blocked(isolated_run):
    result = isolated_run("output")
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout.splitlines()) == 1  # the text went to --output


@pytest.mark.parametrize("command", ["sim", "bcs"])
def test_sim_and_bcs_load_numpy(isolated_run, command):
    result = isolated_run(command)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1] == "False True"


NUMPY_ALLOCATION_MESSAGE = (
    "Unable to allocate 16.0 GiB for an array with shape (32768, 32768) and data type complex128"
)


@pytest.mark.parametrize("command, target, message, line", [
    pytest.param("sim", (cli.densmat, "prepare_superposition"), NUMPY_ALLOCATION_MESSAGE,
                 f"error: {NUMPY_ALLOCATION_MESSAGE}", id="sim-numpy-message"),
    pytest.param("bcs", (cli.vacuum, "log_vacuum_overlap"), "", "error: out of memory",
                 id="bcs-no-message"),
])
def test_memory_error_exits_one(capsys, monkeypatch, command, target, message, line):
    # raised by hand: the test must not allocate
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*target, out_of_memory)
    code, out, err = run_cli(capsys, *SMALL_RUNS[command])
    assert (code, out, err) == (1, "", line + "\n")


def test_memory_error_mid_write_leaves_no_file(capsys, monkeypatch, tmp_path):
    # json is encoded as it is written, so a fault of the encoder is met inside the write
    def one_chunk_then_out_of_memory(self, payload):
        yield "{"
        raise MemoryError

    monkeypatch.setattr(json.JSONEncoder, "iterencode", one_chunk_then_out_of_memory)
    output = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *SMALL_RUNS["sim"], "--format", "json", "--output", str(output))
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_memory_error_mid_write_to_stdout_leaves_the_text_written_so_far(capsys, monkeypatch):
    # stdout takes each chunk as it is made, so a failing run's stdout is not a result
    def one_chunk_then_out_of_memory(self, payload):
        yield "{"
        raise MemoryError

    monkeypatch.setattr(json.JSONEncoder, "iterencode", one_chunk_then_out_of_memory)
    assert run_cli(capsys, *SMALL_RUNS["sim"], "--format", "json") == (1, "{", "error: out of memory\n")


INTERRUPTED = (130, "", "error: interrupted\n")


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_an_interrupted_sim_is_one_line_and_exit_130(capsys, monkeypatch, tmp_path, output):
    # raised by hand, as SIGINT's default handler raises it mid-run
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.densmat, "apply_decoherence", interrupted)
    argv = [*SMALL_RUNS["sim"], "--format", "json", *(["--output", str(tmp_path / "out.json")] if output else [])]
    assert run_cli(capsys, *argv) == INTERRUPTED
    assert list(tmp_path.iterdir()) == []


def table_stopped_at_row_1500(capsys, monkeypatch, tmp_path, stop, output):
    """The code and stderr of a 2,500-row csv table where stop() runs at row 1,500, and the output's directory after.

    The table goes to --output in that directory if output, else to stdout.
    At row 1,500 the first chunk of rows, the header and rows 1 to 1,000, is
    already written: stdout must hold it, and --output's new file is removed.
    """
    data = tmp_path / "data" / "salts.csv"
    data.parent.mkdir()
    write_perturbed_salts(data, STREAMED_ROWS)
    argv = ["table", "--data-file", str(data), "--format", "csv"]
    first_chunk = "".join(run_cli(capsys, *argv)[1].splitlines(keepends=True)[:1001])
    salt_values, calls = cli._salt_values, []

    def stopped_at_row_1500(*args):
        calls.append(None)
        if len(calls) == 1500:
            stop()
        return salt_values(*args)

    monkeypatch.setattr(cli, "_salt_values", stopped_at_row_1500)
    out = tmp_path / "out"
    out.mkdir()
    code, text, err = run_cli(capsys, *argv, *(["--output", str(out / "table.csv")] if output else []))
    assert len(calls) == 1500
    assert first_chunk.count("\n") == 1001 and text == ("" if output else first_chunk)
    return code, err, list(out.iterdir())


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_an_interrupt_mid_table_output_leaves_no_file(capsys, monkeypatch, tmp_path, output):
    def interrupt():
        raise KeyboardInterrupt

    assert table_stopped_at_row_1500(capsys, monkeypatch, tmp_path, interrupt, output) == (
        130, "error: interrupted\n", [])


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_a_sigterm_mid_table_output_leaves_no_file_and_restores_the_handler(capsys, monkeypatch, tmp_path, output):
    def outside(signum, frame):  # main sets its own handler in place of this one, then sets this one back
        raise AssertionError("SIGTERM met the handler that main replaces")

    previous = signal.signal(signal.SIGTERM, outside)
    try:
        assert table_stopped_at_row_1500(capsys, monkeypatch, tmp_path,
                                         lambda: signal.raise_signal(signal.SIGTERM), output) == (
            143, "error: terminated\n", [])
        assert signal.getsignal(signal.SIGTERM) is outside
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("interrupt, ending", [
    (KeyboardInterrupt(), INTERRUPTED),
    (KeyboardInterrupt(signal.SIGTERM), (143, "", "error: terminated\n")),
], ids=["sigint", "sigterm"])
def test_an_interrupt_just_after_the_rename_is_one_line(capsys, monkeypatch, tmp_path, interrupt, ending):
    # a signal handled at the bytecode after os.replace returns: the new file is already the whole target
    argv = ["factor", "--wavelength", "1e-10", "--rate", "1e15", "--dx", "1e-10", "--time", "1e-16"]
    whole = run_cli(capsys, *argv)[1]
    replace = os.replace

    def replaced_then_interrupted(source, target):
        replace(source, target)
        raise interrupt

    monkeypatch.setattr(os, "replace", replaced_then_interrupted)
    target = tmp_path / "f.txt"
    assert run_cli(capsys, *argv, "--output", str(target)) == ending
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == whole


def test_main_off_the_main_thread_leaves_sigterm_as_it_is(capsys):
    # only the main thread may set a handler; a run in another thread keeps the process's
    before, codes = signal.getsignal(signal.SIGTERM), []
    thread = threading.Thread(target=lambda: codes.append(cli.main(["bcs", "--modes", "10", "--format", "csv"])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0] and capsys.readouterr().err == ""
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.fixture(scope="module")
def streamed_files(tmp_path_factory):
    """STREAMED_ROWS good rows, and the same rows followed by a row of three fields."""
    directory = tmp_path_factory.mktemp("streamed")
    write_perturbed_salts(directory / "good.csv", STREAMED_ROWS)
    text = (directory / "good.csv").read_text()
    (directory / "faulty.csv").write_text(text + "NaCl,Na+,22.990\n")
    return directory / "good.csv", directory / "faulty.csv"


STREAMED_FAULT = f"error: line {STREAMED_ROWS + 1}: expected 10 fields, got 3\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
def test_a_fault_after_whole_chunks_leaves_only_those_chunks(capsys, tmp_path, streamed_files, fmt):
    # csv and json are written a chunk of rows at a time, and the last row read
    # stays unwritten, so the fault after 2,500 rows leaves 2,000 rows of the
    # text the good rows alone give; human writes nothing until every row is read
    good, faulty = streamed_files
    code, text, err = run_cli(capsys, "table", "--data-file", str(good), "--format", fmt)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "table", "--data-file", str(faulty), "--format", fmt)
    assert (code, err) == (2, STREAMED_FAULT)
    if fmt == "human":
        assert out == ""
    else:
        rows = out.count('"name": ') if fmt == "json" else out.count("\n") - 1
        assert text.startswith(out) and rows == 2 * cli._CHUNK_ROWS
    target = tmp_path / "table.out"
    assert run_cli(capsys, "table", "--data-file", str(faulty), "--format", fmt, "--output", str(target)) == (
        2, "", STREAMED_FAULT)
    assert list(tmp_path.iterdir()) == []


def test_a_fault_of_the_text_comes_before_a_fault_of_its_output(capsys, tmp_path, streamed_files):
    # the file is read to its end, as when the whole text was made before the output was opened
    argv = ["table", "--data-file", str(streamed_files[1]), "--format", "csv", "--output",
            str(tmp_path / "missing" / "table.csv")]
    assert run_cli(capsys, *argv) == (2, "", STREAMED_FAULT)
    assert run_cli(capsys, *argv[:2], str(streamed_files[0]), *argv[3:]) == (
        1, "", f"error: cannot write {argv[-1]!r}: No such file or directory\n")


def test_a_fault_of_the_text_comes_before_a_closed_stdout(tmp_path, streamed_files):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for data, expected in zip(streamed_files, [(1, BROKEN_PIPE), (2, STREAMED_FAULT)]):
            assert run_child(["table", "--data-file", str(data), "--format", "csv"], write_end) == expected
    finally:
        os.close(write_end)


@pytest.mark.parametrize("case", list(BULK_FLAGS))
def test_bulk_table_rows_equal_the_library_bit_for_bit(capsys, tmp_path, case):
    # table runs tau1 and tau2 over each record's SI floats, with no context:
    # every row equals tau1/tau2 of the record's context at the same flags
    extra = BULK_FLAGS[case]
    data = tmp_path / "salts.csv"
    write_perturbed_salts(data)
    code, out, err = run_cli(capsys, "table", "--data-file", str(data), "--format", "csv", *extra)
    assert (code, err) == (0, "")
    args = cli.build_parser().parse_args(["table", *extra])
    temperature = temperature_kelvin(args.temperature)
    records = load_salts(data)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == len(records) == ROWS
    for record, (name, _, _, tau1_s, tau2_s) in zip(records, rows):
        ctx = core.context_for_salt(record, temperature, args.ion_count)
        assert name == record.name
        assert float(tau1_s).hex() == core.tau1(ctx).si.hex(), name
        assert float(tau2_s).hex() == core.tau2(ctx).si.hex(), name


def test_the_constructor_and_the_loader_build_the_same_record(tmp_path):
    data = tmp_path / "salts.csv"
    write_perturbed_salts(data)
    records = load_salts(data)
    assert any(r.ref_tau1 is None for r in records) and any(r.ref_tau2 is not None for r in records)
    for loaded in records:
        built = SaltRecord(*loaded._values())
        assert built == loaded and repr(built) == repr(loaded) and hash(built) == hash(loaded)
        assert built._si == loaded._si


def _sample(i):
    return {"time_s": 1e-18 * i, "coherence": math.exp(-i / 7), "trace": 1.0 - 1e-16 * (i % 3),
            "purity": 0.5 + 0.5 / (i + 1), "min_eigenvalue": -1e-19 * (i % 5)}


# the payload shapes the five commands pass: a flat row (factor, xray), a nested
# inputs (classify), a list of sample or point dicts (sim, bcs) and an empty list
JSON_PAYLOADS = {
    "flat": {"salt": "NaCl", "separation_m": 3e-9, "time_s": 1e-16, "factor": 0.0, "rate_per_s": 2.17e16},
    "nested-inputs": {"inputs": {"tau1_s": 4.6e-40, "coherent_phase_observed": True, "threshold_ratio": 1000.0},
                      "note": "tau_dyn / tau_dec", "salt": "NaCl", "verdict": "ClassicalLimit"},
    "samples": {"separation_m": 3e-9, "width_m": 3e-10, "samples": [_sample(i) for i in range(2000)]},
    "points": {"decay_rate_per_mode": -0.1, "points": [{"modes": 10 ** i, "log_overlap": -i / 3, "overlap": 0.7 ** i}
                                                       for i in range(1, 7)]},
    "empty-list": {"samples": [], "wavelength_m": 2.99e-11},
}


@pytest.mark.parametrize("shape", list(JSON_PAYLOADS))
def test_json_chunks_join_to_json_dumps(shape):
    payload = JSON_PAYLOADS[shape]
    text = "".join(cli._render_table([], "json", payload))
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
