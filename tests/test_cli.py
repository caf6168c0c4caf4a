import json
import math
import os
import stat
import subprocess
import sys

import pytest

from iondecoh import cli

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
    assert code == 1 and out == ""
    assert err.startswith("error: threshold_ratio must exceed 1")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ["factor", "--wavelength", "1e-10", "--rate", "1e300", "--time", "1e300", "--dx", "0"],
    ["sim", "--wavelength", "3e-11", "--rate", "1e300", "--separation", "3e-9",
     "--width", "3e-10", "--t-total", "1e300", "--steps", "1", "--num-points", "16"],
])
def test_overflowing_rate_times_time_exits_one(argv):
    result = subprocess.run(
        [sys.executable, "-m", "iondecoh.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("option, value", [
    ("--half-bandwidth", "inf"),
    ("--half-bandwidth", "1e308"),
    ("--half-bandwidth", "nan"),
    ("--gap", "nan"),
])
def test_bcs_rejects_non_finite_band(capsys, option, value):
    code, out, err = run_cli(capsys, "bcs", "--modes", "10", option, value)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert option.lstrip("-").replace("-", "_") in err


def test_sim_rejects_non_finite_phase():
    result = subprocess.run(
        [sys.executable, "-m", "iondecoh.cli", "sim", "--wavelength", "1e-10",
         "--rate", "1e15", "--separation", "1e-8", "--width", "1e-9",
         "--t-total", "3e-15", "--steps", "2", "--num-points", "64", "--phase", "inf"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: relative_phase must be finite, got inf\n"


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


def test_cli_run_does_not_import_scipy():
    script = (
        "import sys\n"
        "import iondecoh.cli\n"
        "iondecoh.cli.main(['table', '--format', 'csv'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("name,tau1_1e-40s,")
    assert result.stderr == "[]\n"
