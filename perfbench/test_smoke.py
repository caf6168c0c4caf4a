"""Smoke test of the benchmark at tiny sizes (about a minute).

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py

It checks that a tiny run of every workload reports exactly the metric
names BENCHMARK.json declares, with no failed operation, and that the
output checks reject corrupted outputs.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import libloop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run_all(trace: int) -> dict:
    out = os.path.join(ROOT, ".perfbench_out", "smoke")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "all", "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
                         "--out", out], sizes=workloads.TINY)
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_name_appears(trace, section):
    result = _run_all(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[section]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]], name
        assert isinstance(metric["value"], (int, float))


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v[0] for k, v in run.END_TO_END.items()}
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def replayed():
    """Every op of one tiny cli_short block and one sim_grid round, run in process."""
    from iondecoh import cli

    workdir = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ops = next(workloads.cli_short(5, ROOT, workdir, workloads.TINY))
    ops += next(workloads.sim_grid(5, ROOT, workdir, workloads.TINY))
    results = [(op, *spans.call_main(cli, op.argv)) for op in ops]
    yield checks.Checker(), results
    shutil.rmtree(workdir)


FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _corrupt(text: str) -> str:
    """Scale every float in the output by 1.001; integers (mode counts) stay."""
    return FLOAT.sub(lambda m: repr(float(m.group()) * 1.001), text)


def test_checks_pass_on_real_outputs(replayed):
    checker, results = replayed
    for op, code, out, err in results:
        assert checker.check(op, code, out, err) is None, op.argv


def test_checks_catch_corrupted_outputs(replayed):
    checker, results = replayed
    caught = 0
    for op, code, out, err in results:
        if op.kind == "error":
            assert checker.check(op, 0, "", "") is not None
            assert checker.check(op, code, out, err + "Traceback (most recent call last):\n") is not None
            continue
        if op.output is None:
            bad = _corrupt(out)
            assert bad != out
            assert checker.check(op, code, bad, err) is not None, (op.argv, bad)
        else:
            with open(op.output, encoding="utf-8") as handle:
                good = handle.read()
            with open(op.output, "w", encoding="utf-8") as handle:
                handle.write(_corrupt(good))
            assert checker.check(op, code, out, err) is not None, op.argv
            with open(op.output, "w", encoding="utf-8") as handle:
                handle.write(good)
        assert checker.check(op, 1, out, "error: boom\n") is not None
        caught += 1
    assert caught >= len(results) - 2


def test_lib_case_check_catches_corruption():
    from iondecoh import bundled_salt_database, units
    import iondecoh

    rows = workloads.bundled_rows(ROOT)
    records = bundled_salt_database()
    case = next(workloads.lib_cases(3, rows))
    result = libloop.run_case(iondecoh, units, records, case)
    assert checks.check_lib_case(rows[case[0]], case, result) is None
    for i in range(6):
        bad = list(result)
        bad[i] *= 1.0 + 1e-9
        assert checks.check_lib_case(rows[case[0]], case, tuple(bad)) is not None
    wrong = {"ClassicalLimit": "QftRegimeIndicated"}.get(result[6], "ClassicalLimit")
    assert checks.check_lib_case(rows[case[0]], case, (*result[:6], wrong)) is not None
