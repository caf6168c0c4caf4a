"""iondecoh benchmark: four workloads over the CLI and the library.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli_short, table_bulk, sim_grid, lib_scalar or all. The CLI runs
as a user runs it, ``python -m iondecoh.cli`` with the checkout's ``src``
first on PYTHONPATH, so the commit under test is measured and not an
installed copy. Load is a closed loop with one client: the next call
starts when the previous one has exited. BLAS and OpenMP threads are
pinned to 1 here and in every child.

``--trace 0`` measures the end-to-end metrics (END_TO_END) with tracing
off. It prints one line per metric (name, value, unit, sample count) and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` runs the separate traced replay of tracer.py and reports the
per-layer metrics the same way.

Each workload is a stream of groups of operations; OPERATION says what
one operation is. Every timed operation and set-up probe is bracketed by
the reference loop of speed.py, and the time metrics are wall times
scaled to that loop's reference speed, because a shared machine's speed
drifts by tens of percent for minutes at a time. Set-up is probed at even
steps of busy time through the run, so the probes see the same machine
as the workload. Every run also writes its full result, with the raw
wall-time figures, the speed factors, the environment record, the pinned
thread settings and the check failures, to ``--out`` (default
``.perfbench_out``) as ``<workload>-s<seed>-trace<t>.json``.

The inputs of each run come from ``--seed`` (workloads.py); every output
is checked (checks.py), and a failed check counts toward ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child

import checks  # noqa: E402
import libloop  # noqa: E402
import spawner  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_short", "table_bulk", "sim_grid", "lib_scalar")

# name -> (unit, meaning); every workload reports all of them. Times are
# scaled to the reference speed of speed.py.
END_TO_END = {
    "setup_s": ("s", "median time of a fresh interpreter that imports iondecoh and loads the bundled salt table"),
    "peak_rss_mb": ("MB", "largest peak RSS of any process doing iondecoh work in the run"),
    "latency_p50_s": ("s", "median time of one operation"),
    "latency_p75_s": ("s", "75th percentile time of one operation"),
    "throughput_per_s": ("1/s", "work items completed per second of operation time"),
}

# what one operation and one work item are, per workload
OPERATION = {
    "cli_short": ("one CLI invocation, spawn to exit", "invocations"),
    "table_bulk": ("one table invocation over the generated file, spawn to exit", "salt rows"),
    "sim_grid": ("one round of sim invocations, one per grid size, spawn to exit", "density-matrix elements certified, N^2 per sample"),
    "lib_scalar": ("one scalar library case in a warm process", "library cases"),
}

SETUP_CODE = "import iondecoh; iondecoh.bundled_salt_database()"


class Context:
    """What one run needs: the checkout, its scratch directory and the child launcher."""

    root = ROOT

    def __init__(self, workdir: str, out_dir: str, sizes, spawner, checker):
        self.workdir, self.out_dir, self.sizes = workdir, out_dir, sizes
        self.spawner, self.checker = spawner, checker
        self.clock = speed.Clock()

    def cli(self, argv: list) -> dict:
        return self.spawner.run([sys.executable, "-m", "iondecoh.cli", *argv])


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    """Machine, interpreter, library versions and the code under test."""
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "threads": THREAD_ENV,
        "load": "closed loop, 1 client",
    }
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        record["blas"] = None
    try:
        record["cpu_model"] = next(
            line.split(":", 1)[1].strip()
            for line in open("/proc/cpuinfo", encoding="utf-8")
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        record["cpu_model"] = None
    record["commit"] = None  # the checkout need not be a git repository; src_sha256 identifies the code
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            record["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    record["src_sha256"] = digest.hexdigest()
    return record


class SetupProbes:
    """Set-up time, probed at even steps of busy time through the run.

    An untimed probe first fills the bytecode cache. ``due`` runs the
    probes whose step the run's busy time has reached; ``finish`` the rest.
    """

    def __init__(self, ctx: Context, reps: int, seconds: float):
        self.ctx, self.reps, self.step = ctx, reps, seconds / reps
        self.raw, self.scaled = [], []
        self._probe()

    def _probe(self) -> tuple:
        reply = self.ctx.spawner.run([sys.executable, "-c", SETUP_CODE])
        if reply["returncode"] != 0:
            raise RuntimeError(f"import of iondecoh failed: {reply['stderr'].strip()[-500:]}")
        return reply["wall_s"], self.ctx.clock.scale(reply["wall_s"])

    def due(self, busy: float) -> None:
        while len(self.raw) < self.reps and busy >= len(self.raw) * self.step:
            raw, scaled = self._probe()
            self.raw.append(raw)
            self.scaled.append(scaled)

    def finish(self) -> None:
        self.due(float("inf"))


MIN_GROUPS = {"cli_short": "cli_min_blocks", "table_bulk": "bulk_min_pairs", "sim_grid": "sim_min_rounds"}


def run_cli_workload(name: str, seed: int, seconds: float, ctx: Context, probes: SetupProbes, tally):
    """Run groups of CLI calls until the next group would pass ``seconds`` of busy time."""
    min_groups = getattr(ctx.sizes, MIN_GROUPS[name])
    whole_group = name in workloads.GROUP_IS_ONE_OPERATION
    by_label = {}
    for count, group in enumerate(workloads.GENERATORS[name](seed, ROOT, ctx.workdir, ctx.sizes), start=1):
        group_raw = group_scaled = 0.0
        for op in group:
            probes.due(tally.busy)
            reply = ctx.cli(op.argv)
            wall = reply["wall_s"]
            scaled = ctx.clock.scale(wall)
            problem = ctx.checker.check(op, reply["returncode"], reply["stdout"], reply["stderr"])
            if problem is not None:
                tally.fail(f"{problem} [argv: {' '.join(op.argv)}]")
            tally.attempted += 1
            tally.items += op.items
            tally.processes += 1
            tally.peak_kb = max(tally.peak_kb, reply["maxrss_kb"])
            tally.busy += wall
            tally.scaled_busy += scaled
            group_raw += wall
            group_scaled += scaled
            by_label.setdefault(op.label, []).append(scaled)
            if not whole_group:
                tally.raw_latencies.append(wall)
                tally.latencies.append(scaled)
        if whole_group:
            tally.raw_latencies.append(group_raw)
            tally.latencies.append(group_scaled)
        if count >= min_groups and tally.busy * (count + 1) / count > seconds:
            break
    tally.extra["median_by_kind"] = {k: statistics.median(v) for k, v in sorted(by_label.items())}
    tally.extra["groups"] = count


def run_lib_scalar(name: str, seed: int, seconds: float, ctx: Context, probes: SetupProbes, tally):
    """Cases in ``lib_children`` child processes one after another; the parent checks every result."""
    rows = workloads.bundled_rows(ROOT)
    result_path = os.path.join(ctx.workdir, "lib_result.bin")
    children = ctx.sizes.lib_children
    for part in range(children):
        probes.due(tally.busy)
        reply = ctx.spawner.run(
            [sys.executable, libloop.__file__, str(seed), str(part), repr(seconds / children),
             str(-(-ctx.sizes.lib_min_cases // children)), result_path],
            timeout=170.0,
        )
        if reply["returncode"] != 0:
            raise RuntimeError(f"lib_scalar child failed: {reply['stderr'].strip()[-1000:]}")
        tally.processes += 1
        tally.peak_kb = max(tally.peak_kb, reply["maxrss_kb"])
        raised = iter(reply["stderr"].splitlines())
        cases = workloads.lib_cases(seed, rows, part)
        for wall, factor, result in zip(*libloop.read_results(result_path)):
            case = next(cases)
            if result is None:
                problem = next(raised, "lib case raised")
            else:
                problem = checks.check_lib_case(rows[case[0]], case, result)
            if problem is not None:
                tally.fail(problem)
            tally.attempted += 1
            tally.items += 1
            tally.busy += wall
            tally.scaled_busy += wall * factor
            tally.raw_latencies.append(wall)
            tally.latencies.append(wall * factor)
    tally.extra["lib_case_p99_us"] = float(np.percentile(tally.latencies, 99)) * 1e6


def end_to_end(name: str, seed: int, seconds: float, ctx: Context):
    tally = checks.Tally()
    probes = SetupProbes(ctx, ctx.sizes.setup_reps, seconds)
    run_workload = run_lib_scalar if name == "lib_scalar" else run_cli_workload
    run_workload(name, seed, seconds, ctx, probes, tally)
    probes.finish()
    p50, p75 = np.percentile(tally.latencies, [50, 75])
    n_ops = len(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(probes.scaled), len(probes.scaled)),
        "peak_rss_mb": (tally.peak_kb / 1024.0, tally.processes),
        "latency_p50_s": (float(p50), n_ops),
        "latency_p75_s": (float(p75), n_ops),
        "throughput_per_s": (tally.items / tally.scaled_busy, n_ops),
    }
    raw_p50, raw_p75 = np.percentile(tally.raw_latencies, [50, 75])
    tally.extra["raw_wall"] = {
        "setup_s": statistics.median(probes.raw),
        "latency_p50_s": float(raw_p50),
        "latency_p75_s": float(raw_p75),
        "throughput_per_s": tally.items / tally.busy,
    }
    factors = ctx.clock.factors
    tally.extra["speed_factor"] = {"median": statistics.median(factors), "min": min(factors), "max": max(factors),
                                   "parent_samples": len(factors)}
    tally.extra["failed_fraction"] = tally.failed / tally.attempted
    tally.extra["operation"], tally.extra["item"] = OPERATION[name]
    return {k: (v, END_TO_END[k][0], n) for k, (v, n) in metrics.items()}, tally


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes, out_dir: str) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        with spawner.Spawner(child_env(), ROOT, workdir) as launcher:
            ctx = Context(workdir, out_dir, sizes, launcher, checks.Checker())
            if trace:
                metrics, tally = tracer.traced_run(name, seed, ctx)
            else:
                metrics, tally = end_to_end(name, seed, seconds, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "extra": tally.extra,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-s{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    env = record["environment"]
    print(f"# {name} seed={seed} trace={int(trace)}: {workloads.WHY[name]}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, threads pinned to 1, commit {env['commit']}, src sha256 {env['src_sha256'][:12]}")
    for key, (value, unit, n) in metrics.items():
        print(f"{name}  {key:<34} {value:>14.6g} {unit:<8} (n={n})")
    print(f"{name}  failed_fraction {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for message in tally.failures:
        print(f"{name}  FAILED: {message}", file=sys.stderr)
    return record


def main(argv=None, sizes=workloads.FULL) -> int:
    """The benchmark command; ``sizes`` is FULL except in the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"), help="directory for full results")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iondecoh", "cli.py")):
        print(f"error: no iondecoh sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_one(name, args.seed, args.seconds, bool(args.trace), sizes, args.out) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
