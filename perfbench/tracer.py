"""The traced run: per-layer metrics from spans around calls into iondecoh.

Spans are recorded from the benchmark's side (spans.py), kept in memory and
written once, gzipped, when the run ends. A layer's self time is the time
of its spans minus the time of their child spans.

The replay runs in process: the traced workload's own inputs, then a
smaller slice of the other three workloads' inputs, so every layer metric
is measured whichever workload is named. Before it, each of the traced
workload's inputs runs once untraced and once traced, in turn; the ratio
of the two totals is the tracing overhead. ``units`` is timed by a loop, not
by spans: one ``Quantity`` operation costs less than a span.

Per-size densmat metrics (``.n256``, ``.n512``, ``.n1024``) are totals over
one sim call of sim_grid at its first, second and third grid size, with
the step counts sim_grid uses. ``vacuum.*.k1e6`` is the cli_short bcs call
with the most modes. ``state_bytes`` and ``eig_flops`` are computed, not
measured: N^2 x 16 bytes per complex state, and 16/3 N^3 real flops per
Hermitian eigenvalue solve (the tridiagonal reduction) times the solves.
``densmat.share_of_wall.n1024`` is the densmat time of the largest sim_grid
call, traced in a fresh process, over that process's wall time, spawn to
exit: the in-process replay runs with warm memory, so its densmat time
and a fresh call's wall do not compare.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import re
import statistics
import sys
import time

import checks
import libloop
import workloads
from spans import LAYERS, SCRIPT as SPANS_SCRIPT, SpanRecorder, call_main


SIZE_TAGS = ("n256", "n512", "n1024")
DENSMAT_PHASES = {
    "prepare_s": "prepare_superposition",
    "kernel_s": "suppression_kernel",
    "apply_s": "apply_decoherence",  # self time: the kernel build is its child
    "check_s": "check_invariants",
    "min_eig_s": "min_eigenvalue",
    "coherence_s": "coherence_ratio",
    "evolve_s": "evolve_series",
}
SUBCOMMANDS = ("table", "factor", "sim", "xray", "bcs", "classify")

# layer metric (prefix) -> the end-to-end metrics and workloads it should move
PREDICTED = {
    "cli.import_s": "setup_s (all); latency_p50_s, latency_p75_s (cli_short); throughput_per_s (table_bulk, small share)",
    "cli.import_scipy_s": "setup_s (all); latency_p50_s, latency_p75_s (cli_short)",
    "cli.import_numpy_s": "setup_s (all); latency_p50_s, latency_p75_s (cli_short)",
    "cli.build_parser_s": "latency_p50_s, latency_p75_s (cli_short)",
    "cli.main_s": "latency_p50_s, latency_p75_s (cli_short)",
    "cli.spawn_overhead_s": "setup_s (all); latency_p50_s, latency_p75_s (cli_short)",
    "materials.": "throughput_per_s, latency_p50_s (table_bulk); setup_s (all, load_bundled_ms)",
    "units.": "throughput_per_s (table_bulk); latency_p50_s, latency_p75_s, throughput_per_s (lib_scalar)",
    "core.": "throughput_per_s (table_bulk); latency_p50_s, latency_p75_s, throughput_per_s (lib_scalar)",
    "regimes.": "latency_p50_s, throughput_per_s (lib_scalar)",
    "vacuum.": "latency_p75_s, peak_rss_mb (cli_short, the 1e6-mode bcs call)",
    "densmat.": "latency_p50_s, latency_p75_s, throughput_per_s, peak_rss_mb (sim_grid); no change on cli_short or table_bulk",
    "self_s.": "the end-to-end metrics of the workloads where that layer's time sits, as above",
}

IMPORT_PROBE = "import time; t = time.perf_counter(); import iondecoh.cli; print(time.perf_counter() - t)"
IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def per_call_ns(fn, loops: int) -> float:
    """Median over five timed loops of ns per call, minus an empty call's cost."""

    def loop(f):
        start = time.perf_counter_ns()
        for _ in range(loops):
            f()
        return (time.perf_counter_ns() - start) / loops

    def empty():
        return None

    return statistics.median(loop(fn) - loop(empty) for _ in range(5))


class Replay:
    """The in-process inputs of one workload: CLI ops or scalar library cases."""

    def __init__(self, workload, ops=(), cases=()):
        self.workload, self.ops, self.cases = workload, list(ops), list(cases)


def build_replays(named, seed, ctx):
    """Full-size inputs of the named workload, reduced inputs of the others."""
    sizes, root, workdir = ctx.sizes, ctx.root, ctx.workdir
    cli_blocks = workloads.cli_short(seed, root, workdir, sizes)
    n_blocks = sizes.cli_min_blocks if named == "cli_short" else 1
    rows = sizes.bulk_rows if named == "table_bulk" else sizes.trace_bulk_rows
    salts = workloads.bundled_rows(root)
    cases = workloads.lib_cases(seed, salts)
    replays = {
        "cli_short": Replay("cli_short", [op for _ in range(n_blocks) for op in next(cli_blocks)]),
        "table_bulk": Replay("table_bulk", next(workloads.table_bulk(seed, root, workdir, sizes, rows))),
        "sim_grid": Replay("sim_grid", next(workloads.sim_grid(seed, root, workdir, sizes))),
        "lib_scalar": Replay("lib_scalar", cases=[next(cases) for _ in range(sizes.trace_lib_cases)]),
    }
    order = [named] + [w for w in replays if w != named]
    return [replays[w] for w in order], salts


def traced_run(named: str, seed: int, ctx):
    import iondecoh as d
    from iondecoh import cli, units

    sizes = ctx.sizes
    tally = checks.Tally()
    records = d.bundled_salt_database()
    replays, salts = build_replays(named, seed, ctx)
    ops_by_id = {}

    def run_replay(replay, recorder=None):
        """Run and check every input."""
        for op in replay.ops:
            if recorder is not None:
                recorder.op_id = len(ops_by_id)
                ops_by_id[recorder.op_id] = (replay.workload, op)
            code, out, err = call_main(cli, op.argv)
            problem = ctx.checker.check(op, code, out, err)
            tally.attempted += 1
            if problem is not None:
                tally.fail(f"{problem} [argv: {' '.join(op.argv)}]")
        if recorder is not None and replay.cases:
            recorder.op_id = len(ops_by_id)
            ops_by_id[recorder.op_id] = (replay.workload, None)
        for case in replay.cases:
            try:
                result = libloop.run_case(d, units, records, case)
            except Exception as exc:  # a case the library rejects counts as failed
                result, problem = None, f"lib case raised {type(exc).__name__}: {exc}"
            if result is not None:
                problem = checks.check_lib_case(salts[case[0]], case, result)
            tally.attempted += 1
            if problem is not None:
                tally.fail(problem)

    metrics = {}

    def put(name, value, unit, n):
        metrics[name] = (value, unit, n)

    # untraced: imports in fresh children, parser build, units loops, spawn overhead
    probes = [ctx.spawner.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE]) for _ in range(3)]
    imports = [_import_split(p) for p in probes]
    put("cli.import_s", statistics.median(i[0] for i in imports), "s", len(imports))
    put("cli.import_scipy_s", statistics.median(i[1] for i in imports), "s", len(imports))
    put("cli.import_numpy_s", statistics.median(i[2] for i in imports), "s", len(imports))
    parser_times = []
    for _ in range(20):
        start = time.perf_counter()
        cli.build_parser()
        parser_times.append(time.perf_counter() - start)
    put("cli.build_parser_s", statistics.median(parser_times), "s", len(parser_times))
    loops = sizes.trace_units_loops
    mass, length, area = units.Quantity(2.0, units.MASS), units.Quantity(3.0, units.LENGTH), units.Quantity(4.0, units.AREA)
    put("units.mul_ns", per_call_ns(lambda: mass * length, loops), "ns", 5)
    put("units.div_ns", per_call_ns(lambda: mass / length, loops), "ns", 5)
    put("units.sqrt_ns", per_call_ns(lambda: area.sqrt(), loops), "ns", 5)
    put("units.require_ns", per_call_ns(lambda: length.require(units.LENGTH, "x"), loops), "ns", 5)

    cli_replay = next(r for r in replays if r.workload == "cli_short")
    spawn_ops = [op for op in cli_replay.ops if op.kind != "error"][: sizes.trace_spawn_probes]
    overheads = []
    for op in spawn_ops:
        start = time.perf_counter()
        call_main(cli, op.argv)
        in_process = time.perf_counter() - start
        overheads.append(ctx.cli(op.argv)["wall_s"] - in_process)
    put("cli.spawn_overhead_s", statistics.median(overheads), "s", len(overheads))
    largest_sim = next(r for r in replays if r.workload == "sim_grid").ops[-1]
    shares = [_densmat_share(ctx, largest_sim.argv) for _ in range(2)]
    put(f"densmat.share_of_wall.{SIZE_TAGS[-1]}", statistics.median(s for s, _, _ in shares), "ratio", len(shares))

    # warm first-call paths, time the tracing overhead, then trace everything
    run_replay(Replay("cli_short", cli_replay.ops[: len(workloads.CLI_BLOCK) + 1]))
    untraced, traced = _tracing_overhead(replays[0], cli, d, units, records)
    put("trace.overhead_ratio", traced / untraced - 1.0, "ratio", len(replays[0].ops) + len(replays[0].cases))
    recorder = SpanRecorder()
    with recorder:
        for replay in replays:
            run_replay(replay, recorder)
        recorder.op_id = len(ops_by_id)
        ops_by_id[recorder.op_id] = ("probe", None)
        for _ in range(10):
            d.bundled_salt_database()

    spans = recorder.spans
    _span_metrics(spans, ops_by_id, sizes, put)
    put("run.failed_fraction", tally.failed / tally.attempted, "ratio", tally.attempted)

    os.makedirs(ctx.out_dir, exist_ok=True)
    spans_path = os.path.join(ctx.out_dir, f"{named}-s{seed}-spans.json.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
        json.dump({
            "fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "spans": spans,
            "ops": {i: [w, op.kind if op else None] for i, (w, op) in ops_by_id.items()},
        }, handle)
    tally.extra.update(
        predicted=PREDICTED,
        spans_file=spans_path,
        replayed={r.workload: len(r.ops) + len(r.cases) for r in replays},
        spans=len(spans),
        tracing_overhead={"untraced_s": untraced, "traced_s": traced},
        densmat_share_probes=[{"densmat_s": d_s, "wall_s": w_s} for _, d_s, w_s in shares],
    )
    print("# predicted moves, layer metric -> end-to-end metric (workload):")
    for prefix, moves in PREDICTED.items():
        print(f"#   {prefix:<22} -> {moves}")
    return metrics, tally


def _import_split(reply):
    """(import iondecoh.cli wall s, scipy self s, numpy self s) from one -X importtime child."""
    if reply["returncode"] != 0:
        raise RuntimeError(f"import probe failed: {reply['stderr'][-500:]}")
    scipy_us = numpy_us = 0
    for line in reply["stderr"].splitlines():
        match = IMPORT_LINE.match(line)
        if match:
            module = match.group(3).strip().split(".")[0]
            if module == "scipy":
                scipy_us += int(match.group(1))
            elif module == "numpy":
                numpy_us += int(match.group(1))
    return float(reply["stdout"].strip().splitlines()[-1]), scipy_us * 1e-6, numpy_us * 1e-6


def _tracing_overhead(replay, cli, d, units, records, chunk=100):
    """(untraced s, traced s) over the replay's inputs, each op or chunk of
    cases run once untraced and once traced, in alternating order, so that
    the machine's drift falls on both sides alike. Outputs are not checked."""
    items = [lambda op=op: call_main(cli, op.argv) for op in replay.ops]
    items += [
        lambda part=replay.cases[i:i + chunk]: [libloop.run_case(d, units, records, case) for case in part]
        for i in range(0, len(replay.cases), chunk)
    ]
    totals = [0.0, 0.0]  # untraced, traced
    for index, item in enumerate(items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with SpanRecorder() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                item()
                totals[traced] += time.perf_counter() - start
    return totals[0], totals[1]


def _densmat_share(ctx, argv):
    """(share, densmat s, wall s) of one traced sim call in a fresh process (spans.py)."""
    reply = ctx.spawner.run([sys.executable, SPANS_SCRIPT, *argv])
    if reply["returncode"] != 0:
        raise RuntimeError(f"traced sim child failed: {reply['stderr'].strip()[-500:]}")
    densmat_s = json.loads(reply["stdout"])["densmat_s"]
    return densmat_s / reply["wall_s"], densmat_s, reply["wall_s"]


def _span_metrics(spans, ops_by_id, sizes, put):
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name, self_by_layer = {}, {}
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + (end - start - child_ns[i])

    def durations(name, workload=None):
        return [(spans[i][2] - spans[i][1]) * 1e-9 for i in by_name.get(name, ())
                if workload is None or ops_by_id[spans[i][4]][0] == workload]

    for layer in LAYERS:
        put(f"self_s.{layer}", self_by_layer.get(layer, 0) * 1e-9, "s", len(spans))
    for sub in SUBCOMMANDS:
        mains = durations(f"cli.main.{sub}", "cli_short")
        put(f"cli.main_s.{sub}", statistics.median(mains), "s", len(mains))

    bundled = durations("materials.bundled_salt_database")
    put("materials.load_bundled_ms", statistics.median(bundled) * 1e3, "ms", len(bundled))
    loads = [(i, spans[i]) for i in by_name["materials.load_salts"] if ops_by_id[spans[i][4]][0] == "table_bulk"]
    rows = sum(ops_by_id[s[4]][1].items for _, s in loads)
    put("materials.load_rows_per_s", rows / sum((s[2] - s[1]) * 1e-9 for _, s in loads), "rows/s", len(loads))

    for metric, fname in (("context_us", "context_for_salt"), ("wavelength_us", "de_broglie_wavelength"),
                          ("rate_us", "scattering_rate"), ("tau1_us", "tau1"), ("tau2_us", "tau2"),
                          ("factor_us", "decoherence_factor")):
        values = durations(f"core.{fname}")
        put(f"core.{metric}", statistics.median(values) * 1e6, "us", len(values))
    for metric, fname in (("classify_us", "classify"), ("xray_us", "xray_consistency")):
        values = durations(f"regimes.{fname}")
        put(f"regimes.{metric}", statistics.median(values) * 1e6, "us", len(values))

    k = f"k{sizes.big_modes}"
    for metric, name in (("family_s.k1e6", f"vacuum.family.{k}"), ("log_overlap_s.k1e6", f"vacuum.log_vacuum_overlap.{k}")):
        values = durations(name, "cli_short")
        put(f"vacuum.{metric}", statistics.median(values), "s", len(values))

    for tag, (n, _steps) in zip(SIZE_TAGS, sizes.sim_grid):
        for metric, fname in DENSMAT_PHASES.items():
            indices = [i for i in by_name.get(f"densmat.{fname}.n{n}", ())
                       if ops_by_id[spans[i][4]][0] == "sim_grid"]
            if metric == "apply_s":
                total = sum(spans[i][2] - spans[i][1] - child_ns[i] for i in indices)
            else:
                total = sum(spans[i][2] - spans[i][1] for i in indices)
            put(f"densmat.{metric}.{tag}", total * 1e-9, "s", len(indices))
        solves = len(durations(f"densmat.min_eigenvalue.n{n}", "sim_grid"))
        put(f"densmat.state_bytes.{tag}", n * n * 16, "bytes", 1)
        put(f"densmat.eig_flops.{tag}", solves * 16.0 / 3.0 * n ** 3, "flop", solves)

