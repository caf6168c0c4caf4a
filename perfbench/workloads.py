"""Seeded inputs for the four benchmark workloads.

Every input iondecoh sees (argv, data files, library arguments) is drawn
here from ``random.Random(seed)``, so one seed always gives the same
inputs. Values come from the documented valid domain of each subcommand;
the only invalid inputs are the two documented error cases of
``cli_short`` (unknown salt -> exit 1, malformed data file -> exit 2).

Each workload is a stream of *groups*. The run loop only stops between
groups, so every run sees the same mix of operations whatever its seed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field

SALTS_CSV = os.path.join("src", "iondecoh", "data", "salts.csv")

# Why each workload exists; copied into BENCHMARK.json and every result.
WHY = {
    "cli_short": "every subcommand at small size, one process per call: interpreter start and imports dominate, densmat does almost no work",
    "table_bulk": "table over a 10k-row data file: materials parsing and the scalar units/core formulas dominate, densmat does none",
    "sim_grid": "sim at N=256/512/1024: the O(N^3) eigensolve of the densmat invariant check dominates, plus its N^2 memory",
    "lib_scalar": "in-process loop of scalar library cases: the per-call Quantity cost that start-up hides in cli_short",
}

FORMATS = ("human", "csv", "json")


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. FULL is the benchmark; TINY is for the smoke test."""

    cli_min_blocks: int
    cli_sim_points: int
    big_modes: int
    bulk_rows: int
    bulk_min_pairs: int
    sim_grid: tuple  # (num_points, steps) per size, smallest first
    sim_min_rounds: int
    lib_min_cases: int
    lib_children: int  # lib_scalar runs its cases in this many child processes, one after another
    setup_reps: int
    trace_bulk_rows: int  # table_bulk replay size when another workload is traced
    trace_lib_cases: int  # lib_scalar replay size in a traced run
    trace_spawn_probes: int
    trace_units_loops: int


FULL = Sizes(
    cli_min_blocks=4,
    cli_sim_points=64,
    big_modes=1_000_000,
    bulk_rows=10_000,  # ~1.7 s calls: enough of them per run to steady the median
    bulk_min_pairs=2,
    sim_grid=((256, 12), (512, 4), (1024, 1)),
    sim_min_rounds=3,
    lib_min_cases=100_000,
    lib_children=4,
    setup_reps=12,
    trace_bulk_rows=2_000,
    trace_lib_cases=10_000,
    trace_spawn_probes=5,
    trace_units_loops=20_000,
)

TINY = Sizes(
    cli_min_blocks=1,
    cli_sim_points=16,
    big_modes=2_000,
    bulk_rows=40,
    bulk_min_pairs=1,
    sim_grid=((16, 2), (20, 2), (24, 2)),
    sim_min_rounds=1,
    lib_min_cases=50,
    lib_children=2,
    setup_reps=2,
    trace_bulk_rows=40,
    trace_lib_cases=50,
    trace_spawn_probes=1,
    trace_units_loops=200,
)


@dataclass
class Op:
    """One CLI invocation: argv after ``iondecoh`` plus what its check needs."""

    kind: str
    argv: list
    fmt: str
    output: str | None = None
    items: int = 1
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Name of this op's median wall time in a result's ``median_by_kind``."""
        if self.kind == "sim":
            return f"sim_wall_n{self.expect['num_points']}_s"
        return f"{self.kind}_wall_s"


@dataclass(frozen=True)
class SaltRow:
    fields: tuple  # the ten CSV fields as text

    @property
    def name(self) -> str:
        return self.fields[0]

    @property
    def rate_estimate(self) -> float:
        """Scattering rate 1/(N tau1) at the defaults (N = 1e23, 310 K), from ref_tau1."""
        return 1.0 / (1e23 * float(self.fields[8]) * 1e-40)


def bundled_rows(root: str) -> list[SaltRow]:
    with open(os.path.join(root, SALTS_CSV), encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    return [
        SaltRow(tuple(f.strip() for f in line.split(",")))
        for line in lines
        if line and not line.startswith("#")
    ]


def _num(value: float) -> str:
    return repr(float(value))


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _with_format(argv, fmt, output):
    argv = argv + ["--format", fmt]
    if output is not None:
        argv += ["--output", output]
    return argv


# -- sim inputs (shared by cli_short and sim_grid) ------------------------------

def sim_op(rng, salts, num_points, steps, fmt, output) -> Op:
    """A sim call whose separation is a whole number of grid steps.

    The grid spans 40 widths (the default), so packet centres stay five
    widths inside the boundary for any separation up to 30 widths, that
    is 0.75 (N - 1) grid steps. t_total keeps the rate-time product in
    [0.1, 3], so the final coherence stays well above underflow.
    """
    width = _log_uniform(rng, -11.5, -9.5)
    spacing = 40.0 * width / (num_points - 1)
    separation = rng.randint(1, int(0.7 * (num_points - 1))) * spacing
    argv = ["sim"]
    expect = {"num_points": num_points, "steps": steps, "separation": separation, "width": width}
    if rng.random() < 0.5:
        salt = rng.choice(salts)
        argv += ["--salt", salt.name]
        rate = salt.rate_estimate
        expect["salt"] = salt.name
    else:
        rate = _log_uniform(rng, 14, 17)
        wavelength = _log_uniform(rng, -12, -10)
        argv += ["--wavelength", _num(wavelength), "--rate", _num(rate)]
        expect.update(wavelength=wavelength, rate=rate)
    t_total = rng.uniform(0.1, 3.0) / rate
    phase = rng.uniform(0.0, 2.0 * math.pi)
    expect.update(t_total=t_total)
    argv += [
        "--separation", _num(separation), "--width", _num(width),
        "--t-total", _num(t_total), "--steps", str(steps),
        "--num-points", str(num_points), "--phase", _num(phase),
    ]
    return Op("sim", _with_format(argv, fmt, output), fmt, output, expect=expect)


# -- cli_short -----------------------------------------------------------------

CLI_BLOCK = ("table_all", "table", "factor", "factor", "xray", "classify", "classify", "bcs", "sim", "error")


def cli_short(seed: int, root: str, workdir: str, sizes: Sizes):
    """Blocks of ten invocations, one of each kind in CLI_BLOCK, shuffled.

    Block 0 also carries the one 1e6-mode bcs call. Five of every ten
    invocations write through --output; the rest go to stdout.
    """
    rng = random.Random(seed)
    salts = bundled_rows(root)
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    bad_file = os.path.join(workdir, "malformed.csv")
    with open(bad_file, "w", encoding="utf-8") as handle:
        handle.write(",".join(salts[0].fields) + "\n")
        handle.write(",".join(salts[1].fields[:-1]) + "\n")  # nine fields
    serial = itertools.count()

    def output_path(fmt):
        return os.path.join(out_dir, f"o{next(serial)}.{ 'txt' if fmt == 'human' else fmt}")

    for block in itertools.count():
        kinds = list(CLI_BLOCK) + (["bcs_big"] if block == 0 else [])
        rng.shuffle(kinds)
        to_file = set(rng.sample(range(len(kinds)), len(kinds) // 2))
        ops = []
        for i, kind in enumerate(kinds):
            fmt = rng.choice(FORMATS)
            out = output_path(fmt) if i in to_file else None
            ops.append(_cli_op(kind, rng, salts, sizes, fmt, out, bad_file))
        yield ops


def _thermal(rng, argv, expect):
    """Half the calls keep the default 310 K and N = 1e23."""
    expect["temperature"], expect["ion_count"] = 310.0, 1e23
    if rng.random() < 0.5:
        expect["temperature"] = rng.uniform(250.0, 400.0)
        expect["ion_count"] = _log_uniform(rng, 18, 24)
        argv += ["--temperature", _num(expect["temperature"]), "--ion-count", _num(expect["ion_count"])]


def _cli_op(kind, rng, salts, sizes, fmt, out, bad_file) -> Op:
    if kind == "table_all":
        # the bundled table at the defaults, so the NaCl anchor row is checked every block
        argv = ["table", "--salts", "all"]
        expect = {"salts": None, "temperature": 310.0, "ion_count": 1e23, "nacl_anchor": True}
        return Op("table", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind == "table":
        names = [s.name for s in rng.sample(salts, rng.randint(1, 5))]
        argv = ["table", "--salts", ",".join(names)]
        expect = {"salts": names}
        _thermal(rng, argv, expect)
        return Op("table", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind == "factor":
        dx = _log_uniform(rng, -12, -8)
        expect = {"dx": dx}
        if rng.random() < 0.5:
            salt = rng.choice(salts)
            argv = ["factor", "--salt", salt.name]
            rate = salt.rate_estimate
            expect["salt"] = salt.name
            _thermal(rng, argv, expect)
        else:
            rate = _log_uniform(rng, 14, 17)
            wavelength = _log_uniform(rng, -12, -10)
            argv = ["factor", "--wavelength", _num(wavelength), "--rate", _num(rate)]
            expect.update(wavelength=wavelength, rate=rate)
        expect["time"] = rng.uniform(0.01, 3.0) / rate
        argv += ["--dx", _num(dx), "--time", _num(expect["time"])]
        return Op("factor", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind == "xray":
        salt = rng.choice(salts)
        tau_x = _log_uniform(rng, -19, -17)
        argv = ["xray", "--salt", salt.name, "--tau-x", _num(tau_x)]
        expect = {"salt": salt.name, "tau_x": tau_x}
        _thermal(rng, argv, expect)
        return Op("xray", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind == "classify":
        observed = rng.random() < 0.5
        threshold = _log_uniform(rng, 1, 5)
        expect = {"observed": observed, "threshold": threshold}
        if rng.random() < 0.3:
            salt = rng.choice(salts)
            argv = ["classify", "--salt", salt.name]
            expect["salt"] = salt.name
            _thermal(rng, argv, expect)
            tau_dyn = _log_uniform(rng, -3, 1)
        else:
            tau1, tau2 = _log_uniform(rng, -12, -6), _log_uniform(rng, -12, -6)
            argv = ["classify", "--tau1", _num(tau1), "--tau2", _num(tau2)]
            # ratio tau_dyn / min(tau1, tau2) spans both sides of the threshold
            tau_dyn = min(tau1, tau2) * _log_uniform(rng, 0, 6)
        expect["tau_dyn"] = tau_dyn
        argv += ["--tau-dyn", _num(tau_dyn), "--threshold", _num(threshold)]
        if observed:
            argv.append("--observed-coherence")
        return Op("classify", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind in ("bcs", "bcs_big"):
        if kind == "bcs_big":
            counts = [sizes.big_modes]
        else:
            counts = sorted(rng.sample(range(1, 20_001), rng.choice((1, 3, 4))))
        argv = ["bcs", "--modes", ",".join(str(k) for k in counts)]
        expect = {"counts": counts}
        if kind == "bcs" and rng.random() < 0.5:
            expect["uniform_u"] = rng.uniform(0.5, 0.999)
            argv += ["--uniform-u", _num(expect["uniform_u"])]
        else:
            expect.update(gap=rng.uniform(0.05, 0.5), half_bandwidth=rng.uniform(0.5, 2.0), seed=rng.randrange(2**31))
            argv += [
                "--gap", _num(expect["gap"]), "--half-bandwidth", _num(expect["half_bandwidth"]),
                "--seed", str(expect["seed"]),
            ]
        return Op("bcs", _with_format(argv, fmt, out), fmt, out, expect=expect)
    if kind == "sim":
        return sim_op(rng, salts, sizes.cli_sim_points, rng.randint(5, 20), fmt, out)
    if kind == "error":
        if rng.random() < 0.5:
            name = "Xx" + "".join(rng.choice("abcdefghij") for _ in range(6))
            argv = rng.choice((
                ["table", "--salts", name],
                ["factor", "--salt", name, "--dx", "1e-10", "--time", "1e-17"],
                ["classify", "--salt", name, "--tau-dyn", "1.0"],
            ))
            code = 1
        else:
            argv = ["table", "--data-file", bad_file]
            code = 2
        return Op("error", _with_format(argv, fmt, out), fmt, out, expect={"exit": code})
    raise ValueError(f"unknown op kind {kind!r}")


# -- table_bulk ----------------------------------------------------------------

def write_bulk_file(rng: random.Random, salts: list[SaltRow], rows: int, path: str) -> None:
    """``rows`` valid records, each a bundled row with perturbed numbers and a unique name."""
    lines = ["# generated salt table"]
    for i in range(rows):
        f = salts[i % len(salts)].fields
        scaled = [
            f"{float(f[2]) * rng.uniform(0.95, 1.05):.4f}",
            f"{float(f[4]) * rng.uniform(0.95, 1.05):.4f}",
            f"{float(f[5]) * rng.uniform(0.8, 1.25):.1f}",
            f"{float(f[6]) * rng.uniform(0.9, 1.1):.4f}",
        ]
        water = f[7] if rng.random() < 0.5 else "-"
        refs = [
            f"{float(v) * rng.uniform(0.9, 1.1):.2f}" if rng.random() < 0.7 else "-"
            for v in (f[8], f[9])
        ]
        lines.append(",".join([f"{f[0]}-{i:05d}", f[1], scaled[0], f[3], scaled[1], *scaled[2:], water, *refs]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def table_bulk(seed: int, root: str, workdir: str, sizes: Sizes, rows: int | None = None):
    """Pairs of table calls (csv, then json) over one generated data file."""
    rng = random.Random(seed)
    rows = sizes.bulk_rows if rows is None else rows
    path = os.path.join(workdir, f"bulk-{rows}.csv")
    write_bulk_file(rng, bundled_rows(root), rows, path)
    while True:
        yield [
            Op("table", ["table", "--data-file", path, "--format", fmt], fmt, items=rows,
               expect={"salts": None, "data_file": path, "temperature": 310.0, "ion_count": 1e23})
            for fmt in ("csv", "json")
        ]


# -- sim_grid ------------------------------------------------------------------

def sim_grid(seed: int, root: str, workdir: str, sizes: Sizes):
    """Rounds of one sim call per grid size, csv and json in turn.

    A work item is one density-matrix element certified, N^2 per sample.
    """
    rng = random.Random(seed)
    salts = bundled_rows(root)
    for round_index in itertools.count():
        fmt = ("csv", "json")[round_index % 2]
        ops = [sim_op(rng, salts, n, steps, fmt, None) for n, steps in sizes.sim_grid]
        for op, (n, steps) in zip(ops, sizes.sim_grid):
            op.items = n * n * (steps + 1)
        yield ops


# -- lib_scalar ----------------------------------------------------------------

def lib_cases(seed: int, salts: list[SaltRow], part: int = 0):
    """Endless scalar library cases; each lib_scalar child process runs its own ``part``.

    Each is (salt index, temperature K, ion count, dx m, time s, tau_dyn s,
    coherence observed, threshold). The time keeps the rate-time product
    in [0.01, 3] and tau_dyn / tau_dec spans [1, 1e6], both sides of any
    threshold in [10, 1e5], using the reference times as the estimate.
    """
    rng = random.Random(seed * 1000 + part)
    while True:
        index = rng.randrange(len(salts))
        salt = salts[index]
        ion_count = _log_uniform(rng, 18, 24)
        tau_dec = min(float(salt.fields[8]) * 1e-40, float(salt.fields[9]) * 1e-38) * 1e23 / ion_count
        yield (
            index,
            rng.uniform(250.0, 400.0),
            ion_count,
            _log_uniform(rng, -12, -8),
            rng.uniform(0.01, 3.0) / salt.rate_estimate,
            tau_dec * _log_uniform(rng, 0, 6),
            rng.random() < 0.5,
            _log_uniform(rng, 1, 5),
        )


GENERATORS = {"cli_short": cli_short, "table_bulk": table_bulk, "sim_grid": sim_grid}

# workloads whose operation, for latency, is a whole group: a sim round,
# whose three grid sizes cost about 1:1.5:3
GROUP_IS_ONE_OPERATION = {"sim_grid"}
