"""Command line interface.

Subcommands: table, factor, sim, xray, bcs, classify. Shared behaviour:

* --format human|csv|json (default human); csv and json carry full float
  precision and are byte-for-byte deterministic for identical inputs.
* --output PATH replaces a regular or new file whole, so a failed run never
  leaves a partial file, and writes a device or FIFO in place; default stdout.
* salt data comes from --data-file, else the IONDECOH_DATA_DIR environment
  variable (a directory containing salts.csv), else the bundled table.
* exit codes: 0 success, 1 bad arguments or values, 2 unreadable or
  malformed data file.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

from . import core, densmat, regimes, vacuum
from .errors import IonDecohError, SaltDataError, ValidationError
from .materials import SaltRecord, _unknown_salt, bundled_salt_database, load_salts, salt_by_name
from .units import length_m, rate_per_s, temperature_kelvin, time_s

ENV_DATA_DIR = "IONDECOH_DATA_DIR"
_JSON_BATCH = 4096  # json chunks joined at a time
_CHUNK_ROWS = 1000  # table rows joined into one chunk of its text


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, not -1e-3,
        # and would parse the latter as an option name
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValidationError(message)


def _finite(text: str) -> float:
    """The argparse type of the float flags: a float, which must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _load_records(args, consume=list):
    """consume(the records of the data file in use, in file order): by default their list."""
    path = args.data_file
    if path is None:
        data_dir = os.environ.get(ENV_DATA_DIR)
        if data_dir:
            path = os.path.join(data_dir, "salts.csv")
    if path is None:
        return consume(bundled_salt_database())
    try:
        return load_salts(path, consume)
    except OSError as exc:
        raise SaltDataError(f"cannot read data file {path!r}: {exc}") from None


def _salt_values(args, record: SaltRecord, *formulas) -> list:
    """Each formula of the salt's context at --temperature and --ion-count.

    A fault of those two flags is every salt's, so it names none; a fault of
    a formula names the salt. A loaded record's own fields cannot fail here.
    """
    ctx = core.context_for_salt(record, temperature_kelvin(args.temperature), args.ion_count)
    try:
        return [formula(ctx) for formula in formulas]
    except (IonDecohError, ValueError) as exc:
        raise ValidationError(f"salt {record.name!r}: {exc}") from None


def _wavelength_and_rate(args):
    if args.salt is not None:
        record = salt_by_name(_load_records(args), args.salt)
        return _salt_values(args, record, core.de_broglie_wavelength, core.scattering_rate)
    if args.wavelength is None or args.rate is None:
        raise ValidationError("give either --salt or both --wavelength and --rate")
    return length_m(args.wavelength), rate_per_s(args.rate)


# -- output rendering ---------------------------------------------------------

def _render_table(header, rows, fmt, json_payload):
    if fmt == "json":
        import itertools
        import json

        # json.dumps lists every chunk of the pure-Python indent encoder (16 to
        # 24 a table row) before its one join; joining a batch at a time keeps
        # one batch of chunks alive next to the text. The encoder yields no
        # empty chunk, so an empty batch means it is done.
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(json_payload)
        batches = iter(lambda: "".join(itertools.islice(chunks, _JSON_BATCH)), "")
        return "".join([*batches, "\n"])
    text = "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))
    return text if fmt == "csv" else "".join(_aligned([text]))


def _csv_row(record, t1: float, t2: float) -> str:
    """A table row's csv line: the name, tau1 and tau2 in the paper's units to one decimal, and in s."""
    return f"{record.name},{t1 / 1e-40:.1f},{t2 / 1e-38:.1f},{t1!r},{t2!r}\n"


def _aligned(chunks):
    """The human text of csv text given in chunks of whole lines: each cell padded to its column's width.

    No cell holds a comma or a newline (a salt name cannot), so each line
    splits back into its cells; each chunk is aligned only as it is written.
    """
    lines = (line for chunk in chunks for line in chunk.split("\n")[:-1])
    widths = list(map(len, next(lines).split(",")))
    for line in lines:
        widths = list(map(max, widths, map(len, line.split(","))))

    def aligned(line):
        return "  ".join(map(str.ljust, line.split(","), widths)).rstrip() + "\n"

    for chunk in chunks:
        yield "".join(map(aligned, chunk.split("\n")[:-1]))


def _deliver(text, output: str | None) -> None:
    """Write the text, one str or its chunks, to stdout or output: a device or FIFO in place, a file by rename."""
    chunks = [text] if isinstance(text, str) else text
    if output is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    tmp = None  # the new file, once this run has created it
    try:
        if os.path.exists(output) and not os.path.isfile(output):
            handle = open(output, "w", encoding="utf-8")
        else:
            name = os.path.join(os.path.dirname(output), ".iondecoh-" + os.urandom(8).hex())
            handle, tmp = open(name, "x", encoding="utf-8"), name
        with handle:
            handle.writelines(chunks)
        if tmp is not None:
            os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {output!r}: {exc.strerror or exc}") from None
        raise


# -- subcommand handlers ------------------------------------------------------

def _cmd_table(args):
    """The table's text in chunks of rows, each row rendered as its record is read.

    Faults keep the order of a run that loads the whole file first, with no
    second pass: a data-file fault (exit 2) anywhere in the file, then an
    unknown or empty --salts, then a --temperature or --ion-count fault, then
    the first formula fault in file order. The first exit-1 fault is held, no
    later row is evaluated, and the rest of the file is still read.
    """
    requested = None if args.salts == "all" else [name.strip() for name in args.salts.split(",") if name.strip()]
    wanted = set(requested or ())
    temperature, ion_count = args.temperature, args.ion_count
    try:
        thermal_energy, flag_fault = core._thermal_energy(temperature, ion_count), None
    except ValidationError as exc:  # a flag fault is every salt's: it names none
        thermal_energy, flag_fault = None, exc
    as_json = args.format == "json"
    if as_json:
        import json

        def row_text(record, t1, t2):
            """The salt's object as the whole payload's sort_keys, indent=2 text gives it, and a comma."""
            r1, r2 = record._si.ref_tau1, record._si.ref_tau2
            return (f'    {{\n      "name": {json.dumps(record.name)},\n'
                    + ("" if r1 is None else f'      "ref_tau1_s": {r1!r},\n')
                    + ("" if r2 is None else f'      "ref_tau2_s": {r2!r},\n')
                    + f'      "tau1_s": {t1!r},\n      "tau2_s": {t2!r}\n    }},\n')
    else:
        row_text = _csv_row

    def render_rows(records):
        fault = flag_fault  # the first exit-1 fault, held until the whole file is read
        chunks, batch, names = [], [], []  # names: every name in file order, for an unknown --salts name
        for record in records:
            if requested is not None:
                names.append(record.name)
                if record.name not in wanted:
                    continue
            if fault is not None:
                continue
            try:
                t1, t2 = core._salt_times(record, thermal_energy, temperature, ion_count)
            except ValidationError as exc:
                fault = ValidationError(f"salt {record.name!r}: {exc}")
                continue
            if len(batch) == _CHUNK_ROWS:  # joined before the next row, so the last row stays in batch
                chunks.append("".join(batch))
                batch.clear()
            batch.append(row_text(record, t1, t2))
        if requested is not None:
            if not requested:
                raise ValidationError("--salts must name at least one salt")
            seen = set(names)
            for name in requested:
                if name not in seen:
                    raise _unknown_salt(name, names)
        if fault is not None:
            raise fault
        if as_json:
            batch[-1] = batch[-1][:-2] + "\n"  # the last salt takes no comma
        chunks.append("".join(batch))
        return chunks

    chunks = _load_records(args, render_rows)
    if as_json:
        return [f'{{\n  "ion_count": {json.dumps(ion_count)},\n  "salts": [\n', *chunks,
                f'  ],\n  "temperature_k": {json.dumps(temperature)}\n}}\n']
    chunks.insert(0, "name,tau1_1e-40s,tau2_1e-38s,tau1_s,tau2_s\n")
    return chunks if args.format == "csv" else _aligned(chunks)


def _cmd_factor(args) -> str:
    wavelength, rate = _wavelength_and_rate(args)
    value = core.decoherence_factor(
        length_m(args.dx), time_s(args.time), wavelength, rate
    )
    header = ["separation_m", "time_s", "wavelength_m", "rate_per_s", "factor"]
    row = [args.dx, args.time, wavelength.si, rate.si, value]
    payload = dict(zip(header, row))
    if args.format == "human":
        return f"decoherence factor = {value!r}\n"
    return _render_table(header, [row], args.format, payload)


def _cmd_sim(args) -> str:
    wavelength, rate = _wavelength_and_rate(args)
    spec = densmat.SuperpositionSpec(
        separation=length_m(args.separation),
        width=length_m(args.width),
        relative_phase=args.phase,
    )
    # passed inline: a local would keep the prepared state alive for the whole run
    samples = densmat.evolve_series(
        densmat.prepare_superposition(spec, num_points=args.num_points, extent_widths=args.extent_widths),
        rate, wavelength, t_total=time_s(args.t_total), steps=args.steps, separation=spec.separation,
    )
    header = ["time_s", "coherence", "trace", "purity", "min_eigenvalue"]
    rows = [[s.time, s.coherence, s.trace, s.purity, s.min_eigenvalue] for s in samples]
    payload = {
        "separation_m": args.separation,
        "width_m": args.width,
        "wavelength_m": wavelength.si,
        "rate_per_s": rate.si,
        "samples": [dict(zip(header, row)) for row in rows],
    }
    return _render_table(header, rows, args.format, payload)


def _cmd_xray(args) -> str:
    record = salt_by_name(_load_records(args), args.salt)
    (check,) = _salt_values(args, record, lambda ctx: regimes.xray_consistency(ctx, record, time_s(args.tau_x)))
    payload = {"salt": record.name, **check.to_dict()}
    header = list(payload)
    return _render_table(header, [[payload[k] for k in header]], args.format, payload)


def _cmd_bcs(args) -> str:
    counts = sorted({int(k.strip()) for k in args.modes.split(",") if k.strip()})
    if not counts:
        raise ValidationError("--modes must list at least one mode count")
    if args.uniform_u is not None:
        family = lambda k: vacuum.uniform_profile(args.uniform_u, k)  # noqa: E731
    else:
        family = vacuum.pairing_family(args.gap, args.half_bandwidth, args.seed)
    header = ["modes", "log_overlap", "overlap"]
    rows = []
    for count in counts:
        log_overlap = vacuum.log_vacuum_overlap(family(count))
        rows.append([count, log_overlap, math.exp(log_overlap)])
    payload = {"points": [dict(zip(header, row)) for row in rows]}
    if len(counts) >= 3:
        # overlap_decay_rate's fit, over the log overlaps above: each profile is drawn once
        payload["decay_rate_per_mode"] = vacuum._log_overlap_slope(counts, [row[1] for row in rows])
    text = _render_table(header, rows, args.format, payload)
    if args.format == "human" and "decay_rate_per_mode" in payload:
        text += f"decay rate per mode = {payload['decay_rate_per_mode']!r}\n"
    return text


def _cmd_classify(args) -> str:
    if args.salt is not None:
        t1, t2 = _salt_values(args, salt_by_name(_load_records(args), args.salt), core.tau1, core.tau2)
    elif args.tau1 is not None and args.tau2 is not None:
        t1, t2 = time_s(args.tau1), time_s(args.tau2)
    else:
        raise ValidationError("give either --salt or both --tau1 and --tau2")
    report = regimes.classify(
        t1,
        t2,
        time_s(args.tau_dyn),
        coherent_phase_observed=args.observed_coherence,
        threshold_ratio=args.threshold,
    )
    payload = report.to_dict()
    if args.salt is not None:
        payload["salt"] = args.salt
    if args.format != "human":
        header = ["tau1_s", "tau2_s", "tau_dyn_s", "tau_dec_s", "timescale_ratio", "verdict"]
        row = [t1.si, t2.si, args.tau_dyn, payload["tau_dec_s"], payload["timescale_ratio"], report.verdict.value]
        return _render_table(header, [row], args.format, payload)
    lines = [
        f"tau1 = {t1.si!r} s",
        f"tau2 = {t2.si!r} s",
        f"tau_dyn = {args.tau_dyn!r} s",
        f"tau_dec = {payload['tau_dec_s']!r} s",
        f"tau_dyn / tau_dec = {payload['timescale_ratio']!r}",
        f"coherent phase observed: {args.observed_coherence}",
        f"verdict: {report.verdict.value}",
        f"({regimes.THRESHOLD_NOTE})",
    ]
    return "\n".join(lines) + "\n"


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iondecoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--output", help="write here instead of stdout (atomic)")
        if data:
            p.add_argument("--data-file", help="salt data CSV overriding the bundled table")

    def thermal(p):
        p.add_argument("--temperature", type=_finite, default=core.DEFAULT_TEMPERATURE.si,
                       help="temperature in K (default 310)")
        p.add_argument("--ion-count", type=_finite, default=core.DEFAULT_ION_COUNT,
                       help="ions decohering together, N (default 1e23)")

    p = sub.add_parser("table", help="decoherence times for the salt table")
    p.add_argument("--salts", default="all", help='"all" or comma-separated names')
    thermal(p)
    common(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("factor", help="two-point suppression factor")
    p.add_argument("--salt", help="derive wavelength and rate from this salt")
    p.add_argument("--wavelength", type=_finite, help="de Broglie wavelength in m")
    p.add_argument("--rate", type=_finite, help="scattering rate in 1/s")
    p.add_argument("--dx", type=_finite, required=True, help="separation in m")
    p.add_argument("--time", type=_finite, required=True, help="elapsed time in s")
    thermal(p)
    common(p)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("sim", help="evolve a two-packet density matrix")
    p.add_argument("--salt", help="derive wavelength and rate from this salt")
    p.add_argument("--wavelength", type=_finite, help="de Broglie wavelength in m")
    p.add_argument("--rate", type=_finite, help="scattering rate in 1/s")
    p.add_argument("--separation", type=_finite, required=True, help="packet separation in m")
    p.add_argument("--width", type=_finite, required=True, help="packet width in m")
    p.add_argument("--t-total", type=_finite, required=True, help="total evolved time in s")
    p.add_argument("--steps", type=int, default=50, help="number of equal steps (default 50)")
    p.add_argument("--num-points", type=int, default=256, help="grid points (default 256)")
    p.add_argument("--extent-widths", type=_finite, default=40.0,
                   help="grid span in packet widths (default 40)")
    p.add_argument("--phase", type=_finite, default=0.0, help="relative phase in rad")
    thermal(p)
    common(p)
    p.set_defaults(handler=_cmd_sim)

    p = sub.add_parser("xray", help="implied density and spacing from an X-ray time")
    p.add_argument("--salt", required=True)
    p.add_argument("--tau-x", type=_finite, required=True, help="X-ray interaction time in s")
    thermal(p)
    common(p)
    p.set_defaults(handler=_cmd_xray)

    p = sub.add_parser("bcs", help="finite-mode vacuum overlap and its decay rate")
    p.add_argument("--modes", required=True, help="comma-separated mode counts")
    p.add_argument("--uniform-u", type=_finite, help="uniform U_k (otherwise pairing model)")
    # a bare float: an infinite gap is a finite limit, every U_k = 1/sqrt(2); pairing_family rejects NaN
    p.add_argument("--gap", type=float, default=0.2, help="pairing gap (default 0.2)")
    p.add_argument("--half-bandwidth", type=_finite, default=1.0,
                   help="band energy half-width (default 1.0)")
    p.add_argument("--seed", type=int, default=0, help="band energy sampling seed (default 0)")
    common(p, data=False)
    p.set_defaults(handler=_cmd_bcs)

    p = sub.add_parser("classify", help="classical / QM / QFT regime verdict")
    p.add_argument("--salt", help="compute tau1 and tau2 from this salt")
    p.add_argument("--tau1", type=_finite, help="decoherence time tau1 in s")
    p.add_argument("--tau2", type=_finite, help="decoherence time tau2 in s")
    p.add_argument("--tau-dyn", type=_finite, required=True, help="dynamical timescale in s")
    p.add_argument("--observed-coherence", action="store_true",
                   help="a macroscopically coherent phase is observed")
    p.add_argument("--threshold", type=_finite, default=regimes.DEFAULT_THRESHOLD_RATIO,
                   help="ratio above which QM is inadequate (default 1e3)")
    thermal(p)
    common(p)
    p.set_defaults(handler=_cmd_classify)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built once per process: argparse keeps no state between parse_args calls
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        _deliver(args.handler(args), args.output)
        sys.stdout.flush()  # now, not at exit, so a reader that has gone gets one error line
        return 0
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    except SaltDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IonDecohError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's allocation failure says how much it asked for
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader has gone: point its descriptor, if any, at devnull for the exit flush
        with contextlib.suppress(AttributeError, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout: Broken pipe", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
