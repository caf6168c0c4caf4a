"""Command line interface.

Subcommands: table, factor, sim, xray, bcs, classify. Shared behaviour:

* --format human|csv|json (default human); csv and json carry full float
  precision and are byte-for-byte deterministic for identical inputs.
* --output PATH replaces a regular or new file whole, so a failed run never
  leaves a partial file, and writes a device or FIFO in place; a symlink is
  followed, as the shell's > follows it; default stdout.
* salt data comes from --data-file, else the IONDECOH_DATA_DIR environment
  variable (a directory containing salts.csv), else the bundled table.
* exit codes: 0 success, 1 bad arguments or values or a stdout that cannot
  take the text, 2 unreadable or malformed data file; 128 + the signal
  number: 130 interrupted (SIGINT, as from Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

# the C module behind signal, loaded at interpreter start-up; importing signal
# itself builds its enums, about 0.75 ms of every run
import _signal as signal

from . import core, densmat, regimes, vacuum
from .errors import IonDecohError, SaltDataError, ValidationError
from .materials import _BUNDLED_PATH, SaltRecord, _read_salts, _select
from .units import length_m, rate_per_s, temperature_kelvin, time_s

ENV_DATA_DIR = "IONDECOH_DATA_DIR"
_CHUNK_ROWS = 1000  # table rows joined into one chunk of its text
_BCS_MODES = 10**9  # the most modes a bcs run sums over all its counts: about 37 s of pairing draws


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, not -1e-3,
        # -inf or -nan, and would parse those as option names
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

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


def _mode_counts(text: str) -> list[int]:
    """The argparse type of --modes: its comma-separated ints, each once, in increasing order."""
    counts = set()
    for field in filter(None, map(str.strip, text.split(","))):
        try:
            counts.add(int(field))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {field!r}") from None
    return sorted(counts)


def _records(args):
    """The records of --data-file, else IONDECOH_DATA_DIR's salts.csv, else the bundled table, each as it is read."""
    path = args.data_file
    if path is None:
        data_dir = os.environ.get(ENV_DATA_DIR)
        path = os.path.join(data_dir, "salts.csv") if data_dir else _BUNDLED_PATH
    try:
        yield from _read_salts(path)
    except OSError as exc:  # the bundled table's too
        raise SaltDataError(f"cannot read data file {path!r}: {exc}") from None


def _salt_values(args, record: SaltRecord, thermal_energy: float, *formulas) -> list:
    """Each formula(operands, T) at the salt's operands (cation_kg, kT, n, a, N) and --temperature T.

    thermal_energy is core._thermal_energy at --temperature and --ion-count, which the caller checks once a
    run: a fault of either is every salt's, so it names none; a fault of a formula names the salt.
    """
    operands = (record._si.cation_kg, thermal_energy, record._si.per_m3, record._si.edge, args.ion_count)
    try:
        values = []  # a loop, not a list comprehension, which costs a function call a salt
        for formula in formulas:
            values.append(formula(operands, args.temperature))
        return values
    except (IonDecohError, ValueError) as exc:
        raise ValidationError(f"salt {record.name!r}: {exc}") from None


def _salt_or_given(args, formulas, flags) -> list:
    """The formulas' floats at --salt's record, else both flags' values; the unpack reads the file to its end."""
    values = [getattr(args, flag) for flag in flags]
    if values.count(None) != (2 if args.salt is not None else 0):
        raise ValidationError(f"give either --salt or both --{flags[0]} and --{flags[1]}")
    if args.salt is not None:
        (record,) = _select(_records(args), [args.salt])
        return _salt_values(args, record, core._thermal_energy(args.temperature, args.ion_count), *formulas)
    return values


# -- output rendering ---------------------------------------------------------

def _render_table(rows, fmt, json_payload):
    """The chunks of the rows, dicts of one set of keys, as a table with a header line, or of json_payload as json.

    json is yielded as the encoder yields it, so no whole text is held.
    """
    if fmt == "json":
        import json

        yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(json_payload)
        yield "\n"
        return
    text = "".join(",".join(map(str, line)) + "\n" for line in (rows[0], *(row.values() for row in rows)))
    yield from [text] if fmt == "csv" else _aligned([text])


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


def _deliver(chunks, output: str | None) -> None:
    """Write the text's chunks to stdout or output: a device or FIFO in place, a file by rename.

    Any fault removes this run's new file, if any; one not of a write goes on.
    A failed write sends a failed stdout to devnull and reads the rest of the
    chunks before its one line, so a fault met where the text is made comes
    first, as it would if the whole text were made before its first write.
    """
    chunks = iter(chunks)
    tmp = None  # the new file, once this run has created it
    try:
        if output is None:
            sys.stdout.writelines(chunks)  # holds no chunk past its write
            sys.stdout.flush()  # now, not at exit, so a reader that has gone or a full file gets one error line
            return
        target = os.path.realpath(output)  # a symlink is written through, as the shell's > writes it
        if os.path.exists(target) and not os.path.isfile(target):
            handle = open(target, "w", encoding="utf-8")
        else:
            name = os.path.join(os.path.dirname(target), ".iondecoh-" + os.urandom(8).hex())
            handle, tmp = open(name, "x", encoding="utf-8"), name
        with handle:
            handle.writelines(chunks)
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):  # renamed already, if a signal came just after the rename
                os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        if output is None:  # stdout's descriptor, if any, goes to devnull, so the exit flush cannot fail again
            with contextlib.suppress(AttributeError, OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        for _ in chunks:
            pass
        where = "to stdout" if output is None else repr(output)
        raise ValidationError(f"cannot write {where}: {exc.strerror or exc}") from None


# -- subcommand handlers ------------------------------------------------------

def _cmd_table(args):
    """The table's text: csv and json in chunks of rows, each handed on once whole; human once every row is read.

    Each row is rendered as its record is read. Faults keep the order of a
    run that loads the whole file first, with no second pass: a data-file
    fault (exit 2) anywhere in the file, then an unknown or empty --salts,
    then a --temperature or --ion-count fault, then the first formula fault
    in file order. The first exit-1 fault is held, no later row is
    evaluated, and the rest of the file is still read. k_B T is checked
    once, at the first record evaluated, so the order is unchanged. The
    header goes out with the first chunk, so a fault before it leaves no
    text; human needs every column's width before its first line.
    """
    chunks = _table_chunks(args)
    return chunks if args.format != "human" else _aligned(list(chunks))


def _table_chunks(args):
    """The csv or json text of _cmd_table, _CHUNK_ROWS rows a chunk, the header in the first."""
    requested = None if args.salts == "all" else [name.strip() for name in args.salts.split(",") if name.strip()]
    tau1, tau2 = core._TAU1.si, core._TAU2.si
    as_json = args.format == "json"
    if as_json:
        import json
        from json.encoder import encode_basestring_ascii  # json.dumps of a str

        def row_text(record, t1, t2):
            """The salt's object as the whole payload's sort_keys, indent=2 text gives it, and a comma."""
            r1, r2 = record._si.ref_tau1, record._si.ref_tau2
            return (f'    {{\n      "name": {encode_basestring_ascii(record.name)},\n'
                    + ("" if r1 is None else f'      "ref_tau1_s": {r1!r},\n')
                    + ("" if r2 is None else f'      "ref_tau2_s": {r2!r},\n')
                    + f'      "tau1_s": {t1!r},\n      "tau2_s": {t2!r}\n    }},\n')

        head = f'{{\n  "ion_count": {json.dumps(args.ion_count)},\n  "salts": [\n'
    else:
        row_text, head = _csv_row, "name,tau1_1e-40s,tau2_1e-38s,tau1_s,tau2_s\n"

    fault = thermal_energy = None  # fault: the first exit-1 fault, held until the whole file is read
    batch = []
    for record in _records(args) if requested is None else _select(_records(args), requested):
        if fault is not None:
            continue
        try:
            thermal_energy = thermal_energy or core._thermal_energy(args.temperature, args.ion_count)  # once: it is > 0
            t1, t2 = _salt_values(args, record, thermal_energy, tau1, tau2)
        except ValidationError as exc:
            fault = exc
            continue
        if len(batch) == _CHUNK_ROWS:  # joined before the next row, so the last row stays in batch
            chunk, head = "".join([head, *batch]), ""  # the header goes out with the first chunk
            batch.clear()  # so the rows are not held beside the chunk's written bytes
            yield chunk
            del chunk  # written: not held through the next chunk's rows and join
        batch.append(row_text(record, t1, t2))
    if requested == []:
        raise ValidationError("--salts must name at least one salt")
    if fault is not None:
        raise fault
    if as_json:
        batch[-1] = batch[-1][:-2] + "\n"  # the last salt takes no comma
        batch.append(f'  ],\n  "temperature_k": {json.dumps(args.temperature)}\n}}\n')
    yield "".join([head, *batch])


def _cmd_factor(args):
    wavelength, rate = _salt_or_given(args, (core._WAVELENGTH.si, core._RATE.si), ("wavelength", "rate"))
    value = core.decoherence_factor(
        length_m(args.dx), time_s(args.time), length_m(wavelength), rate_per_s(rate)
    )
    if args.format == "human":
        return [f"decoherence factor = {value!r}\n"]
    row = {"separation_m": args.dx, "time_s": args.time, "wavelength_m": wavelength, "rate_per_s": rate,
           "factor": value}
    return _render_table([row], args.format, row)


def _cmd_sim(args):
    wavelength, rate = _salt_or_given(args, (core._WAVELENGTH.si, core._RATE.si), ("wavelength", "rate"))
    spec = densmat.SuperpositionSpec(
        separation=length_m(args.separation),
        width=length_m(args.width),
        relative_phase=args.phase,
    )
    # passed inline: a local would keep the prepared state alive for the whole run
    samples = densmat.evolve_series(
        densmat.prepare_superposition(spec, num_points=args.num_points, extent_widths=args.extent_widths),
        rate_per_s(rate), length_m(wavelength), t_total=time_s(args.t_total), steps=args.steps,
        separation=spec.separation,
    )
    rows = [{"time_s": s.time, "coherence": s.coherence, "trace": s.trace, "purity": s.purity,
             "min_eigenvalue": s.min_eigenvalue} for s in samples]
    payload = {
        "separation_m": args.separation,
        "width_m": args.width,
        "wavelength_m": wavelength,
        "rate_per_s": rate,
        "samples": rows,
    }
    return _render_table(rows, args.format, payload)


def _cmd_xray(args):
    (record,) = _select(_records(args), [args.salt])
    # through the public context and check, as library callers take them
    thermal_energy = core._thermal_energy(args.temperature, args.ion_count)
    (check,) = _salt_values(args, record, thermal_energy, lambda _, temperature: regimes.xray_consistency(
        core.context_for_salt(record, temperature_kelvin(temperature), args.ion_count), record, time_s(args.tau_x)))
    row = {"salt": record.name, **check.to_dict()}
    return _render_table([row], args.format, row)


def _cmd_bcs(args):
    counts = args.modes
    if not counts:
        raise ValidationError("--modes must list at least one mode count")
    if args.uniform_u is not None:
        family = lambda k: vacuum.uniform_profile(args.uniform_u, k)  # noqa: E731
    else:
        family = vacuum.pairing_family(args.gap, args.half_bandwidth, args.seed)
    total = sum(counts)
    if total > _BCS_MODES:
        raise ValidationError(f"--modes counts sum to {total} modes, above a run's bound of {_BCS_MODES}")
    rows = []
    for count in counts:
        profile = family(count)
        log_overlap = vacuum.log_vacuum_overlap(profile)
        rows.append({"modes": count, "log_overlap": log_overlap, "overlap": math.exp(log_overlap)})
    payload = {"points": rows}
    if len(counts) >= 3:
        # overlap_decay_rate's fit, over the log overlaps above: each profile is drawn once
        payload["decay_rate_per_mode"] = vacuum._log_overlap_slope(counts, [row["log_overlap"] for row in rows])
    chunks = _render_table(rows, args.format, payload)
    if args.format == "human" and "decay_rate_per_mode" in payload:
        return [*chunks, f"decay rate per mode = {payload['decay_rate_per_mode']!r}\n"]
    return chunks


def _cmd_classify(args):
    t1, t2 = map(time_s, _salt_or_given(args, (core._TAU1.si, core._TAU2.si), ("tau1", "tau2")))
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
        row = {"tau1_s": t1.si, "tau2_s": t2.si, "tau_dyn_s": args.tau_dyn, "tau_dec_s": payload["tau_dec_s"],
               "timescale_ratio": payload["timescale_ratio"], "verdict": report.verdict.value}
        return _render_table([row], args.format, payload)
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
    return ["\n".join(lines) + "\n"]


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iondecoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, salt_data=True):
        """The handler and the shared flags; a command that reads salt data takes the thermal and data flags."""
        if salt_data:
            p.add_argument("--temperature", type=_finite, default=core.DEFAULT_TEMPERATURE.si,
                           help="temperature in K (default 310)")
            p.add_argument("--ion-count", type=_finite, default=core.DEFAULT_ION_COUNT,
                           help="ions decohering together, N (default 1e23)")
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--output", help="write here instead of stdout (atomic)")
        if salt_data:
            p.add_argument("--data-file", help="salt data CSV overriding the bundled table")
        p.set_defaults(handler=handler)

    p = sub.add_parser("table", help="decoherence times for the salt table")
    p.add_argument("--salts", default="all", help='"all" or comma-separated names')
    common(p, _cmd_table)

    p = sub.add_parser("factor", help="two-point suppression factor")
    p.add_argument("--salt", help="derive wavelength and rate from this salt")
    p.add_argument("--wavelength", type=_finite, help="de Broglie wavelength in m")
    p.add_argument("--rate", type=_finite, help="scattering rate in 1/s")
    p.add_argument("--dx", type=_finite, required=True, help="separation in m")
    p.add_argument("--time", type=_finite, required=True, help="elapsed time in s")
    common(p, _cmd_factor)

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
    common(p, _cmd_sim)

    p = sub.add_parser("xray", help="implied density and spacing from an X-ray time")
    p.add_argument("--salt", required=True)
    p.add_argument("--tau-x", type=_finite, required=True, help="X-ray interaction time in s")
    common(p, _cmd_xray)

    p = sub.add_parser("bcs", help="finite-mode vacuum overlap and its decay rate")
    p.add_argument("--modes", type=_mode_counts, required=True, help="comma-separated mode counts")
    p.add_argument("--uniform-u", type=_finite, help="uniform U_k (otherwise pairing model)")
    # a bare float: an infinite gap is a finite limit, every U_k = 1/sqrt(2); pairing_family rejects NaN
    p.add_argument("--gap", type=float, default=0.2, help="pairing gap (default 0.2)")
    p.add_argument("--half-bandwidth", type=_finite, default=1.0,
                   help="band energy half-width (default 1.0)")
    p.add_argument("--seed", type=int, default=0, help="band energy sampling seed (default 0)")
    common(p, _cmd_bcs, salt_data=False)

    p = sub.add_parser("classify", help="classical / QM / QFT regime verdict")
    p.add_argument("--salt", help="compute tau1 and tau2 from this salt")
    p.add_argument("--tau1", type=_finite, help="decoherence time tau1 in s")
    p.add_argument("--tau2", type=_finite, help="decoherence time tau2 in s")
    p.add_argument("--tau-dyn", type=_finite, required=True, help="dynamical timescale in s")
    p.add_argument("--observed-coherence", action="store_true",
                   help="a macroscopically coherent phase is observed")
    p.add_argument("--threshold", type=_finite, default=regimes.DEFAULT_THRESHOLD_RATIO,
                   help="ratio above which QM is inadequate (default 1e3)")
    common(p, _cmd_classify)

    return parser


_parser = None


def _terminate(signum, frame):  # main's SIGTERM handler
    raise KeyboardInterrupt(signum)  # so the run ends as an interrupt does, through _deliver's clean-up


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built once per process: argparse keeps no state between parse_args calls
        _parser = build_parser()
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread, which alone may set a handler
        previous = _terminate
    try:
        try:
            args = _parser.parse_args(argv)
        except SystemExit:  # the help's, argparse's one exit left: flushed here, so a fault of stdout gets its line
            _deliver([], None)
            return 0
        _deliver(args.handler(args), args.output)
        return 0
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
    except KeyboardInterrupt as exc:  # SIGINT's, or SIGTERM's from _terminate; _deliver has removed its new file
        signum = signal.SIGTERM if exc.args == (signal.SIGTERM,) else signal.SIGINT
        print("error: terminated" if signum == signal.SIGTERM else "error: interrupted", file=sys.stderr)
        return 128 + signum  # as a shell reports a job that the signal ended
    finally:
        if previous is not _terminate:
            # None: a handler set outside Python, which Python cannot set back
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
