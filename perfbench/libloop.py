"""The lib_scalar child: a closed loop of scalar library cases in one process.

Usage: python libloop.py SEED PART SECONDS MIN_CASES RESULT_BIN

Runs cases from ``workloads.lib_cases(SEED, rows, PART)`` until SECONDS of case
time have passed and at least MIN_CASES ran. Only the library calls are
timed; the case generation before each case is not.

This process's peak RSS is lib_scalar's ``peak_rss_mb``, so it loads only
iondecoh and the stdlib case generator, and keeps nothing that grows with
the case count: each case appends one record of RECORD doubles to
RESULT_BIN through a buffered file, and the parent checks the records
(``read_results``). A record is the case's wall time and the seven results
of ``run_case``, the verdict as its index in VERDICTS. A case that raised
has NaN results and verdict -1; its message goes to stderr. Before the
first case and after every BATCH cases the child times the reference loop
of speed.py and writes it as a record with verdict -2, so the parent can
scale each case to the reference speed.
"""

from __future__ import annotations

import os
import struct
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BATCH = 500  # cases between reference loops
VERDICTS = ("QuantumMechanicsAdequate", "ClassicalLimit", "QftRegimeIndicated")
RECORD = struct.Struct("<8d")
NAN = float("nan")
RAISED, REFERENCE = -1, -2


def run_case(d, units, records, case):
    """context -> wavelength, rate, tau1, tau2, factor, classify for one case."""
    index, temperature, ion_count, dx, elapsed, tau_dyn, observed, threshold = case
    ctx = d.context_for_salt(records[index], temperature=units.temperature_kelvin(temperature), ion_count=ion_count)
    wavelength = d.de_broglie_wavelength(ctx)
    rate = d.scattering_rate(ctx)
    t1, t2 = d.tau1(ctx), d.tau2(ctx)
    factor = d.decoherence_factor(units.length_m(dx), units.time_s(elapsed), wavelength, rate)
    report = d.classify(t1, t2, units.time_s(tau_dyn), observed, threshold)
    return wavelength.si, rate.si, t1.si, t2.si, factor, report.timescale_ratio, report.verdict.value


def read_results(path: str):
    """(wall times, scale factors, results) of the cases in a RESULT_BIN.

    A case's factor is speed.factor of the reference loops on either side
    of its batch; its result is as ``run_case`` returns it, or None if it raised.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    walls, factors, results = [], [], []
    last, pending = None, 0
    for wall, *values, code in RECORD.iter_unpack(data):
        if code == REFERENCE:
            if last is not None:
                factors += [speed.factor(last, wall)] * pending
            last, pending = wall, 0
            continue
        walls.append(wall)
        results.append(None if code == RAISED else (*values, VERDICTS[int(code)]))
        pending += 1
    if pending:
        raise ValueError(f"{path}: the last {pending} cases have no closing reference loop")
    return walls, factors, results


def main(argv) -> int:
    seed, part, seconds, min_cases, result_path = int(argv[0]), int(argv[1]), float(argv[2]), int(argv[3]), argv[4]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import iondecoh as d
    from iondecoh import units

    import workloads  # stdlib only

    records = d.bundled_salt_database()
    cases = workloads.lib_cases(seed, workloads.bundled_rows(ROOT), part)
    clock, pack = time.perf_counter, RECORD.pack
    busy, count, raised = 0.0, 0, 0
    with open(result_path, "wb") as out:
        out.write(pack(speed.reference_s(), *(NAN,) * 6, REFERENCE))
        while busy < seconds or count < min_cases:
            if count and count % BATCH == 0:
                out.write(pack(speed.reference_s(), *(NAN,) * 6, REFERENCE))
            case = next(cases)
            start = clock()
            try:
                *values, verdict = run_case(d, units, records, case)
                code = VERDICTS.index(verdict)
            except Exception as exc:  # a case the library rejects counts as failed
                values, code = (NAN,) * 6, RAISED
                raised += 1
                if raised <= 20:
                    print(f"lib case {count} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = clock() - start
            busy += elapsed
            count += 1
            out.write(pack(elapsed, *values, code))
        out.write(pack(speed.reference_s(), *(NAN,) * 6, REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
