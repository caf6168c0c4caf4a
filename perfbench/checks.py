"""Output checks. A failed check counts the operation as failed.

``Checker.check`` takes one CLI invocation's exit code, stdout, stderr and
``--output`` file and returns None when the output meets its contract, or
a one-line reason. Expected values come from the library's public
functions (the CLI must agree with the library) or, where the issue asks
for an identity, from an independent formula. ``check_lib_case`` checks
one scalar library case against closed forms built on scipy's CODATA
constants, not on iondecoh's own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np
from scipy import constants as codata

REL = 1e-12  # same formula, maybe another operation order
SIM_TOL = 1e-9  # the sim invariant tolerances


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


class CheckFailure(Exception):
    pass


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def need_close(actual, expected, what: str, rel: float = REL) -> None:
    need(close(float(actual), float(expected), rel), f"{what}: got {actual!r}, expected {expected!r}")


class Checker:
    """Checks CLI outputs against the library imported from the checkout."""

    def __init__(self):
        import iondecoh
        from iondecoh import core, regimes, units

        self.d, self.core, self.regimes, self.units = iondecoh, core, regimes, units
        self.bundled = iondecoh.bundled_salt_database()
        self._table_cache = {}

    def check(self, op, returncode: int, stdout: str, stderr: str) -> str | None:
        try:
            self._check(op, returncode, stdout, stderr)
        except CheckFailure as exc:
            return f"{op.kind}: {exc}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{op.kind}: unparsable output ({type(exc).__name__}: {exc})"
        return None

    def _check(self, op, returncode, stdout, stderr):
        need("Traceback" not in stderr, "traceback on stderr")
        if op.kind == "error":
            lines = stderr.strip().splitlines()
            need(returncode == op.expect["exit"], f"exit {returncode}, expected {op.expect['exit']}")
            need(len(lines) == 1 and lines[0].startswith("error: "), f"stderr is not one error line: {stderr!r}")
            need(stdout == "", "stdout not empty on error")
            need(op.output is None or not os.path.exists(op.output), "error run left an output file")
            return
        need(returncode == 0, f"exit {returncode}: {stderr.strip()[:200]}")
        need(stderr == "", f"unexpected stderr: {stderr.strip()[:200]}")
        if op.output is not None:
            need(stdout == "", "stdout not empty with --output")
            with open(op.output, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = stdout
        getattr(self, "_check_" + op.kind)(op, text)

    # -- helpers ------------------------------------------------------------

    def _record(self, name):
        return self.d.salt_by_name(self.bundled, name)

    def _ctx(self, record, expect):
        return self.core.context_for_salt(
            record,
            temperature=self.units.temperature_kelvin(expect.get("temperature", 310.0)),
            ion_count=expect.get("ion_count", 1e23),
        )

    def _wavelength_rate(self, expect):
        if "salt" in expect:
            ctx = self._ctx(self._record(expect["salt"]), expect)
            return self.core.de_broglie_wavelength(ctx).si, self.core.scattering_rate(ctx).si
        return expect["wavelength"], expect["rate"]

    @staticmethod
    def _rows(text, fmt):
        """Header and rows of a csv or human table."""
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
        else:
            rows = [line.split() for line in text.splitlines() if line.strip()]
        return rows[0], rows[1:]

    # -- subcommands --------------------------------------------------------

    def _expected_table(self, expect):
        key = (expect.get("data_file"), expect["temperature"], expect["ion_count"])
        if key not in self._table_cache:
            records = self.d.load_salts(key[0]) if key[0] else self.bundled
            rows = []
            for record in records:
                ctx = self._ctx(record, expect)
                rows.append((record, self.core.tau1(ctx).si, self.core.tau2(ctx).si))
            self._table_cache[key] = rows
        rows = self._table_cache[key]
        if expect.get("salts") is not None:
            wanted = set(expect["salts"])
            rows = [row for row in rows if row[0].name in wanted]
        return rows

    def _check_table(self, op, text):
        expected = self._expected_table(op.expect)
        if op.fmt == "json":
            payload = json.loads(text)
            need(payload["temperature_k"] == op.expect["temperature"], "temperature echo")
            got = payload["salts"]
            need([g["name"] for g in got] == [r.name for r, _, _ in expected], "salt names or order")
            for entry, (record, t1, t2) in zip(got, expected):
                need_close(entry["tau1_s"], t1, f"{record.name} tau1_s")
                need_close(entry["tau2_s"], t2, f"{record.name} tau2_s")
                for key, ref in (("ref_tau1_s", record.ref_tau1), ("ref_tau2_s", record.ref_tau2)):
                    need((key in entry) == (ref is not None), f"{record.name} {key} presence")
                    if ref is not None:
                        need_close(entry[key], ref.si, f"{record.name} {key}")
            shown = {e["name"]: (f"{e['tau1_s'] / 1e-40:.1f}", f"{e['tau2_s'] / 1e-38:.1f}") for e in got}
        else:
            header, rows = self._rows(text, op.fmt)
            need(header == ["name", "tau1_1e-40s", "tau2_1e-38s", "tau1_s", "tau2_s"], f"header {header}")
            need([r[0] for r in rows] == [r.name for r, _, _ in expected], "salt names or order")
            for row, (record, t1, t2) in zip(rows, expected):
                need_close(row[3], t1, f"{record.name} tau1_s")
                need_close(row[4], t2, f"{record.name} tau2_s")
                need(row[1] == f"{t1 / 1e-40:.1f}" and row[2] == f"{t2 / 1e-38:.1f}", f"{record.name} display columns")
            shown = {row[0]: (row[1], row[2]) for row in rows}
        if op.expect.get("nacl_anchor"):
            need(shown.get("NaCl") == ("4.6", "4.4"), f"NaCl anchor row shows {shown.get('NaCl')}")

    def _check_factor(self, op, text):
        e = op.expect
        wavelength, rate = self._wavelength_rate(e)
        expected = math.exp(rate * e["time"] * math.expm1(-0.5 * (e["dx"] / wavelength) ** 2))
        if op.fmt == "human":
            label, value = text.strip().split(" = ")
            need(label == "decoherence factor", "human label")
        else:
            if op.fmt == "json":
                payload = json.loads(text)
            else:
                header, (row,) = self._rows(text, op.fmt)
                payload = dict(zip(header, row))
            need_close(payload["wavelength_m"], wavelength, "wavelength_m")
            need_close(payload["rate_per_s"], rate, "rate_per_s")
            value = payload["factor"]
        need(0.0 < float(value) <= 1.0, f"factor {value} outside (0, 1]")
        need_close(value, expected, "factor")

    def _check_xray(self, op, text):
        record = self._record(op.expect["salt"])
        ctx = self._ctx(record, op.expect)
        expected = {"salt": record.name, "tau1_s": self.core.tau1(ctx).si}
        expected.update(self.regimes.xray_consistency(ctx, record, self.units.time_s(op.expect["tau_x"])).to_dict())
        if op.fmt == "json":
            payload = json.loads(text)
        else:
            header, (row,) = self._rows(text, op.fmt)
            payload = dict(zip(header, row))
        need(set(payload) == set(expected), f"fields {sorted(payload)}")
        need(payload["salt"] == record.name, "salt echo")
        for key, value in expected.items():
            if key != "salt":
                need_close(payload[key], value, key)

    def _check_classify(self, op, text):
        e = op.expect
        if op.fmt == "json":
            payload = json.loads(text)
            t1, t2 = payload["inputs"]["tau1_s"], payload["inputs"]["tau2_s"]
            tau_dyn, ratio, verdict = payload["inputs"]["tau_dyn_s"], payload["timescale_ratio"], payload["verdict"]
            need(payload["inputs"]["coherent_phase_observed"] == e["observed"], "observed echo")
        elif op.fmt == "csv":
            header, (row,) = self._rows(text, "csv")
            got = dict(zip(header, row))
            t1, t2, tau_dyn = got["tau1_s"], got["tau2_s"], got["tau_dyn_s"]
            ratio, verdict = got["timescale_ratio"], got["verdict"]
        else:
            got = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
            t1, t2 = got["tau1"].removesuffix(" s"), got["tau2"].removesuffix(" s")
            tau_dyn, ratio = got["tau_dyn"].removesuffix(" s"), got["tau_dyn / tau_dec"]
            verdict = next(line for line in text.splitlines() if line.startswith("verdict: "))[9:]
        t1, t2, tau_dyn, ratio = float(t1), float(t2), float(tau_dyn), float(ratio)
        if "salt" in e:
            ctx = self._ctx(self._record(e["salt"]), e)
            need_close(t1, self.core.tau1(ctx).si, "tau1")
            need_close(t2, self.core.tau2(ctx).si, "tau2")
        need_close(tau_dyn, e["tau_dyn"], "tau_dyn echo")
        need_close(ratio, tau_dyn / min(t1, t2), "timescale ratio")
        if ratio <= e["threshold"]:
            rule = "QuantumMechanicsAdequate"
        else:
            rule = "QftRegimeIndicated" if e["observed"] else "ClassicalLimit"
        need(verdict == rule, f"verdict {verdict}, ratio rule gives {rule}")

    @staticmethod
    def log_overlap(expect, modes):
        """sum_k ln U_k, drawn here independently of iondecoh.vacuum."""
        if "uniform_u" in expect:
            return modes * math.log(expect["uniform_u"])
        rng = np.random.default_rng(expect["seed"])
        xi = rng.uniform(-expect["half_bandwidth"], expect["half_bandwidth"], modes)
        v_sq = 0.5 * (1.0 - xi / np.hypot(xi, expect["gap"]))
        return math.fsum(np.log(np.sqrt(1.0 - v_sq)))

    def _check_bcs(self, op, text):
        e = op.expect
        decay = None
        if op.fmt == "json":
            payload = json.loads(text)
            points = [(p["modes"], p["log_overlap"], p["overlap"]) for p in payload["points"]]
            decay = payload.get("decay_rate_per_mode")
        else:
            lines = text.splitlines()
            if op.fmt == "human" and lines[-1].startswith("decay rate per mode = "):
                decay = lines.pop().split(" = ")[1]
            header, rows = self._rows("\n".join(lines), op.fmt)
            need(header == ["modes", "log_overlap", "overlap"], f"header {header}")
            points = rows
        need([int(p[0]) for p in points] == e["counts"], "mode counts")
        for modes, log_overlap, overlap in points:
            expected = self.log_overlap(e, int(modes))
            need(close(float(log_overlap), expected, SIM_TOL) or abs(float(log_overlap) - expected) < 1e-12,
                 f"log overlap at {modes} modes: got {log_overlap}, sum ln U = {expected!r}")
            need_close(overlap, math.exp(float(log_overlap)), "overlap")
        if op.fmt != "csv" and len(e["counts"]) >= 3:
            need(decay is not None, "decay rate missing")
            if "uniform_u" in e:
                need_close(decay, math.log(e["uniform_u"]), "uniform decay rate", SIM_TOL)
            need(math.isfinite(float(decay)) and float(decay) <= 0.0, f"decay rate {decay}")

    def _check_sim(self, op, text):
        e = op.expect
        if op.fmt == "json":
            samples = [(s["time_s"], s["coherence"], s["trace"], s["purity"], s["min_eigenvalue"])
                       for s in json.loads(text)["samples"]]
        else:
            header, samples = self._rows(text, op.fmt)
            need(header == ["time_s", "coherence", "trace", "purity", "min_eigenvalue"], f"header {header}")
        samples = [tuple(float(v) for v in s) for s in samples]
        need(len(samples) == e["steps"] + 1, f"{len(samples)} samples for {e['steps']} steps")
        for time, coherence, trace, purity, low in samples:
            need(all(math.isfinite(v) for v in (time, coherence, trace, purity, low)), "non-finite value")
            need(abs(trace - 1.0) <= SIM_TOL, f"trace {trace!r}")
            need(low >= -SIM_TOL, f"min eigenvalue {low!r}")
            need(0.0 < purity <= 1.0 + SIM_TOL, f"purity {purity!r}")
        need_close(samples[-1][0], e["t_total"], "final time", SIM_TOL)
        # the coherence is read on the grid band nearest the separation
        half = 0.5 * 40.0 * e["width"]
        x = np.linspace(-half, half, e["num_points"])
        spacing = float(x[1] - x[0])
        band = round(e["separation"] / spacing) * spacing
        wavelength, rate = self._wavelength_rate(e)
        u = self.units
        expected = self.core.decoherence_factor(
            u.length_m(band), u.time_s(e["t_total"]), u.length_m(wavelength), u.rate_per_s(rate)
        )
        need_close(samples[-1][1], expected, "final coherence vs decoherence_factor", SIM_TOL)


class Tally:
    """Samples, counts and failures of one run.

    ``latencies`` and ``scaled_busy`` are scaled to the reference speed
    (speed.py); ``raw_latencies`` and ``busy`` are the wall times.
    """

    def __init__(self):
        self.latencies, self.raw_latencies, self.busy, self.scaled_busy, self.items = [], [], 0.0, 0.0, 0
        self.peak_kb, self.processes, self.attempted, self.failed = 0, 0, 0, 0
        self.failures, self.extra = [], {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# -- scalar library cases -------------------------------------------------------

_HBAR, _K_B, _Q_E, _AMU = codata.hbar, codata.k, codata.e, codata.atomic_mass
_G = 1.0 / (4.0 * math.pi * codata.epsilon_0)


def check_lib_case(row, case, result) -> str | None:
    """One scalar case against closed forms; ``row`` is the bundled SaltRow."""
    _, temperature, ion_count, dx, time, tau_dyn, observed, threshold = case
    wavelength, rate, t1, t2, factor, ratio, verdict = result
    f = row.fields
    m_cation, m_anion = float(f[2]) * _AMU, float(f[4]) * _AMU
    kT = _K_B * temperature
    density = float(f[5]) / (m_cation + m_anion)
    try:
        need_close(wavelength, 2.0 * math.pi * _HBAR / math.sqrt(3.0 * m_cation * kT), "wavelength")
        need_close(rate, density * (_G * _Q_E ** 2 / kT) ** 2 * math.sqrt(kT / m_cation), "rate")
        need_close(ion_count * rate * t1, 1.0, "N rate tau1")
        need_close(t2 / t1, _G * _Q_E ** 2 / (kT * float(f[6]) * 1e-10), "tau2 / tau1")
        need_close(factor, math.exp(rate * time * math.expm1(-0.5 * (dx / wavelength) ** 2)), "factor")
        need_close(ratio, tau_dyn / min(t1, t2), "timescale ratio")
        if ratio <= threshold:
            rule = "QuantumMechanicsAdequate"
        else:
            rule = "QftRegimeIndicated" if observed else "ClassicalLimit"
        need(verdict == rule, f"verdict {verdict}, ratio rule gives {rule}")
    except CheckFailure as exc:
        return f"lib case {row.name}: {exc}"
    return None
