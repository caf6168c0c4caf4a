"""Spans around calls into iondecoh, recorded from the benchmark's side.

While a SpanRecorder is active, each public function of the layers in
LAYERS is replaced, wherever an iondecoh module binds it, by a wrapper
that records (name, start_ns, end_ns, parent span, operation id). Nothing
under ``src/`` changes. Spans stay in memory; tracer.py writes them out.

Run as a script, ``python spans.py SIM_ARGS...`` makes one traced ``sim``
call in a fresh process and prints, as JSON, the seconds spent in the
densmat calls the CLI makes. It loads nothing but iondecoh, so its wall
time is that of a plain ``iondecoh sim`` call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

SCRIPT = os.path.abspath(__file__)

LAYERS = {
    "cli": ("build_parser", "main"),
    "materials": ("bundled_salt_database", "load_salts", "load_salt_database", "salt_by_name",
                  "number_density", "parse_ion"),
    "core": ("context_for_salt", "de_broglie_wavelength", "thermal_speed", "coulomb_cross_section",
             "scattering_rate", "decoherence_factor", "tau1", "tau2"),
    "regimes": ("classify", "xray_consistency"),
    "vacuum": ("pairing_family", "uniform_profile", "log_vacuum_overlap", "overlap_decay_rate"),
    "densmat": ("prepare_superposition", "suppression_kernel", "apply_decoherence", "check_invariants",
                "min_eigenvalue", "coherence_ratio", "evolve_series", "trace", "purity", "hermiticity_defect"),
}


class SpanRecorder:
    """Installs span wrappers on the iondecoh modules and restores them on exit."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._restore = []

    def wrap(self, span_name, fn, label=None, post=None):
        spans, stack, clock, recorder = self.spans, self._stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result if post is None else post(result)
            finally:
                end = clock()
                stack.pop()
                name = span_name if label is None else f"{span_name}.{label(args, result)}"
                spans[index] = (name, start, end, stack[-1] if stack else -1, recorder.op_id)

        return wrapper

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "iondecoh" or name.startswith("iondecoh.")}
        replacements = {}
        for layer, names in LAYERS.items():
            module = modules[f"iondecoh.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                label, post = _LABELS.get(fname), None
                if fname == "pairing_family":
                    post = lambda family: self.wrap("vacuum.family", family, _first_arg_k)  # noqa: E731
                replacements[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn, label, post))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def _size_tag(args, result):
    for obj in (*args[:1], result):
        if hasattr(obj, "size"):
            return f"n{obj.size}"
    return "n?"


def _first_arg_k(args, result):
    return f"k{args[0]}"


_LABELS = {
    **{fname: _size_tag for fname in LAYERS["densmat"]},
    "main": lambda args, result: args[0][0] if args and args[0] else "none",
    "uniform_profile": lambda args, result: f"k{args[1]}",
    "log_vacuum_overlap": lambda args, result: f"k{args[0].mode_count}",
}


def call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _densmat_child(argv) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(SCRIPT)), "src"))
    from iondecoh import cli

    with SpanRecorder() as recorder:
        code, _, err = call_main(cli, argv)
    if code != 0:
        sys.stderr.write(err)
        return code
    names = [span[0] for span in recorder.spans]
    outermost = [
        end - start for name, start, end, parent, _ in recorder.spans
        if name.startswith("densmat.") and (parent < 0 or not names[parent].startswith("densmat."))
    ]
    print(json.dumps({"densmat_s": sum(outermost) * 1e-9}))
    return 0


if __name__ == "__main__":
    sys.exit(_densmat_child(sys.argv[1:]))
