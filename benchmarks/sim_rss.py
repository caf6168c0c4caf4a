"""Peak RSS of fresh ``iondecoh sim`` processes, for the README's memory figures.

Usage::

    python benchmarks/sim_rss.py [--src DIR]

Runs ``sim`` in a new interpreter for each grid size and step count below,
REPEAT times each, with BLAS pinned to one thread, and prints the
median ``ru_maxrss`` of each in MB (KiB / 1024, as perfbench reports it).
``--src`` picks the source tree to import ``iondecoh`` from, by default
the ``src`` directory next to this script, so two checkouts can be
compared. Allocator settings in the environment, such as glibc's
``MALLOC_MMAP_THRESHOLD_``, pass through to the children.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

RUNS = ((1024, 1), (1024, 4), (1024, 20), (2048, 1))  # (num_points, steps)
REPEAT = 3  # fresh processes per run; the median is printed
SIM_ARGS = ["--wavelength", "1e-10", "--rate", "1e15", "--separation", "1e-8", "--width", "1e-9",
            "--t-total", "3e-15", "--phase", "0.7", "--format", "csv"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def peak_rss_mb(src: str, num_points: int, steps: int) -> float:
    """ru_maxrss of one fresh sim process, in MB."""
    env = dict(os.environ, PYTHONPATH=src, **{name: "1" for name in THREAD_VARS})
    argv = [sys.executable, "-m", "iondecoh.cli", "sim", *SIM_ARGS,
            "--num-points", str(num_points), "--steps", str(steps)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"sim {num_points}x{steps} failed: {err.decode().strip()}")
    return usage.ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = parser.parse_args()
    print("num_points,steps,peak_rss_mb")
    for num_points, steps in RUNS:
        peaks = [peak_rss_mb(os.path.abspath(args.src), num_points, steps) for _ in range(REPEAT)]
        print(f"{num_points},{steps},{statistics.median(peaks):.1f}")


if __name__ == "__main__":
    main()
