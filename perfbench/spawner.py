"""Run child processes from a small helper process and report their rusage.

Linux charges a child's peak RSS with the RSS of the process that forked
it, because the high-water mark of the pre-exec image carries over exec.
The benchmark process holds parsed outputs and expected tables, so it
would inflate ``peak_rss_mb``. This helper is a bare interpreter that
only forks, so each child's ``ru_maxrss`` is its own.

Protocol: one JSON request per line on stdin
``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``, one JSON reply
per line on stdout ``{"returncode", "wall_s", "maxrss_kb"}``. The wall
time runs from just before the fork to the child's exit. The helper exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=req["env"], cwd=req["cwd"],
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client side: starts the helper and runs one child at a time through it."""

    def __init__(self, env: dict, cwd: str, workdir: str):
        self.env, self.cwd = env, cwd
        self._out = os.path.join(workdir, "child.out")
        self._err = os.path.join(workdir, "child.err")
        self._helper = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd,
        )

    def run(self, argv: list, timeout: float = 120.0) -> dict:
        """Run argv to completion; adds the child's stdout and stderr text to the reply."""
        req = {"argv": argv, "env": self.env, "cwd": self.cwd, "stdout": self._out,
               "stderr": self._err, "timeout": timeout}
        self._helper.stdin.write(json.dumps(req) + "\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("spawn helper exited")
        reply = json.loads(line)
        for key, path in (("stdout", self._out), ("stderr", self._err)):
            with open(path, encoding="utf-8", errors="replace") as handle:
                reply[key] = handle.read()
        return reply

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
