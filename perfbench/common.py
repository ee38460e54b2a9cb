"""Process handling, statistics and result reporting shared by the workloads."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable
LAUNCH = Path(__file__).resolve().parent / "launch.py"
# Children skip site-packages (-S): the system is stdlib-only, and the host
# interpreter's .pth hooks would otherwise add their own import time and noise.
CHILD_PYTHON = [PYTHON, "-S"]
CHILD_TIMEOUT_S = 100.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def easytime_argv(*args: str) -> list[str]:
    return [*CHILD_PYTHON, "-m", "easytime.cli", *args]


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launched(argv: list[str], report_path: Path) -> list[str]:
    """``argv`` run through ``launch.py``, which writes its exit, wall time and RSS."""
    return [PYTHON, "-S", str(LAUNCH), str(report_path), *argv]


def read_launch_report(report_path: Path) -> dict | None:
    """What ``launch.py`` recorded, or None if it was killed before the command ended."""
    try:
        return json.loads(report_path.read_text("ascii"))
    except (OSError, ValueError):
        return None


def run_child(argv: list[str], cwd: Path, timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one process to completion; wall time and max RSS come from wait4."""
    out_path, err_path, report_path = cwd / ".child.out", cwd / ".child.err", cwd / ".child.json"
    report_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(launched(argv, report_path), cwd=cwd, env=child_env(),
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        code = wait_child(proc, timeout_s)
    ended = read_launch_report(report_path) or {"code": code or -1, "wall_s": 0.0,
                                                 "rss_mb": 0.0}
    return ChildResult(ended["code"], ended["wall_s"], ended["rss_mb"],
                       out_path.read_text("ascii", "replace"),
                       err_path.read_text("ascii", "replace"))


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the session ``proc`` leads: the launcher and the command it runs."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_child(proc: subprocess.Popen, timeout_s: float) -> int:
    """Reap ``proc``, killing its group first if it outlives ``timeout_s``."""
    watchdog = threading.Timer(timeout_s, kill_group, (proc,))
    watchdog.start()
    try:
        _, status = os.waitpid(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode


def start_serve(argv: list[str], cwd: Path, timeout_s: float = 60.0,
                report_path: Path | None = None):
    """Launch ``serve``; returns ``(proc, port, seconds until listening)``.

    ``port`` is None when the process did not announce a port in time.  With
    ``report_path``, ``serve`` runs through ``launch.py``, which records its
    exit code and max RSS there when it ends.
    """
    err = open(cwd / ".serve.err", "ab")
    if report_path is not None:
        report_path.unlink(missing_ok=True)
        argv = launched(argv, report_path)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=err, stdin=subprocess.DEVNULL, start_new_session=True)
    err.close()
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    line = b""
    deadline = start + timeout_s
    while not line.endswith(b"\n"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not sel.select(remaining):
            break
        chunk = os.read(proc.stdout.fileno(), 256)
        if not chunk:
            break
        line += chunk
    ready = time.perf_counter() - start
    sel.close()
    text = line.decode("ascii", "replace").strip()
    port = int(text.rsplit(" ", 1)[1]) if text.startswith("listening on port ") else None
    return proc, port, ready


def stop_child(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and its group unless it was already reaped, and wait for it."""
    if proc.returncode is None:
        kill_group(proc)
        wait_child(proc, 60.0)
    if proc.stdout is not None:
        proc.stdout.close()


def setup_sample(report: Report, work: Path, program_file: str, roster_file: str,
                 host: HostSpeed, into: list, raw: list) -> None:
    """Seconds from launching ``serve`` to its ``listening on port`` line.

    ``raw`` gets the measured seconds, ``into`` the same at reference host speed.
    """
    out = work / "serve_setup"
    before = host.sample()
    proc, port, ready = start_serve(easytime_argv(
        "serve", program_file, "--runners", roster_file, "--port", "0", "--out", str(out)), work)
    stop_child(proc)
    after = host.sample()
    if report.op(port is not None, "serve did not announce a port"):
        raw.append(ready)
        into.append(host.scale(ready, before, after))
    shutil.rmtree(out, ignore_errors=True)


def check_sample(report: Report, work: Path, args: list[str], expected, into: list,
                 rss: list | None = None) -> None:
    """One fresh-interpreter ``easytime check``; ``expected`` is the set of
    diagnostic messages it must print."""
    res = run_child(easytime_argv("check", *args), work)
    got = {line.split(": ", 2)[-1] for line in res.stdout.splitlines()}
    if report.op(res.code == 0 and got == expected,
                 f"check exited {res.code}, printed {sorted(got)[:5]}"):
        into.append(res.wall_s)
        if rss is not None:
            rss.append(res.rss_mb)


class HostSpeed:
    """Scale interpreter-bound timings to a reference host speed.

    The host shares its cores with other machines, and its speed for
    interpreter-bound work drifts by up to 2x over tens of seconds; a
    compile pass or a fresh interpreter's start-up slows down with it.  A
    calibration task, taken right next to each timed sample, measures the
    current speed: it tokenizes a fixed program text with a regular
    expression, builds small objects from the tokens and groups them in a
    dict, which is the kind of work the system's own start-up and compiler
    do.  It runs only the benchmark's code and the standard library, so a
    change to the system does not move it.  ``scale`` returns a sample in
    seconds on a host where the calibration task takes ``REF_S`` seconds.
    """

    REF_S = 0.035  # typical calibration time on the reference host (NOTES.md)
    TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9+]*)"
                       r"|(?P<op>:=|==|->|[{}()\[\];,=\"])|(?P<ws>\s+|//[^\n]*)|(?P<other>.)")

    class _Node:
        __slots__ = ("kind", "value", "kids")

        def __init__(self, kind, value, kids):
            self.kind, self.value, self.kids = kind, value, kids

    def __init__(self):
        import gen  # the calibration text is the same for every seed and workload
        program = gen.random_program(random.Random("host-speed"), "easytime++", 256, 300)
        self.text = gen.render(program) * 3
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds for one run of the calibration task (also kept in ``samples``)."""
        node = self._Node
        # the benchmark's own heap (rosters, expected tables) must not add collections
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        tokens = [(m.lastgroup, m.group()) for m in self.TOKEN.finditer(self.text)
                  if m.lastgroup != "ws"]
        leaves = [node(kind, value, ()) for kind, value in tokens]
        groups = [node("group", i, tuple(leaves[i:i + 8])) for i in range(0, len(leaves), 8)]
        index: dict = {}
        for group in groups:
            index.setdefault(tuple(leaf.value for leaf in group.kids[:3]), []).append(group)
        elapsed = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def scale(self, seconds: float, *calibration: float) -> float:
        """``seconds`` at reference speed, given calibration samples taken next to it."""
        return seconds * self.REF_S / statistics.fmean(calibration)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_q(n: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return None


@dataclass
class Report:
    """Everything a run prints: report lines, counts and the final JSON."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # defect probes: counted in the printed failed_share, not in the JSON
    probes: int = 0
    probes_failed: int = 0

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def ops(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {failed} of {attempted}")

    def line(self, name: str, value, unit: str, note: str = "") -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {self.workload}.{name} = {text} {unit}{'  ' + note if note else ''}",
              flush=True)

    def timing(self, name: str, samples: list[float], unit: str, note: str = "") -> None:
        """Print median, fastest and tail of ``samples`` with the sample count."""
        q = tail_q(len(samples))
        tail = f", p{q:g} {percentile(samples, q):.6g}" if q and q > 50 else ""
        self.line(name, statistics.median(samples), unit,
                  f"(median of n={len(samples)}, min {min(samples):.6g}{tail}"
                  f"{'; ' + note if note else ''})")

    def latency(self, name: str, samples: list[float], note: str = "") -> None:
        """``<name>_p50_ms``, ``_p99_ms`` and the highest tail with ten samples beyond."""
        n = f"n={len(samples)}" + (f", {note}" if note else "")
        self.line(f"{name}_p50_ms", percentile(samples, 50) * 1e3, "ms", f"({n})")
        self.line(f"{name}_p99_ms", percentile(samples, 99) * 1e3, "ms", f"({n})")
        q = tail_q(len(samples))
        if q and q > 99:
            self.line(f"{name}_p{q:g}_ms", percentile(samples, q) * 1e3, "ms", f"({n})")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def finish(self) -> int:
        for problem in self.problems:
            print(f"  FAILED: {problem}", file=sys.stderr)
        attempted, failed = self.attempted + self.probes, self.failed + self.probes_failed
        self.line("failed_share", failed / max(1, attempted), "share",
                  f"({failed} of {attempted} operations"
                  f"{', defect probes included' if self.probes else ''})")
        correct = self.failed == 0
        print(json.dumps({"correct": correct, "attempted": max(1, self.attempted),
                          "failed": self.failed, "metrics": self.metrics}), flush=True)
        return 0 if correct else 1
