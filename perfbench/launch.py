"""Run one command and record how it ended: ``launch.py REPORT ARGV...``.

A process started with fork or vfork counts the parent's resident pages in
its ``ru_maxrss`` until it calls exec, so a child started straight from the
benchmark, which holds rosters and expected tables, would report the
benchmark's memory instead of its own.  This launcher is a small interpreter
that starts the command, reaps it with ``wait4`` and writes ``{"code",
"wall_s", "rss_mb"}`` as JSON to REPORT.  The command inherits the launcher's
standard streams.  Callers start the launcher in a session of its own, so one
``killpg`` stops both.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="ascii") as out:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "rss_mb": usage.ru_maxrss / 1024.0}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
