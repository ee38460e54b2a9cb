"""EasyTime race benchmark: one command for every workload.

    python3 perfbench/run.py --workload marathon|live_laps|compile_suite \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Every input is generated from ``--seed``;
the system only sees the generated files and bytes.  With ``--trace 0`` the
workload's journey runs through the real entry points (``python -m
easytime.cli`` with ``PYTHONPATH=src``) and the end-to-end metrics are
printed.  With ``--trace 1`` the per-layer suite in ``traced.py`` runs
instead and prints the per-layer metrics.  Report lines go to stdout; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output agreed
with the reference evaluator.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
from pathlib import Path

from common import ROOT, SRC, Report

WORKLOADS = ("marathon", "live_laps", "compile_suite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "easytime" / "cli.py").is_file():
        print(f"error: no easytime sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    report = Report(args.workload)
    rng = random.Random(f"{args.workload}:{args.seed}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}", flush=True)
    try:
        if args.trace:
            import traced
            traced.run(report, rng, work, args.seconds, args.workload, args.seed)
        elif args.workload == "marathon":
            import marathon
            marathon.run(report, rng, work, args.seconds)
        elif args.workload == "live_laps":
            import live_laps
            live_laps.run(report, rng, work, args.seconds)
        else:
            import compile_suite
            compile_suite.run(report, rng, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())
