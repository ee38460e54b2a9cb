"""``marathon``: replay the first part of a big-city marathon with ``easytime run``.

Forty thousand runners and seven chip mats plus a manual backup point; the
events of the leading runners arrive in two auto-mat files and one manual
file, with a share of stray rfids that are not on the roster.  This is where
roster-proportional per-event cost, file parsing and merging, and a
40k-row grouped export dominate.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import gen
import ref
from common import HostSpeed, Report, check_sample, easytime_argv, run_child, setup_sample

RUNNERS = 40_000
EVENTS = 8_000
STRAY_SHARE = 0.03
RANK, GROUP = "FINISH", "category-gender"
SETUP_PER_ROUND = 2  # one round before the first run and one after each run
CHECK_PER_ROUND = 3
EVENT_FILES = ("mats_a.log", "mats_b.log", "manual.log")


def prepare(rng, work: Path):
    """Write the race files; returns what the outputs are checked against."""
    program = gen.marathon_program()
    rows = gen.roster(rng, RUNNERS, list(range(1, 10)), "MR")
    files = gen.marathon_events(rng, rows, EVENTS, STRAY_SHARE)
    (work / "marathon.ez").write_text(gen.render(program), "ascii")
    (work / "roster.csv").write_text(gen.roster_csv(rows), "ascii")
    for name, events in zip(EVENT_FILES, files):
        (work / name).write_text("".join(gen.event_line(e) + "\n" for e in events), "ascii")
    ordered = ref.sorted_events(files)
    expected = ref.tables(program, rows, ref.evaluate(program, rows, ordered), RANK, GROUP)
    journal = "".join(gen.event_line(e) + "\n" for e in ordered)
    left = next(d for d in program.decls if d.name == "LEFT")
    no_arm = sum(1 for r in rows if r.category not in dict(left.arms))
    return program, rows, files, expected, journal, no_arm


def run(report: Report, rng, work: Path, seconds: float) -> None:
    program, rows, files, expected, journal, no_arm = prepare(rng, work)
    print(f"marathon: {len(rows)} runners, {sum(map(len, files))} events in "
          f"{len(files)} files, {no_arm} runners without a LEFT arm", flush=True)

    host = HostSpeed()
    setup, setup_raw, checks, walls, rss = [], [], [], [], []

    def sample_round():
        # spread over the run, so that slow drifts of the host average out
        for _ in range(SETUP_PER_ROUND):
            setup_sample(report, work, "marathon.ez", "roster.csv", host, setup, setup_raw)
        for _ in range(CHECK_PER_ROUND):
            check_sample(report, work, ["marathon.ez"], set(), checks)

    start = time.perf_counter()
    sample_round()
    while not walls or time.perf_counter() - start < seconds:
        out = work / "run_out"
        res = run_child(easytime_argv(
            "run", "marathon.ez", "--runners", "roster.csv", "--events", *EVENT_FILES,
            "--rank", RANK, "--group", GROUP, "--out", str(out)), work)
        ok = report.op(res.code == 0, f"run exited {res.code}: {res.stderr[-300:]!r}")
        if ok:
            bad = ref.table_mismatches(expected, ref.read_tables(out))
            ok = report.op(bad == 0, f"run: {bad} result rows differ from the reference")
            journal_ok = (out / "journal.log").read_text("ascii") == journal
            ok = report.op(journal_ok, "run: journal differs from the sorted merge") and ok
            warned = res.stderr.count("warning: ")
            ok = report.op(warned == no_arm,
                           f"run: {warned} warnings, expected {no_arm}") and ok
        if ok:
            walls.append(res.wall_s)
            rss.append(res.rss_mb)
        shutil.rmtree(out, ignore_errors=True)
        if not ok:
            break
        sample_round()

    if not (setup and checks and walls):
        return
    report.metric("setup_s", statistics.median(setup), "s")
    report.metric("wall_s", min(walls), "s")
    report.metric("peak_rss_mb", statistics.median(rss), "MB")
    report.timing("setup_s", setup, "s", "at reference host speed")
    report.timing("setup_raw_s", setup_raw, "s", "as measured")
    report.timing("run_s", walls, "s", "as measured")
    report.timing("peak_rss_mb", rss, "MB")
    report.timing("check_s", checks, "s", "as measured")
    report.timing("host_calibration_s", host.samples, "s", f"reference {host.REF_S:g}")
    report.line("events_per_run", sum(map(len, files)), "count")
