"""``live_laps``: time a lap race live through ``easytime serve``.

A few hundred runners on a lap course with a categorized ``ROUND`` counter,
a payload device feeding a ``dynamicvar`` and ``--snapshot-every`` exports.
One client (this process) drives an open loop at a fixed offered rate over
two connections; each runner's events use one connection, so their arrival
order is the send order.  A small share of events is held back behind later
events of the same runner.  The roster is small, so roster-proportional
cost is absent; the listener, per-event apply cost that grows with events
applied, journal writes and snapshot exports interleaved with applies are
what this workload measures.
"""

from __future__ import annotations

import collections
import json
import os
import selectors
import shutil
import socket
import statistics
import sys
import time
from pathlib import Path

import gen
import ref
from common import (HostSpeed, Report, check_sample, easytime_argv, percentile,
                    read_launch_report, run_child, setup_sample, start_serve, stop_child,
                    wait_child)

RUNNERS = 300
RATE_PER_S = 3000
LATE_RUNNER_SHARE = 0.25
LATE_SHARE = 0.04
SNAPSHOT_EVERY = 500
CONNECTIONS = 2
POLL_S = 0.002  # journal poll period: the resolution of every lag figure
DRAIN_TIMEOUT_S = 60.0  # after the last due send; keeps a slow run under the time limit
SERVE_EXIT_TIMEOUT_S = 15.0
SETUP_PER_ROUND = 5  # rounds of samples run before and after the session
CHECK_PER_ROUND = 5
RANK, GROUP = "FINISH", "category"


def prepare(rng, work: Path, n_events: int):
    rows, program, schedule, late_rfids = gen.laps_race(
        rng, RUNNERS, n_events, LATE_RUNNER_SHARE, LATE_SHARE)
    (work / "laps.ez").write_text(gen.render(program), "ascii")
    (work / "roster.csv").write_text(gen.roster_csv(rows), "ascii")
    return rows, program, schedule, late_rfids


class Session:
    """Open-loop client: sends each line at its due time, reads acks, polls the journal."""

    def __init__(self, port: int, lines: list[bytes], conn_of: list[int], journal: Path):
        self.lines = lines
        self.conn_of = conn_of
        self.journal = journal
        self.socks = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
        n = len(lines)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.ack = [None] * n
        self.seen = [None] * n
        self.bad_acks = 0
        self.unknown_journal_lines = 0
        self.index = {line: i for i, line in enumerate(lines)}

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    def drive(self, rate: float) -> None:
        n = len(self.lines)
        sel = selectors.DefaultSelector()
        for c, sock in enumerate(self.socks):
            sel.register(sock, selectors.EVENT_READ, c)
        pending = [bytearray() for _ in self.socks]
        inflight = [collections.deque() for _ in self.socks]
        partial = [b"" for _ in self.socks]
        acked = seen = 0
        journal_fd = None
        journal_rest = b""
        t0 = time.perf_counter() + 0.05
        next_poll = t0
        i = 0
        deadline = t0 + n / rate + DRAIN_TIMEOUT_S
        try:
            while acked < n or seen < n:
                now = time.perf_counter()
                if now > deadline:
                    break
                while i < n and t0 + i / rate <= now:
                    c = self.conn_of[i]
                    self.due[i] = t0 + i / rate
                    pending[c] += self.lines[i] + b"\n"
                    inflight[c].append(i)
                    self.sent[i] = now
                    i += 1
                for c, sock in enumerate(self.socks):
                    if pending[c]:
                        try:
                            sent = sock.send(pending[c])
                        except BlockingIOError:
                            sent = 0
                        del pending[c][:sent]
                if now >= next_poll:
                    next_poll = now + POLL_S
                    if journal_fd is None and self.journal.exists():
                        journal_fd = os.open(self.journal, os.O_RDONLY)
                    if journal_fd is not None:
                        data = journal_rest + os.read(journal_fd, 1 << 20)
                        *complete, journal_rest = data.split(b"\n")
                        for line in complete:
                            k = self.index.get(line)
                            if k is None or self.seen[k] is not None:
                                self.unknown_journal_lines += 1
                                continue
                            self.seen[k] = now
                            seen += 1
                wake = next_poll if i >= n else min(next_poll, t0 + i / rate)
                for key, _ in sel.select(max(0.0, wake - time.perf_counter())):
                    c = key.data
                    data = self.socks[c].recv(1 << 16)
                    got = time.perf_counter()
                    if not data:
                        sel.unregister(self.socks[c])
                        continue
                    *replies, partial[c] = (partial[c] + data).split(b"\n")
                    for reply in replies:
                        if not inflight[c]:
                            self.bad_acks += 1
                            continue
                        k = inflight[c].popleft()
                        if reply == b"OK":
                            self.ack[k] = got
                            acked += 1
                        else:
                            self.bad_acks += 1
        finally:
            sel.close()
            if journal_fd is not None:
                os.close(journal_fd)


def run(report: Report, rng, work: Path, seconds: float) -> None:
    n_events = int(RATE_PER_S * seconds)
    rows, program, schedule, late_rfids = prepare(rng, work, n_events)
    print(f"live_laps: {len(rows)} runners, {n_events} events at {RATE_PER_S}/s over"
          f" {CONNECTIONS} connections, {len(late_rfids)} runners with late events",
          flush=True)

    host = HostSpeed()
    setup, setup_raw, checks = [], [], []

    def sample_round():
        for _ in range(SETUP_PER_ROUND):
            setup_sample(report, work, "laps.ez", "roster.csv", host, setup, setup_raw)
        for _ in range(CHECK_PER_ROUND):
            check_sample(report, work, ["laps.ez"], set(), checks)

    sample_round()

    out = work / "serve_out"
    serve_report = work / ".serve.json"
    proc, port, _ = start_serve(easytime_argv(
        "serve", "laps.ez", "--runners", "roster.csv", "--port", "0", "--out", str(out),
        "--rank", RANK, "--group", GROUP, "--snapshot-every", str(SNAPSHOT_EVERY),
        "--stop-after", str(n_events)), work, report_path=serve_report)
    if not report.op(port is not None, "serve did not announce a port"):
        stop_child(proc)
        return
    by_rfid = {row.rfid: row.id for row in rows}
    lines = [gen.event_line(e).encode("ascii") for e in schedule]
    try:
        session = Session(port, lines, [by_rfid[e[1]] % CONNECTIONS for e in schedule],
                          out / "journal.log")
        try:
            session.drive(RATE_PER_S)
        finally:
            session.close()
        # --stop-after makes serve exit on its own once every event is applied
        wait_child(proc, SERVE_EXIT_TIMEOUT_S)
    finally:
        stop_child(proc)
    ended = read_launch_report(serve_report)
    report.op(ended is not None and ended["code"] == 0,
              f"serve exited {ended and ended['code']}")
    sample_round()

    missing_acks = sum(a is None for a in session.ack)
    report.ops(n_events, missing_acks + session.bad_acks, "events without an OK ack")
    missing_journal = sum(s is None for s in session.seen)
    report.ops(n_events, missing_journal + session.unknown_journal_lines,
               "sent events missing from the journal (or journaled twice)")

    # Replayed tables must equal the reference; live rows must too, for
    # every runner whose events arrived in timestamp order.
    expected = ref.tables(program, rows,
                          ref.evaluate(program, rows, sorted(schedule, key=lambda e: e[2])),
                          RANK, GROUP)
    replay_out = work / "results_out"
    res = run_child(easytime_argv("results", "laps.ez", "--runners", "roster.csv",
                                  "--journal", str(out / "journal.log"), "--rank", RANK,
                                  "--group", GROUP, "--out", str(replay_out)), work,
                    timeout_s=40.0)
    if report.op(res.code == 0, f"results exited {res.code}: {res.stderr[-300:]!r}"):
        replayed = ref.read_tables(replay_out)
        bad = ref.table_mismatches(expected, replayed)
        report.op(bad == 0, f"results: {bad} rows differ from the reference")
        live = ref.rows_by_id(ref.read_tables(out))
        want = ref.rows_by_id(expected)
        in_order = [str(r.id) for r in rows if r.rfid not in late_rfids]
        wrong = sum(live.get(i, [])[6:] != want[i][6:] for i in in_order)
        report.ops(len(in_order), wrong, "live rows of in-order runners differ from the reference")
        replayed_rows = ref.rows_by_id(replayed)
        divergent = sum(live.get(i) != row for i, row in replayed_rows.items())
        report.line("divergent_rows", divergent, "count",
                    f"(of {len(replayed_rows)} rows; {len(late_rfids)} runners had late events)")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(replay_out, ignore_errors=True)

    acks = [a - d for a, d in zip(session.ack, session.due) if a is not None]
    lags = [s - d for s, d in zip(session.seen, session.due) if s is not None]
    if not (setup and checks and acks and lags and ended is not None):
        return
    first_due = session.due[0]
    wall = max(s for s in session.seen if s is not None) - first_due
    report.metric("setup_s", statistics.median(setup), "s")
    report.metric("wall_s", wall, "s")
    report.metric("peak_rss_mb", ended["rss_mb"], "MB")
    report.timing("setup_s", setup, "s", "at reference host speed")
    report.timing("setup_raw_s", setup_raw, "s", "as measured")
    report.line("wall_s", wall, "s", "(first due send to last journal line)")
    report.latency("ack", acks)
    report.latency("lag", lags, f"journal polled every {POLL_S * 1e3:g} ms")
    tenth = max(1, len(lags) // 10)
    report.line("lag_first_decile_p50_ms", statistics.median(lags[:tenth]) * 1e3, "ms")
    report.line("lag_last_decile_p50_ms", statistics.median(lags[-tenth:]) * 1e3, "ms")
    report.line("applied_eps", len(lags) / wall, "1/s", f"(offered {RATE_PER_S}/s)")
    report.line("peak_rss_mb", ended["rss_mb"], "MB")
    report.timing("check_s", checks, "s", "as measured")
    report.timing("host_calibration_s", host.samples, "s", f"reference {host.REF_S:g}")
    late = [s - d for s, d in zip(session.sent, session.due)]
    report.line("gen_late_p99_ms", percentile(late, 99) * 1e3, "ms")


def client_main(spec_path: str, result_path: str) -> int:
    """Drive one session from a child process (used by the traced run)."""
    spec = json.loads(Path(spec_path).read_text("ascii"))
    session = Session(spec["port"], [line.encode("ascii") for line in spec["lines"]],
                      spec["conn_of"], Path(spec["journal"]))
    try:
        session.drive(spec["rate"])
    finally:
        session.close()
    Path(result_path).write_text(json.dumps({
        "due": session.due, "sent": session.sent, "ack": session.ack, "seen": session.seen,
        "bad_acks": session.bad_acks, "unknown_journal_lines": session.unknown_journal_lines,
    }), "ascii")
    return 0


if __name__ == "__main__":
    sys.exit(client_main(*sys.argv[1:3]))
