"""Traced run: per-layer metrics from spans around the system's public functions.

The spans are recorded here, in the benchmark, around calls into
``langdef``, ``frontend``, ``semantics``, ``runtime``, ``agents_io`` and
``cli``; nothing inside ``src/`` is instrumented.  The suite is the same for
every workload: it replays each workload's journey in process at the layer
boundaries (the compile suite, the marathon pipeline, a live lap session
through ``listen_auto``), then the runner-count x event-count replay
ladder, then a traced-versus-untraced comparison for the tracing overhead.
Every output is checked against the reference evaluator, as in the
untraced workloads.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import threading
import time
from pathlib import Path

import compile_suite
import gen
import live_laps
import marathon
import ref
from common import CHILD_PYTHON, PYTHON, ROOT, Report, percentile, run_child
from spans import Tracer

# (label, runners, events, repeats) for the ironman-program replay ladder;
# short rungs repeat and keep the fastest, so host noise does not dominate
LADDER = (("r1k_e2k", 1_000, 2_000, 5), ("r1k_e8k", 1_000, 8_000, 3),
          ("r1k_e32k", 1_000, 32_000, 1), ("r10k_e8k", 10_000, 8_000, 1),
          ("r40k_e8k", 40_000, 8_000, 1))
IMPORT_SAMPLES = 5
COMPOSE_SAMPLES = 30
COMPILE_PASSES = 3
OVERHEAD_PAIRS = 4
LIVE_SHARE_OF_SECONDS = 0.5  # the in-process live session offers this much of --seconds

IMPORT_SNIPPET = """
import sys, time
start = time.perf_counter()
import easytime.cli
sys.stdout.write(repr(time.perf_counter() - start))
"""


def _runners(rows):
    from easytime import Runner
    return [Runner(r.id, r.rfid, r.last_name, r.first_name, r.gender, r.category)
            for r in rows]


def _events(events):
    from easytime import Event
    return [Event(*e) for e in events]


def _compile(tracer: Tracer, source: str, lang, rid=None):
    from easytime import analyze, parse, tokenize
    tokens = tracer.call("frontend.tokenize", tokenize, source, lang.lexicon, rid=rid)
    ast = tracer.call("frontend.parse", parse, tokens, lang, rid=rid)
    state, diags = tracer.call("semantics.analyze", analyze, ast, rid=rid)
    return tokens, ast, state, diags


def layer_front(report: Report, tracer: Tracer, rng, work: Path, m: dict) -> None:
    from easytime import easytime_base, easytime_pp
    imports = []
    for _ in range(IMPORT_SAMPLES):
        with tracer.span("cli.import"):
            res = run_child([*CHILD_PYTHON, "-c", IMPORT_SNIPPET], work)
        if report.op(res.code == 0, f"import easytime.cli exited {res.code}"):
            imports.append(float(res.stdout))
    for _ in range(COMPOSE_SAMPLES):
        tracer.call("langdef.easytime_pp", easytime_pp)
    m["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    m["langdef.compose_ms"] = (statistics.median(tracer.durations("langdef.easytime_pp")) * 1e3,
                               "ms")

    suite = compile_suite.make_suite(rng)
    langs = {"easytime": easytime_base(), "easytime++": easytime_pp()}
    mark = len(tracer.spans)
    n_tokens = 0
    for _ in range(COMPILE_PASSES):
        n_tokens = 0
        for k, (program, source) in enumerate(suite):
            tokens, ast, _, diags = _compile(tracer, source, langs[program.dialect], rid=k)
            n_tokens += len(tokens)
            warned = {d.message for d in diags}
            report.op(ast == compile_suite.expected_ast(program)
                      and warned == compile_suite.expected_warnings(program),
                      "traced compile differs from the generated model")
    per_pass = {}
    for name in ("frontend.tokenize", "frontend.parse", "semantics.analyze"):
        d = tracer.durations(name, since=mark)
        per_pass[name] = statistics.median(
            sum(d[i:i + len(suite)]) for i in range(0, len(d), len(suite)))
    m["frontend.tokenize_ms"] = (per_pass["frontend.tokenize"] * 1e3, "ms")
    m["frontend.tokens_per_s"] = (n_tokens / per_pass["frontend.tokenize"], "1/s")
    m["frontend.parse_ms"] = (per_pass["frontend.parse"] * 1e3, "ms")
    m["frontend.parse_tokens_per_s"] = (n_tokens / per_pass["frontend.parse"], "1/s")
    m["frontend.tokens"] = (n_tokens, "count")
    m["semantics.analyze_ms"] = (per_pass["semantics.analyze"] * 1e3, "ms")


def layer_marathon(report: Report, tracer: Tracer, rng, work: Path, m: dict) -> None:
    from easytime import (easytime_pp, init_race, load_runners, race_results,
                          read_event_log, replay, write_results)
    from easytime.agents_io import write_event_log

    _, _, files, expected, journal, _ = marathon.prepare(rng, work)
    with tracer.span("journey.marathon"):
        source = (work / "marathon.ez").read_text("ascii")
        _, ast, state, _ = _compile(tracer, source, easytime_pp(), rid="marathon")
        mark = len(tracer.spans)
        roster = tracer.call("agents_io.load_runners", load_runners, work / "roster.csv")
        events = []
        for name in marathon.EVENT_FILES:
            events.extend(tracer.call("agents_io.read_event_log", read_event_log, work / name,
                                      rid=name))
        events.sort(key=lambda e: e.timestamp_ms)
        race = tracer.call("runtime.init_race", init_race, state, roster)
        race = tracer.call("runtime.replay", replay, race, ast, events)
        out = work / "traced_marathon"
        out.mkdir()
        tracer.call("agents_io.write_event_log", write_event_log,
                    [entry.event for entry in race.log], out / "journal.log")
        tables = tracer.call("runtime.race_results", race_results, race,
                             rank_var=marathon.RANK, group_by=marathon.GROUP)
        tracer.call("agents_io.write_results", write_results, tables, out)
    bad = ref.table_mismatches(expected, ref.read_tables(out))
    report.op(bad == 0, f"traced marathon: {bad} rows differ from the reference")
    report.op((out / "journal.log").read_text("ascii") == journal,
              "traced marathon: journal differs from the sorted merge")
    shutil.rmtree(out)

    def ms(name):
        return sum(tracer.durations(name, since=mark)) * 1e3

    m["agents_io.load_runners_ms"] = (ms("agents_io.load_runners"), "ms")
    m["agents_io.read_event_log_ms"] = (ms("agents_io.read_event_log"), "ms")
    m["agents_io.events_read"] = (len(events), "count")
    m["runtime.init_race_ms"] = (ms("runtime.init_race"), "ms")
    m["runtime.replay_us_per_event"] = (ms("runtime.replay") * 1e3 / len(events), "us")
    m["agents_io.write_event_log_ms"] = (ms("agents_io.write_event_log"), "ms")
    m["runtime.race_results_ms"] = (ms("runtime.race_results"), "ms")
    m["agents_io.write_results_ms"] = (ms("agents_io.write_results"), "ms")
    m["agents_io.rows_written"] = (sum(len(t.rows) for t in tables), "count")
    m["runtime.matched_ratio"] = (sum(e.matched for e in race.log) / len(race.log), "share")
    m["runtime.warnings"] = (len(race.warnings), "count")


def layer_live(report: Report, tracer: Tracer, rng, work: Path, seconds: float,
               m: dict) -> None:
    from easytime import (apply_event, easytime_pp, init_race, listen_auto, load_runners,
                          race_results, write_results)
    from easytime.agents_io import format_event

    n = max(1000, int(live_laps.RATE_PER_S * seconds * LIVE_SHARE_OF_SECONDS))
    rows, program, schedule, late_rfids = live_laps.prepare(rng, work, n)
    out = work / "traced_live"
    out.mkdir()
    _, ast, state, _ = _compile(tracer, (work / "laps.ez").read_text("ascii"), easytime_pp(),
                                rid="live_laps")
    roster = tracer.call("agents_io.load_runners", load_runners, work / "roster.csv",
                         rid="live_laps")
    holder = {"race": tracer.call("runtime.init_race", init_race, state, roster,
                                  rid="live_laps"),
              "applied": 0, "threads": 0}
    index = {e[:3]: i for i, e in enumerate(schedule)}
    sink_at = [None] * n
    apply_us = []
    journal = open(out / "journal.log", "w", encoding="ascii")

    def sink(event):
        now = time.perf_counter()
        i = index[(event.mp_id, event.rfid, event.timestamp_ms)]
        sink_at[i] = now
        holder["threads"] = max(holder["threads"], threading.active_count())
        with tracer.span("agents_io.sink", rid=i):
            start = time.perf_counter()
            holder["race"] = tracer.call("runtime.apply_event", apply_event, holder["race"],
                                         ast, event, rid=i)
            apply_us.append((time.perf_counter() - start) * 1e6)
            journal.write(format_event(event) + "\n")
            journal.flush()
            holder["applied"] += 1
            if holder["applied"] % live_laps.SNAPSHOT_EVERY == 0:
                tables = tracer.call("runtime.race_results", race_results, holder["race"],
                                     rank_var=live_laps.RANK, group_by=live_laps.GROUP, rid=i)
                tracer.call("agents_io.write_results", write_results, tables, out, rid=i)

    by_rfid = {row.rfid: row.id for row in rows}
    spec = {"lines": [gen.event_line(e) for e in schedule],
            "conn_of": [by_rfid[e[1]] % live_laps.CONNECTIONS for e in schedule],
            "rate": live_laps.RATE_PER_S, "journal": str(out / "journal.log")}
    with tracer.span("journey.live_laps"):
        listener = tracer.call("agents_io.listen_auto", listen_auto, 0, sink)
        try:
            spec["port"] = listener.port
            (work / "client.json").write_text(json.dumps(spec), "ascii")
            res = run_child([PYTHON, str(Path(live_laps.__file__)), str(work / "client.json"),
                             str(work / "client_result.json")], work)
        finally:
            tracer.call("agents_io.listener_stop", listener.stop)
            journal.close()
    report.op(res.code == 0, f"traced live client exited {res.code}: {res.stderr[-300:]!r}")
    client = json.loads((work / "client_result.json").read_text("ascii"))
    missing = sum(a is None for a in client["ack"]) + client["bad_acks"]
    report.ops(n, missing, "traced live: events without an OK ack")
    unseen = sum(s is None for s in client["seen"]) + client["unknown_journal_lines"]
    report.ops(n, unseen, "traced live: sent events missing from the journal")
    tables = race_results(holder["race"], rank_var=live_laps.RANK, group_by=live_laps.GROUP)
    expected = ref.tables(program, rows,
                          ref.evaluate(program, rows, sorted(schedule, key=lambda e: e[2])),
                          live_laps.RANK, live_laps.GROUP)
    want = ref.rows_by_id(expected)
    live = {str(row[1]): ["" if c is None else str(c) for c in row]
            for table in tables for row in table.rows}
    in_order = [str(r.id) for r in rows if r.rfid not in late_rfids]
    wrong = sum(live[i][6:] != want[i][6:] for i in in_order)
    report.ops(len(in_order), wrong, "traced live: in-order runner rows differ from reference")

    tenth = max(1, len(apply_us) // 10)
    m["runtime.apply_us_first_decile"] = (statistics.median(apply_us[:tenth]), "us")
    m["runtime.apply_us_last_decile"] = (statistics.median(apply_us[-tenth:]), "us")
    arrived = [t for t in sink_at if t is not None]
    m["runtime.apply_busy_share"] = (sum(apply_us) / 1e6 / (max(arrived) - min(arrived)),
                                     "share")
    waits = [t - s for t, s in zip(sink_at, client["sent"]) if t is not None]
    m["agents_io.listener_wait_p50_ms"] = (percentile(waits, 50) * 1e3, "ms")
    m["agents_io.listener_wait_p99_ms"] = (percentile(waits, 99) * 1e3, "ms")
    m["agents_io.listener_threads_peak"] = (holder["threads"], "count")
    late = [s - d for s, d in zip(client["sent"], client["due"])]
    m["bench.gen_late_p99_ms"] = (percentile(late, 99) * 1e3, "ms")
    shutil.rmtree(out)


def layer_ladder(report: Report, tracer: Tracer, rng, m: dict) -> None:
    from easytime import easytime_base, init_race, replay
    program = gen.ironman_program()
    _, ast, state, _ = _compile(tracer, gen.render(program), easytime_base(), rid="ladder")
    for label, n_runners, n_events, repeats in LADDER:
        rows = gen.roster(rng, n_runners, [1, 2], "LD")
        events = gen.ironman_events(rng, rows, n_events)
        for _ in range(repeats):
            race = init_race(state, _runners(rows))
            with tracer.span(f"runtime.replay.{label}", rid=label):
                race = replay(race, ast, _events(events))
        m[f"runtime.replay_us_per_event.{label}"] = (
            min(tracer.durations(f"runtime.replay.{label}")) * 1e6 / n_events, "us")
        want = ref.evaluate(program, rows, events)
        bad = sum(race.per_runner[r.rfid] != want[r.rfid] for r in rows)
        report.ops(n_runners, bad, f"ladder {label}: runner variables differ from reference")


def mini_journey(tracer: Tracer, suite, lang, state, ast, roster, events, out: Path) -> float:
    """Compile, replay and export once; a traced/untraced pair gives the overhead."""
    from easytime import apply_event, init_race, race_results, write_results
    start = time.perf_counter()
    for k, (_, source) in enumerate(suite):
        _compile(tracer, source, lang, rid=k)
    race = tracer.call("runtime.init_race", init_race, state, roster)
    for i, event in enumerate(events):
        race = tracer.call("runtime.apply_event", apply_event, race, ast, event, rid=i)
    tables = tracer.call("runtime.race_results", race_results, race, rank_var="RUN")
    tracer.call("agents_io.write_results", write_results, tables, out)
    return time.perf_counter() - start


def layer_overhead(rng, work: Path, m: dict) -> None:
    from easytime import analyze, easytime_base, parse_source
    program = gen.ironman_program()
    lang = easytime_base()
    ast = parse_source(gen.render(program), lang)
    state, _ = analyze(ast)
    suite = [(p, s) for p, s in compile_suite.make_suite(rng) if p.dialect == "easytime"][:5]
    rows = gen.roster(rng, 1_000, [1, 2], "OV")
    roster, events = _runners(rows), _events(gen.ironman_events(rng, rows, 4_000))

    def timed(enabled: bool) -> float:
        gc.collect()
        return mini_journey(Tracer(enabled), suite, lang, state, ast, roster, events,
                            work / "overhead")

    timed(False)  # warm-up
    ratios = []
    for k in range(OVERHEAD_PAIRS):
        first = k % 2 == 0  # alternate which side runs first
        a = timed(first)
        b = timed(not first)
        traced, plain = (a, b) if first else (b, a)
        ratios.append(traced / plain - 1)
    m["bench.trace_overhead_share"] = (statistics.median(ratios), "share")


def run(report: Report, rng, work: Path, seconds: float, workload: str, seed: int) -> None:
    tracer = Tracer()
    m: dict[str, tuple[float, str]] = {}
    layer_front(report, tracer, rng, work, m)
    layer_marathon(report, tracer, rng, work, m)
    layer_live(report, tracer, rng, work, seconds, m)
    layer_ladder(report, tracer, rng, m)
    layer_overhead(rng, work, m)

    spans_path = ROOT / ".perfbench_out" / f"spans_{workload}_seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}", flush=True)
    print("  self time by span (count, total s, self s):")
    for name, (count, total, own) in sorted(tracer.self_times().items(),
                                            key=lambda kv: -kv[1][2])[:14]:
        print(f"    {name:40s} {count:7d} {total:9.4f} {own:9.4f}")
    for name, (value, unit) in m.items():
        report.line(name, value, unit)
        report.metric(name, value, unit)
