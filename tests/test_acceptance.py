"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (bypassing pytest capture) and
enforces a wall-clock budget.  Expected values are frozen from independent
hand simulation of the fixture scenarios; they are asserted exactly.
"""

from __future__ import annotations

import copy
import os
import random
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from conftest import FIXTURES, Collector, program_source, random_program, random_var_decl
from easytime.agents_io import (
    format_event,
    listen_auto,
    load_runners,
    read_event_log,
    write_results,
)
from easytime.frontend import (
    LexError,
    ParseError,
    Predicate,
    parse_source,
    pretty,
)
from easytime.langdef import (
    compose_language,
    easytime_base,
    easytime_pp,
    easytime_pp_fragment,
)
from easytime.runtime import (
    Event,
    apply_event,
    eval_predicate,
    init_race,
    race_results,
    replay,
)
from easytime.semantics import (
    CategoryMap,
    analyze,
    decl_sequence,
)

ROSTERS = FIXTURES / "rosters"
EVENTS = FIXTURES / "events"

_capman = None


@pytest.fixture(scope="session", autouse=True)
def _find_capture_manager(request):
    # pytest captures at the fd level, so even sys.__stdout__ is swallowed;
    # the capture manager is the only reliable route to the real terminal.
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _capman = None


def _emit(line: str) -> None:
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        _emit(f"{status} criterion {number}: {title} ({elapsed * 1000:.0f} ms)")


def compiled(name: str, dialect="pp"):
    lang = easytime_base() if dialect == "base" else easytime_pp()
    ast = parse_source(program_source(name), lang)
    state, diags = analyze(ast)
    assert [d for d in diags if d.severity == "error"] == []
    return ast, state


def test_criterion_1_declaration_semantics():
    with criterion(1, "declaration semantics of the three reference declarations", 1.0):
        ast = parse_source(program_source("decls"), easytime_pp())
        state = decl_sequence(ast.decls, {})
        assert state == {
            "ROUND1": CategoryMap({}, 50),
            "ROUND2": CategoryMap({1: 20, 2: 10}, None),
            "PENALTY": CategoryMap({}, None),
        }


def test_criterion_2_sequencing_law():
    with criterion(2, "declaration sequencing law on 1000 random lists", 5.0):
        rng = random.Random(20260814)
        for _ in range(1000):
            taken: set[str] = set()
            d1 = [random_var_decl(rng, taken) for _ in range(rng.randint(0, 6))]
            d2 = [random_var_decl(rng, taken) for _ in range(rng.randint(0, 6))]
            joined = decl_sequence(d1 + d2, {})
            staged = decl_sequence(d2, decl_sequence(d1, {}))
            assert joined == staged


def test_criterion_3_extension_gating():
    with criterion(3, "extension constructs gate on the composed dialect", 1.0):
        base = easytime_base()
        snapshot = copy.deepcopy(base)
        pp = compose_language([base], easytime_pp_fragment())
        assert base == snapshot  # composition left the base untouched

        parse_source(program_source("ironman"), base)
        for name in ("decls", "cyclocross", "biathlon"):
            source = program_source(name)
            with pytest.raises((LexError, ParseError)):
                parse_source(source, base)
            parse_source(source, pp)


def test_criterion_4_ironman_end_to_end():
    with criterion(4, "ironman replay matches the hand-simulated table", 1.0):
        ast, state = compiled("ironman", dialect="base")
        race = init_race(state, load_runners(ROSTERS / "ironman.csv"))
        race = replay(race, ast, read_event_log(EVENTS / "ironman.log"))
        assert race.per_runner["TAG001"] == {
            "ROUND1": 0, "INTER1": 4000, "SWIM": 4000, "TRANS1": 5000,
            "ROUND2": 0, "INTER2": 9000, "BIKE": 9000, "TRANS2": 10000,
            "ROUND3": 0, "INTER3": 17000, "RUN": 17000,
        }
        assert race.per_runner["TAG002"] == {
            "ROUND1": 0, "INTER1": 4500, "SWIM": 4500, "TRANS1": 5500,
            "ROUND2": 0, "INTER2": 9500, "BIKE": 9500, "TRANS2": 10500,
            "ROUND3": 0, "INTER3": 17500, "RUN": 17500,
        }


def test_criterion_5_cyclocross_end_to_end(tmp_path):
    with criterion(5, "cyclo-cross laps by category and six grouped result files", 1.0):
        ast, state = compiled("cyclocross")
        roster = load_runners(ROSTERS / "cyclocross.csv")
        events = read_event_log(EVENTS / "cyclocross.log")
        race = replay(init_race(state, roster), ast, events)

        # final BIKE is the timestamp of the 4th/6th/9th crossing over both mats
        finish = {"CC001": 400, "CC002": 410, "CC003": 620,
                  "CC004": 630, "CC005": 940, "CC006": 950}
        for rfid, expected in finish.items():
            assert race.per_runner[rfid]["BIKE"] == expected
            assert race.per_runner[rfid]["ROUND1"] == 0

        # one crossing earlier the finish time is still unset
        for rfid, expected in finish.items():
            earlier = [e for e in events if not (e.rfid == rfid and e.timestamp_ms == expected)]
            partial = replay(init_race(state, roster), ast, earlier)
            assert partial.per_runner[rfid]["BIKE"] == 0

        tables = race_results(race, rank_var="BIKE", group_by="category-gender")
        paths = write_results(tables, tmp_path)
        assert sorted(map(os.path.basename, paths)) == [
            "results_cat1_female.csv", "results_cat1_male.csv",
            "results_cat2_female.csv", "results_cat2_male.csv",
            "results_cat3_female.csv", "results_cat3_male.csv",
        ]


def test_criterion_6_biathlon_end_to_end():
    with criterion(6, "biathlon penalties via payload and finish on the 4th lap", 1.0):
        ast, state = compiled("biathlon")
        race = init_race(state, load_runners(ROSTERS / "biathlon.csv"))
        assert race.per_runner["BI001"]["PENALTY"] is None

        race = apply_event(race, ast, Event(1, "BI001", 5000, payload=2))
        assert race.per_runner["BI001"]["PENALTY"] == 2  # payload, not timestamp

        race = apply_event(race, ast, Event(2, "BI001", 9000))
        assert race.per_runner["BI001"]["PENALTY"] == 1
        race = apply_event(race, ast, Event(2, "BI001", 12000))
        assert race.per_runner["BI001"]["PENALTY"] == 0

        for lap, t in enumerate((20000, 30000, 40000, 50000), start=1):
            race = apply_event(race, ast, Event(3, "BI001", t))
            assert race.per_runner["BI001"]["RUN"] == (50000 if lap == 4 else 0)
        assert race.per_runner["BI001"]["ROUND"] == 0


def _stream(port: int, events: list[Event]) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        chat = sock.makefile("rw", encoding="ascii", newline="\n")
        for event in events:
            chat.write(format_event(event) + "\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
        chat.close()


def _results_bytes(race, tmp_path, tag: str) -> bytes:
    out = tmp_path / tag
    paths = write_results(race_results(race), out)
    chunks = []
    for path in sorted(paths):
        with open(path, "rb") as handle:
            chunks.append(handle.read())
    return b"".join(chunks)


def test_criterion_7_transport_equivalence(tmp_path):
    with criterion(7, "file replay and TCP streaming produce identical races", 10.0):
        scenarios = [
            ("ironman", "base", "ironman"),
            ("cyclocross", "pp", "cyclocross"),
            ("biathlon", "pp", "biathlon"),
        ]
        for name, dialect, stem in scenarios:
            ast, state = compiled(name, dialect=dialect)
            roster = load_runners(ROSTERS / f"{stem}.csv")
            events = read_event_log(EVENTS / f"{stem}.log")
            by_file = replay(init_race(state, roster), ast, events)

            sink = Collector()
            with listen_auto(0, sink) as listener:
                _stream(listener.port, events)
                received = sink.wait_for(len(events), timeout=8.0)
            received.sort(key=lambda e: e.timestamp_ms)
            assert received == events
            by_wire = replay(init_race(state, roster), ast, received)
            assert by_wire.per_runner == by_file.per_runner
            assert _results_bytes(by_file, tmp_path, f"{stem}_file") == _results_bytes(
                by_wire, tmp_path, f"{stem}_wire"
            )

        # interleaved delivery over two connections, 200 events total
        ast, state = compiled("biathlon")
        roster = load_runners(ROSTERS / "biathlon.csv")
        one = [Event(1, "BI001", 1, payload=60)] + [
            Event(2 if i < 60 else 3, "BI001", 3 + 2 * i) for i in range(99)
        ]
        two = [Event(1, "BI002", 2, payload=60)] + [
            Event(2 if i < 60 else 3, "BI002", 4 + 2 * i) for i in range(99)
        ]
        merged = sorted(one + two, key=lambda e: e.timestamp_ms)
        assert len(merged) == 200

        sink = Collector()
        with listen_auto(0, sink) as listener:
            threads = [
                threading.Thread(target=_stream, args=(listener.port, one)),
                threading.Thread(target=_stream, args=(listener.port, two)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            received = sink.wait_for(200, timeout=8.0)
        received.sort(key=lambda e: e.timestamp_ms)
        assert received == merged
        by_file = replay(init_race(state, roster), ast, merged)
        by_wire = replay(init_race(state, roster), ast, received)
        assert by_wire.per_runner == by_file.per_runner
        assert _results_bytes(by_file, tmp_path, "stress_file") == _results_bytes(
            by_wire, tmp_path, "stress_wire"
        )


def test_criterion_8_frontend_round_trip():
    with criterion(8, "parse of pretty-print is identity on fixtures and 500 random programs", 10.0):
        pp = easytime_pp()
        for name in ("ironman", "decls", "cyclocross", "biathlon"):
            ast = parse_source(program_source(name), pp)
            assert parse_source(pretty(ast), pp) == ast
        rng = random.Random(814)
        for _ in range(500):
            ast = random_program(rng)
            assert parse_source(pretty(ast), pp) == ast


def test_criterion_9_undefined_semantics():
    with criterion(9, "undefined comparisons, dec no-op and payload precedence", 1.0):
        # equals against an undefined variable is false for every literal
        for literal in (0, 1, 7, 5000):
            assert eval_predicate(Predicate("equals", "X", literal), {"X": None}) is False
        assert eval_predicate(Predicate("equals", "X", 0), {"X": 0}) is True

        ast, state = compiled("biathlon")
        roster = load_runners(ROSTERS / "biathlon.csv")

        # dec on an undefined dynamic variable warns and changes nothing
        race = init_race(state, roster)
        race = apply_event(race, ast, Event(2, "BI001", 7000))
        assert race.per_runner["BI001"]["PENALTY"] is None
        assert len(race.warnings) == 1
        assert race.warnings[0].variable == "PENALTY"

        # upd writes the payload when present, the timestamp otherwise
        race = init_race(state, roster)
        race = apply_event(race, ast, Event(1, "BI001", 5000, payload=3))
        assert race.per_runner["BI001"]["PENALTY"] == 3
        race = apply_event(race, ast, Event(1, "BI001", 6000))
        assert race.per_runner["BI001"]["PENALTY"] == 6000
