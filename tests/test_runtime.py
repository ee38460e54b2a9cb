from __future__ import annotations

import random

import pytest

from conftest import program_source, random_program
from easytime.frontend import Predicate, parse_source
from easytime.langdef import easytime_base, easytime_pp
from easytime.runtime import (
    RUNNER_COLUMNS,
    DuplicateRfidError,
    DuplicateRunnerIdError,
    Event,
    Runner,
    UnknownMeasuringPlaceError,
    UnknownVariableError,
    apply_event,
    eval_predicate,
    init_race,
    race_results,
    replay,
)
from easytime.semantics import analyze

ANA = Runner(1, "TAG001", "Novak", "Ana", "female", 1)
MAJA = Runner(2, "TAG002", "Kovac", "Maja", "female", 2)
IVO = Runner(3, "TAG003", "Horvat", "Ivo", "male", 3)


def compiled(name: str, dialect="pp"):
    lang = easytime_base() if dialect == "base" else easytime_pp()
    ast = parse_source(program_source(name), lang)
    state, diags = analyze(ast)
    assert [d for d in diags if d.severity == "error"] == []
    return ast, state


def test_init_race_uses_category_arms():
    _, state = compiled("cyclocross")
    race = init_race(state, [ANA, MAJA, IVO])
    assert race.per_runner["TAG001"]["ROUND1"] == 4
    assert race.per_runner["TAG002"]["ROUND1"] == 6
    assert race.per_runner["TAG003"]["ROUND1"] == 9
    assert all(v["BIKE"] == 0 for v in race.per_runner.values())
    assert race.warnings == ()


def test_init_race_constant_ignores_category():
    _, state = compiled("ironman", dialect="base")
    race = init_race(state, [ANA, IVO])
    assert race.per_runner["TAG001"]["ROUND1"] == race.per_runner["TAG003"]["ROUND1"]


def test_init_race_dynamic_starts_undefined():
    _, state = compiled("biathlon")
    race = init_race(state, [ANA])
    assert race.per_runner["TAG001"]["PENALTY"] is None


def test_init_race_warns_on_unmapped_category():
    _, state = compiled("cyclocross")
    stray = Runner(9, "TAG009", "Zupan", "Eva", "female", 7)
    race = init_race(state, [ANA, stray])
    assert race.per_runner["TAG009"]["ROUND1"] is None
    assert len(race.warnings) == 1
    warning = race.warnings[0]
    assert warning.rfid == "TAG009"
    assert warning.variable == "ROUND1"
    assert "category 7" in warning.message


def test_init_race_rejects_duplicate_rfid():
    _, state = compiled("biathlon")
    with pytest.raises(DuplicateRfidError):
        init_race(state, [ANA, Runner(5, "TAG001", "Dup", "Tag", "male", 1)])


def test_init_race_rejects_duplicate_runner_id():
    _, state = compiled("biathlon")
    with pytest.raises(DuplicateRunnerIdError):
        init_race(state, [ANA, Runner(1, "TAG009", "Dup", "Id", "male", 1)])


def test_eval_predicate_truth_table():
    variables = {"X": 4, "Y": None}
    assert eval_predicate(Predicate("true"), variables)
    assert eval_predicate(Predicate("equals", "X", 4), variables)
    assert not eval_predicate(Predicate("equals", "X", 5), variables)
    assert not eval_predicate(Predicate("equals", "Y", 0), variables)
    assert not eval_predicate(Predicate("equals", "Y", 4), variables)


def test_apply_event_runs_statements_in_order():
    ast, state = compiled("ironman", dialect="base")
    race = init_race(state, [ANA])
    for i in range(1, 4):
        race = apply_event(race, ast, Event(1, "TAG001", i * 1000))
        assert race.per_runner["TAG001"]["SWIM"] == 0  # still at its initial value
        assert race.per_runner["TAG001"]["INTER1"] == i * 1000
    race = apply_event(race, ast, Event(1, "TAG001", 4000))
    assert race.per_runner["TAG001"]["SWIM"] == 4000
    assert race.per_runner["TAG001"]["ROUND1"] == 0


def test_guard_sees_same_event_updates():
    # TRANS2 is guarded on the lap counter BEFORE its dec, RUN on it AFTER,
    # so the first crossing sets TRANS2 and the eighth sets RUN.
    ast, state = compiled("ironman", dialect="base")
    race = init_race(state, [ANA])
    times = [10000 + i * 1000 for i in range(8)]
    for t in times:
        race = apply_event(race, ast, Event(4, "TAG001", t))
    v = race.per_runner["TAG001"]
    assert v["TRANS2"] == times[0]
    assert v["RUN"] == times[-1]
    assert v["INTER3"] == times[-1]
    assert v["ROUND3"] == 0


def test_upd_payload_overrides_timestamp():
    ast, state = compiled("biathlon")
    race = init_race(state, [ANA])
    race = apply_event(race, ast, Event(1, "TAG001", 5000, payload=2))
    assert race.per_runner["TAG001"]["PENALTY"] == 2


def test_dec_on_undefined_is_warning_noop():
    ast, state = compiled("biathlon")
    race = init_race(state, [ANA])
    race = apply_event(race, ast, Event(2, "TAG001", 7000))
    assert race.per_runner["TAG001"]["PENALTY"] is None
    assert len(race.warnings) == 1
    assert race.warnings[0].variable == "PENALTY"


def test_dec_may_go_below_zero():
    ast, state = compiled("biathlon")
    race = init_race(state, [ANA])
    race = apply_event(race, ast, Event(1, "TAG001", 5000, payload=1))
    race = apply_event(race, ast, Event(2, "TAG001", 6000))
    race = apply_event(race, ast, Event(2, "TAG001", 7000))
    assert race.per_runner["TAG001"]["PENALTY"] == -1


def test_runners_are_isolated():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA, MAJA])
    race = apply_event(race, ast, Event(1, "TAG001", 1000))
    assert race.per_runner["TAG001"]["ROUND1"] == 3
    assert race.per_runner["TAG002"]["ROUND1"] == 6


def test_unmatched_rfid_is_logged_not_applied():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    before = race.per_runner
    race = apply_event(race, ast, Event(1, "GHOST", 1000))
    assert race.per_runner == before
    assert len(race.log) == 1
    assert race.log[0].matched is False
    assert race.log[0].fired == ()


def test_unknown_measuring_place_raises():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    with pytest.raises(UnknownMeasuringPlaceError):
        apply_event(race, ast, Event(9, "TAG001", 1000))


def test_replay_names_offending_event_index():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    events = [Event(1, "TAG001", 1000), Event(2, "TAG001", 2000), Event(9, "TAG001", 3000)]
    with pytest.raises(UnknownMeasuringPlaceError) as err:
        replay(race, ast, events)
    assert err.value.index == 2
    assert "event 2" in str(err.value)


def test_apply_event_is_functional():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    snapshot = {rfid: dict(v) for rfid, v in race.per_runner.items()}
    after = apply_event(race, ast, Event(1, "TAG001", 1000))
    assert race.per_runner == snapshot
    assert after is not race
    assert after.per_runner["TAG001"]["ROUND1"] == 3


def test_replay_on_no_events_is_identity():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    assert replay(race, ast, []) == race


def test_replay_is_deterministic():
    ast, state = compiled("cyclocross")
    events = [Event(1 + i % 2, "TAG001", 1000 * (i + 1)) for i in range(4)]
    first = replay(init_race(state, [ANA]), ast, events)
    second = replay(init_race(state, [ANA]), ast, events)
    assert first.per_runner == second.per_runner
    assert first.log == second.log


def finished_cyclo_race():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA, MAJA, IVO])
    t = 0
    finish = {"TAG001": 4, "TAG002": 6, "TAG003": 9}
    for rfid, crossings in finish.items():
        for i in range(crossings):
            t += 10
            race = apply_event(race, ast, Event(1 + i % 2, rfid, t))
    return race


def test_race_results_orders_by_rank_var():
    race = finished_cyclo_race()
    (table,) = race_results(race, rank_var="BIKE")
    assert table.label == ""
    assert table.columns == RUNNER_COLUMNS + ("BIKE", "ROUND1")
    assert [(row[0], row[1]) for row in table.rows] == [(1, 1), (2, 2), (3, 3)]


def test_race_results_ranks_undefined_last():
    # PENALTY is dynamic: defined only for the runner whose device reported
    ast, state = compiled("biathlon")
    race = init_race(state, [ANA, MAJA])
    race = apply_event(race, ast, Event(1, "TAG002", 5000, payload=3))
    (table,) = race_results(race, rank_var="PENALTY")
    assert [(row[0], row[1]) for row in table.rows] == [(1, 2), (None, 1)]
    ana_row = table.rows[1]
    assert ana_row[table.columns.index("PENALTY")] is None


def test_race_results_grouping():
    race = finished_cyclo_race()
    by_cat = race_results(race, rank_var="BIKE", group_by="category")
    assert [t.label for t in by_cat] == ["cat1", "cat2", "cat3"]
    assert all(len(t.rows) == 1 for t in by_cat)
    by_gender = race_results(race, group_by="gender")
    assert [t.label for t in by_gender] == ["female", "male"]
    assert [len(t.rows) for t in by_gender] == [2, 1]
    both = race_results(race, group_by="category-gender")
    assert [t.label for t in both] == ["cat1_female", "cat2_female", "cat3_male"]


def test_race_results_rejects_unknown_rank_var():
    race = finished_cyclo_race()
    with pytest.raises(UnknownVariableError):
        race_results(race, rank_var="NOPE")
    with pytest.raises(ValueError):
        race_results(race, group_by="shoe-size")


def test_log_records_fired_statements():
    ast, state = compiled("cyclocross")
    race = init_race(state, [ANA])
    race = apply_event(race, ast, Event(1, "TAG001", 1000))
    entry = race.log[0]
    assert entry.matched is True
    # lap counter decremented but the finish guard did not fire yet
    assert [s.instr for s in entry.fired] == ["dec"]


def test_init_race_program3_reference_categories():
    ast = parse_source(program_source("decls"), easytime_pp())
    state, _ = analyze(ast)
    race = init_race(state, [ANA, MAJA, Runner(9, "TAG009", "Zupan", "Eva", "female", 7)])
    assert race.per_runner["TAG001"]["ROUND2"] == 20
    assert race.per_runner["TAG002"]["ROUND2"] == 10
    assert race.per_runner["TAG009"]["ROUND2"] is None
    assert all(v["ROUND1"] == 50 for v in race.per_runner.values())
    assert all(v["PENALTY"] is None for v in race.per_runner.values())


def random_race(rng):
    while True:
        ast = random_program(rng)
        if ast.places:
            break
    state, diags = analyze(ast)
    assert [d for d in diags if d.severity == "error"] == []
    roster = [
        Runner(i + 1, f"R{i:03d}", f"Last{i}", f"First{i}", rng.choice(("female", "male")), rng.randint(0, 9))
        for i in range(rng.randint(2, 4))
    ]
    events = [
        Event(
            rng.choice(ast.places).mp_id,
            rng.choice([r.rfid for r in roster] + ["GHOST"]),
            t * 10,
        )
        for t in range(1, rng.randint(5, 30))
    ]
    return ast, state, roster, events


def test_property_runner_isolation():
    rng = random.Random(4242)
    for _ in range(25):
        ast, state, roster, events = random_race(rng)
        race = init_race(state, roster)
        for event in events:
            before = race.per_runner
            race = apply_event(race, ast, event)
            for rfid, variables in before.items():
                if rfid != event.rfid:
                    assert race.per_runner[rfid] == variables


def test_property_dec_only_variables_never_increase():
    rng = random.Random(31415)
    for _ in range(25):
        ast, state, roster, events = random_race(rng)
        upd_targets = {
            s.target for p in ast.places for s in p.stmts if s.instr == "upd"
        }
        dec_only = [
            s.target
            for p in ast.places
            for s in p.stmts
            if s.instr == "dec" and s.target not in upd_targets
        ]
        race = init_race(state, roster)
        for event in events:
            before = race.per_runner
            race = apply_event(race, ast, event)
            for rfid, variables in race.per_runner.items():
                for name in dec_only:
                    old, new = before[rfid][name], variables[name]
                    if old is None:
                        assert new is None
                    else:
                        assert new <= old
