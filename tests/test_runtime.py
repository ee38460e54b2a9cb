from __future__ import annotations

import random

import pytest

from conftest import declared_value, lacks_arm, program_source, random_program
from easytime.diagnostics import WARNING, Diagnostic
from easytime.frontend import Predicate, Statement, VarDecl, parse_source
from easytime.langdef import LexRule, easytime_base, easytime_pp
from easytime.runtime import (
    GROUPINGS,
    RUNNER_COLUMNS,
    DuplicateRfidError,
    DuplicateRunnerIdError,
    Event,
    RaceWarning,
    Runner,
    UnknownMeasuringPlaceError,
    UnknownVariableError,
    apply_event,
    eval_predicate,
    init_race,
    race_results,
    replay,
    run_statements,
    step_events,
)
from easytime.semantics import CategoryMap, analyze, decl_sequence

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


def test_init_race_warns_only_where_a_map_with_arms_leaves_the_start_undefined():
    # a default covers every category without an arm: the runner starts defined
    race = init_race({"X": CategoryMap({1: 7}, 5), "Y": CategoryMap({1: 7}, None)}, [ANA, MAJA])
    assert race.per_runner == {"TAG001": {"X": 7, "Y": 7}, "TAG002": {"X": 5, "Y": None}}
    assert race.warnings == (
        RaceWarning("TAG002", "Y", "runner 2 (TAG002): no value for category 2 in Y"),)


def test_init_race_shares_one_dict_per_category_until_a_runners_first_event():
    ast, state = compiled("cyclocross")
    eva = Runner(4, "TAG004", "Zupan", "Eva", "female", 1)
    roster = [ANA, MAJA, IVO, eva, Runner(5, "TAG005", "Kos", "Jan", "male", 3)]
    race = init_race(state, roster)
    assert len({id(v) for v in race.per_runner.values()}) == 3  # one dict per category
    original = dict(race.per_runner)
    stmts = {place.mp_id: place.stmts for place in ast.places}[1]
    assert run_statements(stmts, race.per_runner, Event(1, "TAG001", 1000), []) != ()
    ana = race.per_runner["TAG001"]
    assert ana["ROUND1"] == 3
    assert all(v is not ana for rfid, v in race.per_runner.items() if rfid != "TAG001")
    assert len({id(v) for v in race.per_runner.values()}) == 4  # TAG001 has their own dict; 3 still shared
    assert race.per_runner["TAG004"] is original["TAG004"]
    assert race.per_runner["TAG004"]["ROUND1"] == 4
    assert init_race(state, roster).per_runner == original


def test_init_race_warns_in_roster_then_variable_order():
    state = decl_sequence([
        VarDecl("B", "categorized", arms=((1, 10),)),
        VarDecl("K", "plain", value=5),
        VarDecl("A", "categorized", arms=((2, 20),)),
        VarDecl("D", "dynamic"),
    ], {})
    roster = [Runner(i + 1, f"R{i}", "L", "F", "male", category)
              for i, category in enumerate((2, 1, 3, 2, 1))]
    race = init_race(state, roster)
    assert [(w.rfid, w.variable) for w in race.warnings] == [
        ("R0", "B"), ("R1", "A"), ("R2", "B"), ("R2", "A"), ("R3", "B"), ("R4", "A")]
    assert race.warnings[2].message == "runner 3 (R2): no value for category 3 in B"
    assert race.per_runner["R2"] == {"B": None, "K": 5, "A": None, "D": None}
    assert race.per_runner["R4"] == {"B": 10, "K": 5, "A": None, "D": None}


def test_runner_and_event_are_immutable_named_tuples():
    event = Event(1, "A", 10)
    assert event.payload is None
    assert repr(event) == "Event(mp_id=1, rfid='A', timestamp_ms=10, payload=None)"
    assert repr(ANA) == ("Runner(id=1, rfid='TAG001', last_name='Novak',"
                         " first_name='Ana', gender='female', category=1)")
    assert ANA == (1, "TAG001", "Novak", "Ana", "female", 1)
    with pytest.raises(AttributeError):
        ANA.category = 2
    with pytest.raises(AttributeError):
        event.payload = 3


def test_record_reprs_name_every_field_positions_included():
    assert repr(Statement(Predicate("equals", var="LAP", value=2), "dec", "LAP", line=4, column=3)) == (
        "Statement(pred=Predicate(kind='equals', var='LAP', value=2), instr='dec', target='LAP',"
        " line=4, column=3)")
    assert repr(Diagnostic(WARNING, "UnusedVariable", "variable X is never used", 2, 1)) == (
        "Diagnostic(severity='warning', code='UnusedVariable',"
        " message='variable X is never used', line=2, column=1)")
    assert repr(LexRule("Int", "[0-9]+", 30)) == "LexRule(name='Int', pattern='[0-9]+', priority=30)"


def test_init_race_rejects_duplicate_rfid():
    _, state = compiled("biathlon")
    with pytest.raises(DuplicateRfidError):
        init_race(state, [ANA, Runner(5, "TAG001", "Dup", "Tag", "male", 1)])


def test_init_race_rejects_duplicate_runner_id():
    _, state = compiled("biathlon")
    with pytest.raises(DuplicateRunnerIdError):
        init_race(state, [ANA, Runner(1, "TAG009", "Dup", "Id", "male", 1)])


def init_race_by_row(decls: list[VarDecl], roster: list[Runner]):
    """The reference: one walk over the rows, checking and warning as it goes, with each
    value taken from its declaration's form.  Returns ``per_runner`` and the warnings, or
    the type and message of the first error."""
    seen_ids: set[int] = set()
    per_runner, warnings, starting = {}, [], {}
    for runner in roster:
        if runner.rfid in per_runner:
            return DuplicateRfidError, f"rfid {runner.rfid} appears twice in roster"
        if runner.id in seen_ids:
            return DuplicateRunnerIdError, f"runner id {runner.id} appears twice in roster"
        seen_ids.add(runner.id)
        variables = starting.setdefault(runner.category, {
            decl.name: declared_value(decl, runner.category) for decl in decls})
        for decl in decls:
            if lacks_arm(decl, runner.category):
                warnings.append(RaceWarning(
                    runner.rfid, decl.name, f"runner {runner.id} ({runner.rfid}): no value for"
                                            f" category {runner.category} in {decl.name}"))
        per_runner[runner.rfid] = variables
    return per_runner, tuple(warnings)


def random_roster(rng: random.Random) -> list[Runner]:
    """Up to 40 runners in categories 1 to 5, some of them a duplicate of an earlier
    runner's rfid or id, at random rows."""
    size = rng.choice((0, 1, 2, rng.randint(3, 40)))
    ids = rng.sample(range(1, 200), size)
    roster = [Runner(ids[i], f"T{rng.randrange(10**6)}-{i}", "L", "F",
                     rng.choice(("female", "male")), rng.randint(1, 5)) for i in range(size)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if size < 2:
            break
        early, late = sorted(rng.sample(range(size), 2))
        field = rng.choice(("rfid", "id"))
        roster[late] = roster[late]._replace(**{field: getattr(roster[early], field)})
    return roster


def test_init_race_by_column_equals_init_race_by_row():
    rng = random.Random(26)
    outcomes = set()
    for _ in range(400):
        decls = [VarDecl("D", "dynamic"), VarDecl("K", "plain", value=rng.randint(0, 9))]
        decls += [VarDecl(f"C{k}", "categorized",
                          arms=tuple((c, rng.randint(0, 9)) for c in
                                     sorted(rng.sample(range(1, 6), rng.randint(1, 5)))))
                  for k in range(rng.randint(0, 3))]
        rng.shuffle(decls)
        state = decl_sequence(decls, {})
        roster = random_roster(rng)
        expected = init_race_by_row(decls, roster)
        try:
            race = init_race(state, roster)
        except (DuplicateRfidError, DuplicateRunnerIdError) as exc:
            assert (type(exc), str(exc)) == expected, roster
            outcomes.add(type(exc))
            continue
        per_runner, warnings = expected
        assert race.roster == tuple(roster)
        assert list(race.per_runner.items()) == list(per_runner.items())
        assert race.warnings == warnings
        # one starting dict per category, shared by identity, as the reference shares them
        shared: dict[int, dict] = {}
        for runner in roster:
            variables = race.per_runner[runner.rfid]
            assert variables is shared.setdefault(runner.category, variables)
        assert len({id(v) for v in race.per_runner.values()}) \
            == len({runner.category for runner in roster})
        outcomes.add("warned" if warnings else "race" if roster else "empty")
    assert outcomes == {DuplicateRfidError, DuplicateRunnerIdError, "warned", "race", "empty"}


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


def test_race_results_of_an_empty_roster_is_one_empty_table_ungrouped():
    _, state = compiled("cyclocross")
    race = init_race(state, [])
    assert race_results(race, rank_var="BIKE") == [("", RUNNER_COLUMNS + ("BIKE", "ROUND1"), (), "BIKE")]
    assert all(race_results(race, group_by=group_by) == [] for group_by in GROUPINGS)


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


def test_property_replay_is_a_fold_of_apply_event_and_leaves_its_input_unchanged():
    rng = random.Random(2718)
    for _ in range(50):
        ast, state, roster, events = random_race(rng)
        # start part-way through, so the input already has log entries and warnings
        half = len(events) // 2
        race = replay(init_race(state, roster), ast, events[:half])
        rest = events[half:]
        per_runner = {rfid: dict(v) for rfid, v in race.per_runner.items()}
        log, warnings = race.log, race.warnings

        folded = race
        for event in rest:
            folded = apply_event(folded, ast, event)
        replayed = replay(race, ast, rest)
        assert replayed.per_runner == folded.per_runner
        assert replayed.log == folded.log
        assert replayed.warnings == folded.warnings

        at = rng.randint(0, len(rest))
        stray = Event(10, rng.choice(roster).rfid, 0)  # random programs use mp ids 1-9
        with pytest.raises(UnknownMeasuringPlaceError) as err:
            replay(race, ast, rest[:at] + [stray] + rest[at:])
        assert err.value.index == at
        assert race.per_runner == per_runner
        assert (race.log, race.warnings) == (log, warnings)


def test_property_in_place_steps_equal_replay():
    # the law "live state equals a replay of the journal", for in-order arrival:
    # run, results and serve step the race they own in place, as step_events does
    rng = random.Random(1729)
    ghosts = skipped_decs = 0
    for _ in range(50):
        ast, state, roster, events = random_race(rng)
        live = init_race(state, roster)
        start = dict(live.per_runner)
        warnings = list(live.warnings)
        stepped = list(step_events(live, ast, events, warnings))
        replayed = replay(init_race(state, roster), ast, events)
        assert live.per_runner == replayed.per_runner
        assert tuple(warnings) == replayed.warnings
        assert [(event, fired or ()) for event, fired in stepped] == [
            (entry.event, entry.fired) for entry in replayed.log]
        assert [fired is not None for _, fired in stepped] == [entry.matched for entry in replayed.log]
        # the step replaced entries and wrote to none of the shared starting dicts
        assert start == init_race(state, roster).per_runner
        ghosts += sum(not entry.matched for entry in replayed.log)
        skipped_decs += len(warnings) - len(live.warnings)

        # a missing place stops the steps at its event's index, the events before it stepped
        at = rng.randint(0, len(events))
        stray = Event(10, rng.choice(roster).rfid, 0)  # random programs use mp ids 1-9
        live = init_race(state, roster)
        with pytest.raises(UnknownMeasuringPlaceError) as err:
            for _ in step_events(live, ast, events[:at] + [stray] + events[at:], []):
                pass
        assert (err.value.mp_id, err.value.index) == (10, at)
        assert str(err.value) == f"event {at}: no measuring place 10 in program"
        assert live.per_runner == replay(init_race(state, roster), ast, events[:at]).per_runner
    assert ghosts and skipped_decs  # both branches were exercised


def reference_results(race, rank_var, group_by):
    """race_results written directly: group, then sort each group by a key function."""
    groups = {}
    for runner in race.roster:
        if group_by == "category":
            key, label = (runner.category,), f"cat{runner.category}"
        elif group_by == "gender":
            key, label = (runner.gender,), runner.gender
        elif group_by == "category-gender":
            key, label = (runner.category, runner.gender), f"cat{runner.category}_{runner.gender}"
        else:
            key, label = (), ""
        groups.setdefault(key, (label, []))[1].append(runner)

    def rank_value(runner):
        return race.per_runner[runner.rfid][rank_var]

    tables = []
    for key in sorted(groups):
        label, members = groups[key]
        if rank_var is None:
            ordered = sorted(members, key=lambda r: r.id)
        else:
            ordered = sorted(members, key=lambda r: (rank_value(r) is None, rank_value(r) or 0, r.id))
        rows, rank = [], 0
        for runner in ordered:
            variables = race.per_runner[runner.rfid]
            if rank_var is not None and variables[rank_var] is not None:
                rank += 1
                rank_cell = rank
            else:
                rank_cell = None
            rows.append((rank_cell, runner.id, runner.last_name, runner.first_name,
                         runner.gender, runner.category)
                        + tuple(variables[name] for name in race.var_names))
        tables.append((label, RUNNER_COLUMNS + race.var_names, tuple(rows), rank_var))
    return tables


def test_property_race_results_equal_the_direct_reference():
    rng = random.Random(6174)
    sizes = set()
    for _ in range(60):
        n_vars = rng.choice((0, 1, 1, 2, 4))
        sizes.add(n_vars)
        state = decl_sequence([VarDecl(f"V{i}", "dynamic") for i in range(n_vars)], {})
        ids = rng.sample(range(1, 100), rng.randint(1, 12))  # roster out of id order
        roster = [Runner(rid, f"R{rid}", f"Last{rid}", f"First{rid}",
                         rng.choice(("female", "male")), rng.randint(0, 3)) for rid in ids]
        race = init_race(state, roster)
        for rfid, variables in race.per_runner.items():
            # V0 is always defined, the others only sometimes; few values, so ranks tie;
            # entries are replaced, because runners of one category share their starting dict
            race.per_runner[rfid] = {name: rng.randint(0, 3) if i == 0 or rng.random() < 0.6
                                     else None for i, name in enumerate(variables)}
        for rank_var in (None, *race.var_names):
            for group_by in (None, *GROUPINGS):
                tables = race_results(race, rank_var=rank_var, group_by=group_by)
                got = [(t.label, t.columns, t.rows, t.rank_var) for t in tables]
                assert got == reference_results(race, rank_var, group_by)
    assert {0, 1, 2} <= sizes  # no variables, one variable, and more
