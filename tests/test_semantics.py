from __future__ import annotations

import random

import pytest

from conftest import declared_value, lacks_arm, program_source, random_var_decl
from easytime import frontend
from easytime.frontend import ProgramAst, VarDecl, parse_source, pretty
from easytime.langdef import (
    EXTENDS,
    LanguageFragment,
    LexRule,
    Modifier,
    RuleGroup,
    compose_language,
    easytime_base,
    easytime_pp,
    prod,
    validate_language,
)
from easytime.runtime import Event, Runner, init_race, step_events
from easytime.semantics import (
    CategoryMap,
    DuplicateDeclarationError,
    analyze,
    decl_meaning,
    decl_sequence,
)

PROGRAM3_DECLS = (
    VarDecl("ROUND1", "plain", value=50),
    VarDecl("ROUND2", "categorized", arms=((1, 20), (2, 10))),
    VarDecl("PENALTY", "dynamic"),
)


def test_plain_declaration_binds_constant_map():
    state = decl_meaning(PROGRAM3_DECLS[0], {})
    assert state["ROUND1"] == CategoryMap({}, 50)


def test_categorized_declaration_binds_arms():
    state = decl_meaning(PROGRAM3_DECLS[1], {})
    assert state["ROUND2"] == CategoryMap({1: 20, 2: 10}, None)


def test_dynamic_declaration_binds_undefined_map():
    state = decl_meaning(PROGRAM3_DECLS[2], {})
    assert state["PENALTY"] == CategoryMap({}, None)


def test_program3_bindings_together():
    state = decl_sequence(PROGRAM3_DECLS, {})
    assert set(state) == {"ROUND1", "ROUND2", "PENALTY"}
    parsed = parse_source(program_source("decls"), easytime_pp())
    assert decl_sequence(parsed.decls, {}) == state


def test_constant_map_answers_every_category():
    values = CategoryMap({}, 50)
    assert all(values.lookup(c) == 50 for c in range(101))


def test_undefined_map_answers_nothing():
    values = CategoryMap({}, None)
    assert all(values.lookup(c) is None for c in range(101))


def test_arms_map_lookup():
    values = CategoryMap({1: 20, 2: 10}, None)
    assert values.lookup(1) == 20
    assert values.lookup(2) == 10
    assert values.lookup(3) is None


def test_dynamic_flag_tracks_declaration_form():
    state = decl_sequence(PROGRAM3_DECLS, {})
    # only the dynamic declaration has neither arms nor a default
    assert [state[n] == CategoryMap({}, None) for n in ("ROUND1", "ROUND2", "PENALTY")] == [
        False,
        False,
        True,
    ]


def test_each_form_means_its_arms_plus_a_default_on_random_lists():
    # the oracle reads each VarDecl's kind; the static state is read only through lookup
    rng = random.Random(31)
    categories = range(11)
    roster = [Runner(c + 1, f"T{c}", "L", "F", "female", c) for c in categories]
    forms = set()
    for _ in range(200):
        taken: set[str] = set()
        decls = [random_var_decl(rng, taken) for _ in range(rng.randint(0, 6))]
        state = decl_sequence(decls, {})
        for decl in decls:
            forms.add(decl.kind)
            assert [state[decl.name].lookup(c) for c in categories] \
                == [declared_value(decl, c) for c in categories], decl
        warned = {(w.rfid, w.variable) for w in init_race(state, roster).warnings}
        assert warned == {(f"T{c}", decl.name) for decl in decls for c in categories
                          if lacks_arm(decl, c)}
    assert forms == {"plain", "categorized", "dynamic"}


def test_decl_sequence_of_nothing_is_identity():
    state = decl_sequence(PROGRAM3_DECLS, {})
    assert decl_sequence((), state) == state


def test_sequencing_law_on_random_disjoint_lists():
    rng = random.Random(99)
    for _ in range(100):
        taken: set[str] = set()
        d1 = [random_var_decl(rng, taken) for _ in range(rng.randint(0, 5))]
        d2 = [random_var_decl(rng, taken) for _ in range(rng.randint(0, 5))]
        joined = decl_sequence(d1 + d2, {})
        staged = decl_sequence(d2, decl_sequence(d1, {}))
        assert joined == staged


def test_redeclaration_is_an_error():
    decls = (VarDecl("X", "plain", value=1), VarDecl("X", "plain", value=2))
    with pytest.raises(DuplicateDeclarationError):
        decl_sequence(decls, {})


def test_decl_meaning_does_not_mutate_input_state():
    before = decl_meaning(PROGRAM3_DECLS[0], {})
    env_copy = dict(before)
    decl_meaning(PROGRAM3_DECLS[2], before)
    assert before == env_copy


def test_decl_sequence_does_not_mutate_input_state():
    before = decl_sequence(PROGRAM3_DECLS[:1], {})
    env_copy = dict(before)
    after = decl_sequence(PROGRAM3_DECLS[1:], before)
    assert before == env_copy
    assert list(after) == ["ROUND1", "ROUND2", "PENALTY"]


def test_analyze_binds_as_decl_sequence_does_on_random_lists_with_repeats():
    # analyze binds into one dict; the fold it must equal refuses each repeat in turn
    rng = random.Random(2024)
    for _ in range(200):
        taken: set[str] = set()
        decls = []
        for line in range(1, rng.randint(0, 12) + 1):
            decl = random_var_decl(rng, taken)
            if decls and rng.random() < 0.3:  # a repeat, of any kind
                decl = decl._replace(name=rng.choice(decls).name)
            decls.append(decl._replace(line=line, column=rng.randint(1, 9)))
        state, repeats = {}, []
        for decl in decls:
            try:
                state = decl_sequence([decl], state)
            except DuplicateDeclarationError as exc:
                repeats.append((f"variable {exc.name} declared twice", exc.line, exc.column))
        got, diags = analyze(ProgramAst((), tuple(decls), ()))
        assert list(got.items()) == list(state.items())
        assert [(d.message, d.line, d.column) for d in diags
                if d.code == "DuplicateDeclaration"] == repeats


def test_analyze_ironman_is_clean():
    ast = parse_source(program_source("ironman"), easytime_base())
    state, diags = analyze(ast)
    assert diags == []
    assert set(state) == {
        "ROUND1", "ROUND2", "ROUND3", "INTER1", "INTER2", "INTER3",
        "SWIM", "BIKE", "RUN", "TRANS1", "TRANS2",
    }


def test_analyze_accepts_agent_declared_with_any_id():
    ast = parse_source(program_source("cyclocross"), easytime_pp())
    state, diags = analyze(ast)
    assert [d for d in diags if d.severity == "error"] == []


def test_analyze_flags_unknown_agent():
    source = 'var X := 1;\nmp[1] -> agnt[9] { (true) -> upd X; }'
    _, diags = analyze(parse_source(source, easytime_pp()))
    assert any(d.code == "UnknownAgent" and "9" in d.message for d in diags)


def test_analyze_flags_duplicate_agents_and_places():
    source = (
        '1 manual "a.dat";\n1 manual "b.dat";\n'
        "var X := 1;\n"
        "mp[2] -> agnt[1] { (true) -> upd X; }\n"
        "mp[2] -> agnt[1] { (true) -> upd X; }"
    )
    _, diags = analyze(parse_source(source, easytime_pp()))
    codes = {d.code for d in diags}
    assert "DuplicateAgent" in codes
    assert "DuplicateMeasuringPlace" in codes


def test_analyze_flags_undeclared_variables():
    source = (
        '1 manual "a.dat";\n'
        "var X := 1;\n"
        "mp[1] -> agnt[1] { (GHOST == 0) -> upd PHANTOM; }"
    )
    _, diags = analyze(parse_source(source, easytime_pp()))
    undeclared = [d for d in diags if d.code == "UndeclaredVariable"]
    assert len(undeclared) == 2
    assert any("GHOST" in d.message for d in undeclared)
    assert any("PHANTOM" in d.message for d in undeclared)


def test_analyze_warns_on_unused_variable():
    source = '1 manual "a.dat";\nvar X := 1;\nvar Y := 2;\nmp[1] -> agnt[1] { (true) -> upd X; }'
    _, diags = analyze(parse_source(source, easytime_pp()))
    unused = [d for d in diags if d.code == "UnusedVariable"]
    assert len(unused) == 1
    assert "Y" in unused[0].message
    assert unused[0].severity == "warning"


def test_analyze_reports_duplicate_declaration_as_diagnostic():
    source = "var X := 1;\nvar X := 2;"
    state, diags = analyze(parse_source(source, easytime_pp()))
    assert any(d.code == "DuplicateDeclaration" for d in diags)


def test_diagnostics_sorted_and_rendered():
    source = (
        '1 manual "a.dat";\n'
        "var X := 1;\n"
        "mp[1] -> agnt[7] { (GHOST == 0) -> upd X; }"
    )
    _, diags = analyze(parse_source(source, easytime_pp()))
    positions = [(d.line, d.column) for d in diags]
    assert positions == sorted(positions)
    rendered = diags[0].render("race.ez")
    assert rendered.startswith("race.ez:")
    assert f"{diags[0].severity}[{diags[0].code}]:" in rendered


def test_analyze_does_not_mutate_ast():
    ast = parse_source(program_source("biathlon"), easytime_pp())
    import copy

    snapshot = copy.deepcopy(ast)
    analyze(ast)
    assert ast == snapshot


def test_analyze_warns_once_for_an_unused_name_declared_twice():
    source = '1 manual "a.dat";\nvar X := 1;\nvar X := 2;\nvar Y := 3;\nmp[1] -> agnt[1] { (true) -> upd Y; }'
    _, diags = analyze(parse_source(source, easytime_pp()))
    assert [(d.code, d.line) for d in diags] == [("UnusedVariable", 2), ("DuplicateDeclaration", 3)]


# A fourth declaration form, a categorized one with a default, brought by a fragment
# over EasyTime++ with its handler and its source text and nothing else: semantics and
# the runtime read what it means from its arms and its value.
DEFAULTED = LanguageFragment(
    name="EasyTime++ with defaults",
    lexicon_mods=((Modifier(EXTENDS, "Keyword"), LexRule("Keyword", "else", 10)),),
    rule_mods=((Modifier(EXTENDS, "Dec"), RuleGroup("Dec", (
        prod("DEC", "var #Identifier := { CTGRS } else #Int ;", "dec_defaulted"),
    ))),),
)


def _h_dec_defaulted(c, t):
    return VarDecl(c[1].text, "defaulted", value=int(c[7].text), arms=tuple(reversed(c[4])),
                   line=t.line, column=t.column)


def _defaulted_source(decl):
    arms = ", ".join(f"(category=={c}) -> {v}" for c, v in decl.arms)
    return f"var {decl.name} := {{ {arms} }} else {decl.value};"


def test_a_fragments_declaration_form_needs_a_handler_and_its_source_text_alone(monkeypatch):
    monkeypatch.setitem(frontend.DEFAULT_HANDLERS, "dec_defaulted", _h_dec_defaulted)
    monkeypatch.setitem(frontend.DECL_SOURCE, "defaulted", _defaulted_source)
    lang = compose_language([easytime_pp()], DEFAULTED)
    assert validate_language(lang) == []
    source = (
        "1 auto 10.0.0.1;\n"
        "var LEFT := { (category==1) -> 3 } else 2;\n"
        "var DONE := 0;\n"
        "mp[1] -> agnt[1] {\n"
        "  (true) -> dec LEFT;\n"
        "  (LEFT == 0) -> upd DONE;\n"
        "}\n"
    )
    ast = parse_source(source, lang)
    assert ast.decls[0] == VarDecl("LEFT", "defaulted", value=2, arms=((1, 3),))
    assert pretty(ast) == source
    assert parse_source(pretty(ast), lang) == ast

    state, diags = analyze(ast)
    assert diags == []
    assert state == {"LEFT": CategoryMap({1: 3}, 2), "DONE": CategoryMap({}, 0)}

    roster = [Runner(1, "A", "Novak", "Ana", "female", 1),
              Runner(2, "B", "Kos", "Ivo", "male", 2)]
    race = init_race(state, roster)
    assert race.warnings == ()
    assert race.per_runner == {"A": {"LEFT": 3, "DONE": 0}, "B": {"LEFT": 2, "DONE": 0}}
    warnings: list = []
    events = [Event(1, "A", 10), Event(1, "B", 20), Event(1, "B", 30)]
    assert [fired is not None for _, fired in step_events(race, ast, events, warnings)] \
        == [True] * 3
    assert warnings == []
    assert race.per_runner == {"A": {"LEFT": 2, "DONE": 0}, "B": {"LEFT": 0, "DONE": 30}}
