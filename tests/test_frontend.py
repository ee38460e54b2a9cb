from __future__ import annotations

import random
import re

import pytest

from conftest import peak_bytes, program_source, random_program
from easytime import frontend
from easytime.diagnostics import ERROR, Diagnostic
from easytime.frontend import (
    AgentDecl,
    LexError,
    MeasuringPlace,
    ParseError,
    Predicate,
    ProgramAst,
    Statement,
    Token,
    VarDecl,
    _first_codes,
    parse,
    parse_source,
    pretty,
    tokenize,
)
from easytime.langdef import (
    ADD,
    TRIVIA,
    LanguageDef,
    LanguageFragment,
    LexRule,
    Modifier,
    RuleGroup,
    easytime_base,
    easytime_pp,
    prod,
)
from easytime.runtime import Event, LogEntry, RaceState, RaceWarning, ResultTable, Runner
from easytime.semantics import CategoryMap


def parse_error(source: str, lang) -> tuple:
    with pytest.raises(ParseError) as err:
        parse_source(source, lang)
    return err.value.line, err.value.column, err.value.message, err.value.expected


def kinds_and_texts(source: str, lang) -> list[tuple[str, str]]:
    return [
        (t.kind, t.text)
        for t in tokenize(source, lang.lexicon)
        if t.kind not in TRIVIA
    ]


def test_dynamicvar_is_keyword_only_in_pp():
    source = "dynamicvar PENALTY;"
    assert kinds_and_texts(source, easytime_pp()) == [
        ("Keyword", "dynamicvar"),
        ("Identifier", "PENALTY"),
        ("Separator", ";"),
    ]
    assert kinds_and_texts(source, easytime_base()) == [
        ("Identifier", "dynamicvar"),
        ("Identifier", "PENALTY"),
        ("Separator", ";"),
    ]


def test_ip_token_is_one_lexeme():
    assert kinds_and_texts("192.168.225.100", easytime_base()) == [
        ("Ip", "192.168.225.100")
    ]


def test_maximal_munch_prefers_longer_identifier():
    # "true" is a keyword but "truely" is one identifier, not keyword + tail
    assert kinds_and_texts("truely", easytime_base()) == [("Identifier", "truely")]
    assert kinds_and_texts("true", easytime_base()) == [("Keyword", "true")]


def test_operators_tokenize_whole():
    assert kinds_and_texts("a := 1 == 2 ->", easytime_base()) == [
        ("Identifier", "a"),
        ("Operator", ":="),
        ("Int", "1"),
        ("Operator", "=="),
        ("Int", "2"),
        ("Operator", "->"),
    ]


def test_token_positions():
    tokens = [t for t in tokenize("var X\n  := 4;", easytime_base().lexicon)]
    var = tokens[0]
    assert (var.line, var.column) == (1, 1)
    assign = next(t for t in tokens if t.text == ":=")
    assert (assign.line, assign.column) == (2, 3)


@pytest.mark.parametrize("name", ["ironman", "decls", "cyclocross", "biathlon"])
def test_token_concatenation_reproduces_source(name):
    source = program_source(name)
    tokens = tokenize(source, easytime_pp().lexicon)
    assert "".join(t.text for t in tokens) == source


def test_lex_error_position_and_nonascii():
    with pytest.raises(LexError) as err:
        tokenize("var X := 4;\n?", easytime_base().lexicon)
    assert (err.value.line, err.value.column) == (2, 1)
    with pytest.raises(LexError):
        tokenize("var Xé := 4;", easytime_base().lexicon)


@pytest.mark.parametrize("source, line, column, char", [
    ("\xe9var X := 4;", 1, 1, "\xe9"),
    ("var X := 4;\n  var \xa0Y := 5;", 2, 7, "\xa0"),
    ("var X := 4;\r\nvar Y\x85 := 5;", 2, 6, "\x85"),
], ids=["first-character", "after-lf", "after-crlf"])
def test_a_non_ascii_character_is_reported_at_its_position(source, line, column, char):
    with pytest.raises(LexError) as err:
        tokenize(source, easytime_base().lexicon)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == f"non-ASCII character {char!r}"


def test_comma_is_a_lex_error_in_base():
    with pytest.raises(LexError):
        tokenize("var X := {1,2};", easytime_base().lexicon)


def test_token_is_an_immutable_named_tuple():
    token = tokenize("var", easytime_base().lexicon)[0]
    assert type(token) is Token
    assert Token._fields == ("kind", "text", "line", "column")
    assert token == Token("Keyword", "var", 1, 1) == ("Keyword", "var", 1, 1)
    assert (token.kind, token.text, token.line, token.column) == ("Keyword", "var", 1, 1)
    with pytest.raises(AttributeError):
        token.text = "dec"
    # every other record is a named tuple too: no field can be assigned, and nothing added
    rule = LexRule("Int", "[0-9]+", 30)
    records = [
        rule, prod("A", "b", "k"), RuleGroup("G", ()), Modifier(ADD, "G"),
        LanguageDef("L", (rule,), {}, "A"), LanguageFragment("F"),
        AgentDecl(1, "manual", "a.dat"), VarDecl("X", "plain", value=1), Predicate("true"),
        Statement(Predicate("true"), "upd", "X"), MeasuringPlace(1, 1, ()),
        ProgramAst((), (), ()), CategoryMap({}, 1),
        Diagnostic(ERROR, "Code", "message"),
        Runner(1, "A", "L", "F", "male", 1), Event(1, "A", 10), RaceWarning("A", "X", "message"),
        LogEntry(Event(1, "A", 10), (), True), RaceState((), (), {}), ResultTable("", (), ()),
    ]
    for record in records:
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


@pytest.mark.parametrize("lang", [easytime_base(), easytime_pp()], ids=lambda lang: lang.name)
def test_every_easytime_rule_is_dispatched_on_its_first_characters(lang):
    # a rule the first-character analysis cannot bound is tried everywhere: still correct,
    # but a Python whose private regex parser has changed should fail here, not run slowly
    for rule in lang.lexicon:
        codes = set(_first_codes(rule.pattern))
        assert codes and codes < set(range(128)), rule.name


def brute_force_tokenize(source: str, lexicon) -> list[tuple]:
    """The reference: every rule at every position; longest match, then lower priority,
    then the earlier rule; empty matches ignored."""
    compiled = [(rule, re.compile(rule.pattern)) for rule in lexicon]
    tokens = []
    pos, line, column = 0, 1, 1
    while pos < len(source):
        best = None
        for rule, pattern in compiled:
            m = pattern.match(source, pos)
            if m is None or m.end() == pos:
                continue
            key = (pos - m.end(), rule.priority)
            if best is None or key < best[0]:
                best = (key, rule.name, m.group())
        if best is None:
            raise LexError(line, column, f"unexpected character {source[pos]!r}")
        _, name, text = best
        tokens.append((name, text, line, column))
        if "\n" in text:
            line += text.count("\n")
            column = len(text) - text.rfind("\n")
        else:
            column += len(text)
        pos += len(text)
    return tokens


# equal-length ties between rules, nullable patterns, classes and negated classes,
# a nullable branch, anchors, and constructs the first-character analysis does not
# bound (lookarounds, a group reference, inline and scoped flags)
PATTERN_POOL = (
    r"[a-c]+", r"[b-d]+", r"b+", r"ab|a", r"a*", r"x?y?", r"c{0}d", r"a+?b",
    r"\d+", r"\w+", r"\s", r"\s+\d", r"[^ab\n]", r"[^\w]+", r".", r"(?:1|22)+",
    r"(?:cd|)e?", r"(?:|q)z", r"-|->", r"\bq", r"^z", r"$", r"(?=a)\w\w", r"(?!b)[a-d]",
    r"(a)\1", r"(?i)AB", r"(?i:a)b", r"(?s).\n",
)
ALPHABET = "abcdeqxyzAB012- \t\n"


def lex_outcome(tokenizer, source: str, lexicon) -> tuple:
    try:
        return ("tokens", [tuple(token) for token in tokenizer(source, lexicon)])
    except LexError as exc:
        return ("error", exc.line, exc.column, exc.message)


def test_tokenize_equals_trying_every_rule_at_every_position():
    # each lexicon is a list, and halfway through one of its rules is replaced in place:
    # tokenize must follow the edit, and a tuple of the same rules must tokenize alike
    rng = random.Random(9)
    for _ in range(250):
        patterns = rng.sample(PATTERN_POOL, rng.randint(2, 7))
        lexicon = [LexRule(f"R{i}", p, rng.randint(0, 2)) for i, p in enumerate(patterns)]
        for k in range(8):
            if k == 4:
                i = rng.randrange(len(lexicon))
                lexicon[i] = lexicon[i]._replace(pattern=rng.choice(PATTERN_POOL))
            source = "".join(
                rng.choice(ALPHABET) if rng.random() < 0.9 else chr(rng.randrange(128))
                for _ in range(rng.randint(0, 30))
            )
            expected = lex_outcome(brute_force_tokenize, source, lexicon)
            assert lex_outcome(tokenize, source, lexicon) == expected, (lexicon, source)
            assert lex_outcome(tokenize, source, tuple(lexicon)) == expected, (lexicon, source)


def test_parse_ironman_shape():
    ast = parse_source(program_source("ironman"), easytime_base())
    assert len(ast.agents) == 2
    assert [a.kind for a in ast.agents] == ["manual", "auto"]
    assert ast.agents[0].source == "man.dat"
    assert ast.agents[1].source == "192.168.225.100"
    assert len(ast.decls) == 11
    assert [d.name for d in ast.decls] == [
        "ROUND1", "INTER1", "SWIM", "TRANS1", "ROUND2", "INTER2",
        "BIKE", "TRANS2", "ROUND3", "INTER3", "RUN",
    ]
    assert len(ast.places) == 4
    assert [p.mp_id for p in ast.places] == [1, 2, 3, 4]
    assert [p.agent_id for p in ast.places] == [1, 1, 2, 2]


def test_parse_ironman_mp4_statement_order():
    ast = parse_source(program_source("ironman"), easytime_base())
    mp4 = ast.places[3]
    assert mp4.stmts == (
        Statement(Predicate("true"), "upd", "INTER3"),
        Statement(Predicate("equals", "ROUND3", 8), "upd", "TRANS2"),
        Statement(Predicate("true"), "dec", "ROUND3"),
        Statement(Predicate("equals", "ROUND3", 0), "upd", "RUN"),
    )


def test_parse_declaration_kinds():
    ast = parse_source(program_source("decls"), easytime_pp())
    assert ast.decls == (
        VarDecl("ROUND1", "plain", value=50),
        VarDecl("ROUND2", "categorized", arms=((1, 20), (2, 10))),
        VarDecl("PENALTY", "dynamic"),
    )


def test_parse_single_arm_category_map():
    ast = parse_source("var X := { (category == 3) -> 7 };", easytime_pp())
    assert ast.decls == (VarDecl("X", "categorized", arms=((3, 7),)),)


def test_duplicate_category_arm_rejected():
    source = "var X := { (category == 1) -> 2, (category == 1) -> 3 };"
    with pytest.raises(ParseError):
        parse_source(source, easytime_pp())


def test_base_rejects_extension_declarations():
    assert parse_error("dynamicvar PENALTY;", easytime_base()) == (
        1, 1,
        "in PROGRAM: expected 'mp' or 'var' or Int or end of input, got Identifier 'dynamicvar'",
        ("'mp'", "'var'", "Int", "end of input"),
    )
    with pytest.raises(LexError):
        parse_source("var X := { (category == 1) -> 4, (category == 2) -> 5 };", easytime_base())


def test_empty_statement_list_rejected():
    assert parse_error("1 manual \"m.dat\";\nmp[1] -> agnt[1] { }", easytime_pp()) == (
        2, 20, "in PLACE: expected '(', got Separator '}'", ("'('",),
    )


def test_parse_error_reports_position_and_expectations():
    assert parse_error("var X := ;", easytime_pp()) == (
        1, 10, "in DEC: expected '{' or Int, got Separator ';'", ("'{'", "Int"),
    )
    assert parse_error("var X := 4; junk", easytime_pp()) == (
        1, 13,
        "in DECS: expected 'dynamicvar' or 'mp' or 'var' or end of input,"
        " got Identifier 'junk'",
        ("'dynamicvar'", "'mp'", "'var'", "end of input"),
    )


WORDS = (LexRule("Whitespace", r"\s+", 0), LexRule("Word", r"[a-z]+", 10))


def test_ambiguous_grammar_reported_at_the_token():
    groups = {"S": RuleGroup("S", (
        prod("S", "A", "s_a"), prod("S", "B", "s_b"), prod("A", "x", "a"), prod("B", "x", "b"),
    ))}
    with pytest.raises(ParseError) as err:
        parse_source("x", LanguageDef("tiny", WORDS, groups, "S"))
    assert str(err.value) == "1:1: grammar is ambiguous in S on Word 'x': A vs B"


def test_start_symbol_without_productions_reported():
    groups = {"A": RuleGroup("A", (prod("A", "x", "a"),))}
    with pytest.raises(ParseError) as err:
        parse_source(" x", LanguageDef("tiny", WORDS, groups, "S"))
    assert str(err.value) == "1:2: nonterminal S has no productions"


def test_tables_are_built_once_per_language(monkeypatch):
    built = {"rules": 0, "nodes": 0}
    first_codes = frontend._first_codes

    def counted_first_codes(pattern):
        built["rules"] += 1
        return first_codes(pattern)

    class CountedNode(frontend._Node):
        __slots__ = ()

        def __init__(self, *args):
            built["nodes"] += 1
            super().__init__(*args)

    monkeypatch.setattr(frontend, "_first_codes", counted_first_codes)
    monkeypatch.setattr(frontend, "_Node", CountedNode)
    frontend._dispatch.cache_clear()
    frontend._tries.cache_clear()
    sources = [program_source(name) for name in ("ironman", "decls", "cyclocross", "biathlon")]
    lang = easytime_pp()
    parse_source(sources[0], lang)
    once = dict(built)
    assert once["rules"] == len(lang.lexicon) and once["nodes"] > 0
    for lang in (lang, easytime_pp()):  # equal definitions share tables
        for source in sources:
            parse_source(source, lang)
            parse(tokenize(source, lang.lexicon), lang)
    assert built == once
    frontend._dispatch.cache_clear()  # drop the counted nodes
    frontend._tries.cache_clear()


def test_a_definition_changed_after_a_parse_gets_fresh_tables():
    words = [LexRule("Whitespace", r"\s+", 0), LexRule("Word", r"[a-z]+", 10)]
    groups = {"S": RuleGroup("S", (
        prod("S", "#Word", "pred_true"),
        # a nullable T parses empty input only when T is the start symbol
        prod("T", "OPT", "pred_true"),
        prod("OPT", "#Word", "pred_true"),
        prod("OPT", "", "pred_true"),
    ))}
    tiny = LanguageDef("tiny", words, groups, "S")
    assert parse_source("ab", tiny) == Predicate("true")
    with pytest.raises(LexError):
        parse_source("a1", tiny)
    assert parse_error("", tiny)[2] == "in S: expected Word, got end of input"

    assert parse_source("", tiny._replace(start_symbol="T")) == Predicate("true")

    words[1] = LexRule("Word", r"[a-z0-9]+", 10)  # a list lexicon edited in place
    assert parse_source("a1", tiny) == Predicate("true")

    groups["S"] = RuleGroup("S", (prod("S", "#Word #Word", "pred_true"),))  # and the groups
    assert parse_source("a b", tiny) == Predicate("true")
    assert parse_error("ab", tiny)[2] == "in S: expected Word, got end of input"


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_source("var X := 4; ;", easytime_pp())


def test_agent_ids_must_be_positive():
    with pytest.raises(ParseError):
        parse_source('0 manual "m.dat";', easytime_pp())
    with pytest.raises(ParseError):
        parse_source("var X := 1;\nmp[0] -> agnt[1] { (true) -> upd X; }", easytime_pp())


def test_comments_and_blank_lines_ignored():
    source = "// header\n\nvar X := 1; // trailing\n// footer\n"
    ast = parse_source(source, easytime_pp())
    assert ast.decls == (VarDecl("X", "plain", value=1),)


def test_base_programs_parse_identically_under_pp():
    source = program_source("ironman")
    assert parse_source(source, easytime_base()) == parse_source(source, easytime_pp())


@pytest.mark.parametrize("name", ["ironman", "decls", "cyclocross", "biathlon"])
def test_fixture_round_trip(name):
    lang = easytime_pp()
    ast = parse_source(program_source(name), lang)
    assert parse_source(pretty(ast), lang) == ast


def test_random_program_round_trip():
    rng = random.Random(1234)
    lang = easytime_pp()
    for _ in range(50):
        ast = random_program(rng)
        assert parse_source(pretty(ast), lang) == ast


def test_pretty_refuses_an_unknown_declaration_kind():
    # the one code that reads a declaration's kind; semantics binds any kind by its fields
    with pytest.raises(ValueError, match="unknown declaration kind 'weird'"):
        pretty(ProgramAst((), (VarDecl("X", "weird"),), ()))


def test_deep_program_round_trips_in_both_dialects():
    # list rules are right-recursive, so each element is one more level of nesting
    n = 1000
    stmt = Statement(Predicate("equals", "V0", 1), "upd", "V1")
    ast = ProgramAst(
        (AgentDecl(1, "manual", "m.dat"),),
        tuple(VarDecl(f"V{i}", "plain", value=i) for i in range(n)),
        tuple(MeasuringPlace(i, 1, (stmt,)) for i in range(1, n + 1))
        + (MeasuringPlace(n + 1, 1, (stmt,) * n),),
    )
    source = pretty(ast)
    for lang in (easytime_base(), easytime_pp()):
        parsed = parse_source(source, lang)
        assert parsed == ast
        assert pretty(parsed) == source


def test_parse_is_deterministic():
    source = program_source("biathlon")
    lang = easytime_pp()
    assert parse_source(source, lang) == parse_source(source, lang)
    first = [
        (t.kind, t.text, t.line, t.column) for t in tokenize(source, lang.lexicon)
    ]
    second = [
        (t.kind, t.text, t.line, t.column) for t in tokenize(source, lang.lexicon)
    ]
    assert first == second


def test_positions_survive_but_do_not_affect_equality():
    ast = parse_source("var X := 1;\nvar Y := 2;", easytime_pp())
    assert ast.decls[1].line == 2
    shifted = parse_source("\n\nvar X := 1;\nvar Y := 2;", easytime_pp())
    assert shifted == ast
    assert shifted.decls[1].line != ast.decls[1].line


@pytest.mark.parametrize("node", [
    AgentDecl(1, "manual", "a.dat"),
    VarDecl("X", "categorized", arms=((1, 5),)),
    Statement(Predicate("equals", var="X", value=0), "dec", "X"),
    MeasuringPlace(1, 2, (Statement(Predicate("true"), "upd", "X"),)),
], ids=lambda node: type(node).__name__)
def test_positioned_nodes_compare_without_positions_and_only_with_their_own_type(node):
    moved = node._replace(line=7, column=3)
    assert moved == node and not moved != node
    assert hash(moved) == hash(node)
    assert node._replace(**{node._fields[0]: 9}) != node
    # a type with the same fields, and a plain tuple of them, are other values
    twin = type("Twin", (type(node),), {"__slots__": ()})(*node)
    assert twin != node and node != twin and not node == twin
    assert node != tuple(node) and tuple(node) != node and not tuple(node) == node


# --- Streaming: parse pulls tokens, with the errors of a whole-list parse ------

def tiny(start: str, action_key: str = "pred_true") -> LanguageDef:
    """Words and whitespace, and the one production ``S -> x``."""
    return LanguageDef("tiny", WORDS, {"S": RuleGroup("S", (prod("S", "x", action_key),))}, start)


@pytest.mark.parametrize("lang, source, error", [
    (easytime_pp(), "var X := ;\nvar Y := 1; ", ParseError),  # an early syntax error
    (tiny("S"), "x y ", ParseError),  # trailing tokens after a complete program
    (tiny("T"), " x ", ParseError),  # the start symbol has no productions
    (easytime_pp(), '0 manual "m.dat";\n', ParseError),  # a handler rejects a value
    (tiny("S", "nowhere"), "x ", LookupError),  # no handler for an action key
], ids=["syntax", "trailing", "no-productions", "handler", "no-handler"])
def test_a_later_bad_character_wins_over_an_earlier_error(lang, source, error):
    with pytest.raises(error):
        parse_source(source, lang)
    with pytest.raises(LexError) as err:
        parse_source(source + "x @", lang)
    last_line = source.split("\n")[-1]
    assert (err.value.line, err.value.column) == (source.count("\n") + 1, len(last_line) + 3)


@pytest.mark.parametrize("lang, source, position", [
    (easytime_pp(), "var X := 1 // no semicolon\n\n", (1, 11)),
    (easytime_pp(), "var X := 1;\nmp[1] -> agnt[1] {\n  (true) -> upd X;\n", (3, 19)),
    (tiny("S"), "", (1, 1)),
    (tiny("S"), "  \n  ", (1, 1)),
])
def test_end_of_input_sits_just_past_the_last_significant_token(lang, source, position):
    with pytest.raises(ParseError) as err:
        parse_source(source, lang)
    assert (err.value.line, err.value.column) == position
    assert err.value.message.endswith("got end of input")


@pytest.mark.parametrize("name", ["ironman", "cyclocross", "biathlon"])
def test_parse_takes_any_iterable_of_tokens(name):
    lang = easytime_pp()
    tokens = tokenize(program_source(name), lang.lexicon)
    assert repr(parse(iter(tokens), lang)) == repr(parse(tokens, lang))


def outcome(parse_it) -> tuple:
    """The tree, positions included, or the error's type, position, message and expectations."""
    try:
        return ("tree", repr(parse_it()))
    except (LexError, ParseError) as err:
        return (type(err).__name__, err.line, err.column, err.message,
                getattr(err, "expected", None))


JUNK = (";", "@", ",", "\u00e9", "}", "mp[", "var", "dynamicvar", "\n", "// c\n", "0", "(")


def mutations(rng: random.Random, source: str) -> list[str]:
    """The source, three with a span deleted, three with junk inserted, and one with
    an early ``;`` and a late ``@``."""
    variants = [source]
    for _ in range(3):
        i, j = sorted(rng.sample(range(len(source) + 1), 2))
        variants.append(source[:i] + source[j:])
    for _ in range(3):
        i = rng.randrange(len(source) + 1)
        variants.append(source[:i] + rng.choice(JUNK) + source[i:])
    i, j = sorted(rng.sample(range(len(source) + 1), 2))
    variants.append(source[:i] + ";" + source[i:j] + "@" + source[j:])
    return variants


@pytest.mark.parametrize("lang", [easytime_base(), easytime_pp()], ids=lambda lang: lang.name)
def test_streamed_parse_equals_parse_of_the_token_list(lang):
    rng = random.Random(2024)
    sources = [source for _ in range(30) for source in mutations(rng, pretty(random_program(rng)))]
    cold = []
    for source in sources:  # each parse builds its tables
        frontend._dispatch.cache_clear()
        frontend._tries.cache_clear()
        cold.append(outcome(lambda: parse_source(source, lang)))
    for source, streamed in zip(sources, cold):  # one more pass, under the kept tables
        assert outcome(lambda: parse_source(source, lang)) == streamed, source
        listed = outcome(lambda: parse(tokenize(source, lang.lexicon), lang))
        assert streamed == listed, source
    assert {streamed[0] for streamed in cold} == {"tree", "LexError", "ParseError"}


def test_a_streamed_compile_holds_the_tree_not_every_token():
    names = [f"V{i}" for i in range(8)]
    ast = ProgramAst(
        (AgentDecl(1, "manual", "m.dat"), AgentDecl(2, "auto", "192.168.0.2")),
        tuple(VarDecl(name, "plain", value=i) for i, name in enumerate(names)),
        tuple(
            MeasuringPlace(mp, 1 + mp % 2, tuple(
                Statement(Predicate("equals", names[k], k), "upd", names[(k + mp) % 8])
                for k in range(4)
            ))
            for mp in range(1, 257)
        ),
    )
    source, lang = pretty(ast), easytime_pp()
    assert parse_source(source, lang) == ast
    streamed = peak_bytes(lambda: parse_source(source, lang))
    listed = peak_bytes(lambda: parse(tokenize(source, lang.lexicon), lang))
    assert streamed < listed / 2, (streamed, listed)


# --- The scan without trivia: parse_source builds no whitespace or comment tokens ------

def without_trivia(source: str, lexicon) -> list[Token]:
    return list(frontend._scan(source, lexicon, trivia=False))


def tokenize_minus_trivia(source: str, lexicon) -> list[Token]:
    return [token for token in tokenize(source, lexicon) if token.kind not in TRIVIA]


def test_the_scan_without_trivia_is_tokenize_minus_trivia_for_any_lexicon():
    # the random lexicons above, each rule named Whitespace, Comment or a name of its own
    # at random, so a lexicon has several trivia rules of one name, or none
    rng = random.Random(27)
    for _ in range(250):
        patterns = rng.sample(PATTERN_POOL, rng.randint(2, 7))
        names = [rng.choice(("Whitespace", "Comment", f"R{i}")) for i in range(len(patterns))]
        lexicon = [LexRule(name, p, rng.randint(0, 2)) for name, p in zip(names, patterns)]
        for _ in range(8):
            source = "".join(
                rng.choice(ALPHABET) if rng.random() < 0.9 else chr(rng.randrange(128))
                for _ in range(rng.randint(0, 30))
            )
            expected = lex_outcome(tokenize_minus_trivia, source, lexicon)
            assert lex_outcome(without_trivia, source, lexicon) == expected, (lexicon, source)


TRIVIA_RUNS = (" ", "\t", "\n", "\r\n", "// note\n", "//", "  // x;y\n\n\t", "\n// a\n// b\n")


def with_trivia(rng: random.Random, source: str) -> str:
    """``source`` with runs of whitespace and comments after some of its lines and tokens."""
    pieces = re.split(r"(\s+)", source)
    return "".join(piece + (rng.choice(TRIVIA_RUNS) if rng.random() < 0.3 else "")
                   for piece in pieces)


@pytest.mark.parametrize("lang", [easytime_base(), easytime_pp()], ids=lambda lang: lang.name)
def test_the_scan_without_trivia_is_tokenize_minus_trivia_for_programs(lang):
    rng = random.Random(2027)
    for _ in range(30):
        for source in mutations(rng, with_trivia(rng, pretty(random_program(rng)))):
            expected = lex_outcome(tokenize_minus_trivia, source, lang.lexicon)
            assert lex_outcome(without_trivia, source, lang.lexicon) == expected, source
            assert outcome(lambda: parse_source(source, lang)) \
                == outcome(lambda: parse(tokenize(source, lang.lexicon), lang)), source


@pytest.mark.parametrize("source, line, column", [
    ("var X := 1;\n  \n\t@", 3, 2),  # right after a run of trivia
    ("var X := 1;\n // c\n  @ \n // d\n", 3, 3),  # inside one
    ("// c\n\n@", 3, 1),  # after trivia alone
    ("  \n\t// c;\r\n @var", 3, 2),
    ("var\n@", 2, 1),  # after a significant token ending a line
])
def test_a_character_no_rule_matches_is_reported_where_tokenize_reports_it(source, line, column):
    lang = easytime_pp()
    for scan in (tokenize, without_trivia):
        with pytest.raises(LexError) as err:
            scan(source, lang.lexicon)
        assert (err.value.line, err.value.column, err.value.message) \
            == (line, column, "unexpected character '@'")
    with pytest.raises(LexError) as err:
        parse_source(source, lang)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("lang, source, position", [
    (easytime_pp(), "var X := 1   ", (1, 11)),  # trailing whitespace
    (easytime_pp(), "var X := 1\n\t\n", (1, 11)),
    (easytime_pp(), "var X := 1 // no semicolon", (1, 11)),  # a trailing comment
    (easytime_pp(), "var X := 1\n// c\n//", (1, 11)),
    (tiny("S"), "", (1, 1)),  # an empty source
    (tiny("S"), " ", (1, 1)),  # trivia only: end of input stays at 1:1
    (tiny("S"), "\n\n  \t\n", (1, 1)),
    (easytime_pp(), "var", (1, 4)),
])
def test_end_of_input_does_not_move_without_trivia_tokens(lang, source, position):
    errors = []
    for parse_it in (lambda: parse_source(source, lang),
                     lambda: parse(tokenize(source, lang.lexicon), lang)):
        with pytest.raises(ParseError) as err:
            parse_it()
        errors.append((err.value.line, err.value.column, err.value.message))
    assert errors[0] == errors[1]
    assert errors[0][:2] == position and errors[0][2].endswith("got end of input")
