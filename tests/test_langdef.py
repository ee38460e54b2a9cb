from __future__ import annotations

import copy
import re

import pytest

from easytime.diagnostics import ERROR, Diagnostic
from easytime.langdef import (
    ADD,
    EXTENDS,
    OVERRIDES,
    ComposeError,
    ConflictingBasesError,
    DuplicateTargetError,
    LanguageDef,
    LanguageFragment,
    LexRule,
    Modifier,
    RuleGroup,
    UnknownTargetError,
    compose_language,
    easytime_base,
    easytime_pp,
    easytime_pp_fragment,
    prod,
    symbol_kind,
    validate_language,
)


def lex_rule(lang: LanguageDef, name: str) -> LexRule:
    return next(r for r in lang.lexicon if r.name == name)


def test_symbol_kind():
    assert symbol_kind("#Int") == "token"
    assert symbol_kind("DECS") == "nonterminal"
    assert symbol_kind("PRED2") == "nonterminal"
    assert symbol_kind("var") == "literal"
    assert symbol_kind(";") == "literal"
    assert symbol_kind("->") == "literal"


def test_base_and_pp_validate_clean():
    assert validate_language(easytime_base()) == []
    assert validate_language(easytime_pp()) == []


def test_compose_does_not_mutate_base():
    base = easytime_base()
    snapshot = copy.deepcopy(base)
    compose_language([base], easytime_pp_fragment())
    assert base == snapshot


def test_compose_empty_fragment_is_identity():
    base = easytime_base()
    composed = compose_language([base], LanguageFragment(name=""))
    assert composed == base


def test_compose_keeps_fragment_name():
    composed = compose_language([easytime_base()], easytime_pp_fragment())
    assert composed.name == "EasyTime++"


def test_pp_keyword_rule_matches_new_keywords():
    pp = easytime_pp()
    keyword = re.compile(lex_rule(pp, "Keyword").pattern)
    for word in ("category", "dynamicvar"):
        assert keyword.fullmatch(word)


def test_extend_preserves_base_keyword_matches():
    base_pattern = re.compile(lex_rule(easytime_base(), "Keyword").pattern)
    pp_pattern = re.compile(lex_rule(easytime_pp(), "Keyword").pattern)
    for word in ("var", "manual", "auto", "mp", "agnt", "upd", "dec", "true"):
        assert base_pattern.fullmatch(word)
        assert pp_pattern.fullmatch(word)


def test_extend_separator_accepts_comma():
    assert not re.compile(lex_rule(easytime_base(), "Separator").pattern).fullmatch(",")
    assert re.compile(lex_rule(easytime_pp(), "Separator").pattern).fullmatch(",")


def test_override_replaces_group_wholesale():
    base = easytime_base()
    only = RuleGroup("Dec", (prod("DEC", "var #Identifier ;", "dec_bare"),))
    fragment = LanguageFragment("t", rule_mods=((Modifier(OVERRIDES, "Dec"), only),))
    composed = compose_language([base], fragment)
    assert composed.rule_groups["Dec"].productions == only.productions
    for production in base.rule_groups["Dec"].productions:
        assert production not in composed.rule_groups["Dec"].productions


def test_pp_dec_group_has_three_productions():
    pp = easytime_pp()
    keys = [p.action_key for p in pp.rule_groups["Dec"].productions]
    assert keys == ["dec_plain", "dec_dynamic", "dec_categorized"]
    assert [p.action_key for p in pp.rule_groups["Categories"].productions] == [
        "ctgrs_cons",
        "ctgrs_single",
    ]


def test_pp_fragment_is_two_plus_two():
    fragment = easytime_pp_fragment()
    assert len(fragment.lexicon_mods) == 2
    assert len(fragment.rule_mods) == 2
    assert [m.kind for m, _ in fragment.lexicon_mods] == [EXTENDS, EXTENDS]
    assert [m.kind for m, _ in fragment.rule_mods] == [OVERRIDES, ADD]


def test_extends_unknown_lexicon_rule():
    fragment = LanguageFragment(
        "t", lexicon_mods=((Modifier(EXTENDS, "NoSuchRule"), LexRule("NoSuchRule", "x", 1)),)
    )
    with pytest.raises(UnknownTargetError):
        compose_language([easytime_base()], fragment)


def test_overrides_unknown_rule_group():
    fragment = LanguageFragment(
        "t", rule_mods=((Modifier(OVERRIDES, "NoSuchGroup"), RuleGroup("NoSuchGroup", ())),)
    )
    with pytest.raises(UnknownTargetError):
        compose_language([easytime_base()], fragment)


def test_add_existing_group_is_duplicate():
    fragment = LanguageFragment(
        "t", rule_mods=((Modifier(ADD, "Dec"), RuleGroup("Dec", ())),)
    )
    with pytest.raises(DuplicateTargetError):
        compose_language([easytime_base()], fragment)


def test_add_existing_lexicon_rule_is_duplicate():
    fragment = LanguageFragment(
        "t", lexicon_mods=((Modifier(ADD, "Keyword"), LexRule("Keyword", "x", 1)),)
    )
    with pytest.raises(DuplicateTargetError):
        compose_language([easytime_base()], fragment)


def _tiny_base(name: str, dec_key: str) -> LanguageDef:
    return LanguageDef(
        name,
        (LexRule("Int", "[0-9]+", 10),),
        {"Dec": RuleGroup("Dec", (prod("DEC", "#Int", dec_key),))},
        "DEC",
    )


def test_conflicting_bases_without_override():
    with pytest.raises(ConflictingBasesError):
        compose_language(
            [_tiny_base("A", "dec_a"), _tiny_base("B", "dec_b")],
            LanguageFragment("t"),
        )


def test_conflicting_bases_resolved_by_override():
    fragment = LanguageFragment(
        "t",
        rule_mods=(
            (Modifier(OVERRIDES, "Dec"), RuleGroup("Dec", (prod("DEC", "#Int", "dec_c"),))),
        ),
    )
    composed = compose_language(
        [_tiny_base("A", "dec_a"), _tiny_base("B", "dec_b")], fragment
    )
    assert composed.rule_groups["Dec"].productions[0].action_key == "dec_c"


def test_identical_bases_do_not_conflict():
    composed = compose_language(
        [_tiny_base("A", "dec_a"), _tiny_base("A2", "dec_a")], LanguageFragment("")
    )
    assert composed.name == "A2"
    assert composed.rule_groups["Dec"].productions[0].action_key == "dec_a"


def test_compose_requires_a_base():
    with pytest.raises(ValueError):
        compose_language([], LanguageFragment("t"))


def test_fragment_alone_is_not_a_language():
    fragment = easytime_pp_fragment()
    standalone = LanguageDef(
        fragment.name,
        tuple(rule for _, rule in fragment.lexicon_mods),
        {group.name: group for _, group in fragment.rule_mods},
        "PROGRAM",
    )
    diags = validate_language(standalone)
    assert diags
    codes = {d.code for d in diags}
    assert "MissingStart" in codes


def test_validate_reports_undefined_nonterminal():
    lang = LanguageDef(
        "t",
        (LexRule("Int", "[0-9]+", 10),),
        {"G": RuleGroup("G", (prod("DEC", "CTGRS", "k"),))},
        "DEC",
    )
    diags = validate_language(lang)
    assert any(d.code == "UndefinedSymbol" and "CTGRS" in d.message for d in diags)


def test_validate_reports_bad_regex_and_duplicates():
    lang = LanguageDef(
        "t",
        (LexRule("Int", "[0-9", 10), LexRule("Int", "x", 11)),
        {"G": RuleGroup("G", (prod("DEC", "#Int", "k"), prod("DEC", "#Int x", "k")))},
        "DEC",
    )
    codes = [d.code for d in validate_language(lang)]
    assert "InvalidPattern" in codes
    assert "DuplicateLexRule" in codes
    assert "DuplicateActionKey" in codes


def test_validate_reports_unmatchable_literal():
    lang = LanguageDef(
        "t",
        (LexRule("Int", "[0-9]+", 10),),
        {"G": RuleGroup("G", (prod("DEC", "kw #Int", "k"),))},
        "DEC",
    )
    assert any(d.code == "UnmatchableLiteral" for d in validate_language(lang))


def test_validate_rejects_a_lexicon_rule_named_like_end_of_input():
    # the parser would take every "." for end of input and drop the rest of the source
    lang = LanguageDef(
        "t",
        (LexRule("Whitespace", "[ ]+", 0), LexRule("Id", "[a-z]+", 10), LexRule("EOF", "[.]", 20)),
        {"G": RuleGroup("G", (prod("S", "#Id", "k"),))},
        "S",
    )
    assert validate_language(lang) == [Diagnostic(
        ERROR, "ReservedLexRule", "lexicon rule EOF is reserved for end of input")]
    assert validate_language(easytime_base()) == []
    assert validate_language(easytime_pp()) == []



# --- the modifier algebra, pinned for both namespaces -------------------
# Each namespace: how a fragment carries its mods, a payload named ``name``,
# how to read a composed language's table, and a name easytime_base() defines.
NAMESPACES = {
    "lexicon rule": (
        lambda *mods: LanguageFragment("t", lexicon_mods=mods),
        lambda name: LexRule(name, "x", 1),
        lambda lang: {rule.name: rule for rule in lang.lexicon},
        "Keyword",
    ),
    "rule group": (
        lambda *mods: LanguageFragment("t", rule_mods=mods),
        lambda name: RuleGroup(name, ()),
        lambda lang: lang.rule_groups,
        "Dec",
    ),
}


@pytest.mark.parametrize("label", sorted(NAMESPACES))
@pytest.mark.parametrize("kind, existing, error, message", [
    (ADD, True, DuplicateTargetError, "{label} {target} already defined"),
    (EXTENDS, False, UnknownTargetError, "no {label} {target} in any base"),
    (OVERRIDES, False, UnknownTargetError, "no {label} {target} in any base"),
    ("replaces", True, ComposeError, "unknown modifier kind 'replaces'"),
])
def test_compose_error_message(label, kind, existing, error, message):
    fragment, payload, _, defined = NAMESPACES[label]
    target = defined if existing else "Missing"
    with pytest.raises(ComposeError) as raised:
        compose_language([easytime_base()], fragment((Modifier(kind, target), payload(target))))
    assert type(raised.value) is error
    assert str(raised.value) == message.format(label=label, target=target)


def _disagreeing_bases() -> list[LanguageDef]:
    # names listed out of order, so the message's sorted listing shows
    return [
        LanguageDef(
            "A",
            (LexRule("Word", "[a-z]+", 20), LexRule("Int", "[0-9]+", 10)),
            {"Dec": RuleGroup("Dec", (prod("DEC", "#Int", "dec_a"),))},
            "DEC",
        ),
        LanguageDef(
            "B",
            (LexRule("Word", "[a-z]", 20), LexRule("Int", "[0-9]", 10)),
            {"Dec": RuleGroup("Dec", (prod("DEC", "#Int", "dec_b"),))},
            "DEC",
        ),
    ]


def test_disagreeing_bases_are_listed_sorted():
    with pytest.raises(ConflictingBasesError) as raised:
        compose_language(_disagreeing_bases(), LanguageFragment("t"))
    assert str(raised.value) == (
        "bases disagree and the fragment does not override:"
        " lexicon rule Int, lexicon rule Word, rule group Dec"
    )


def test_a_lexicon_rule_conflict_is_resolved_by_override_alone():
    bases = _disagreeing_bases()
    fragment = LanguageFragment("t", lexicon_mods=(
        (Modifier(OVERRIDES, "Int"), LexRule("Other", "[0-9]+", 5)),
        (Modifier(OVERRIDES, "Word"), LexRule("Word", "[a-z]+", 20)),
    ))
    with pytest.raises(ConflictingBasesError) as raised:
        compose_language(bases, fragment)
    assert str(raised.value) == (
        "bases disagree and the fragment does not override: rule group Dec"
    )
    composed = compose_language([bases[0], bases[0]._replace(lexicon=bases[1].lexicon)], fragment)
    assert composed.lexicon == (LexRule("Word", "[a-z]+", 20), LexRule("Int", "[0-9]+", 5))


def test_compose_reports_lexicon_mods_then_rule_mods_then_conflicts():
    bad_rule = (Modifier(EXTENDS, "NoGroup"), RuleGroup("NoGroup", ()))
    bad_lex = (Modifier(ADD, "Int"), LexRule("Int", "x", 1))
    with pytest.raises(DuplicateTargetError, match="^lexicon rule Int already defined$"):
        compose_language(_disagreeing_bases(), LanguageFragment("t", (bad_lex,), (bad_rule,)))
    with pytest.raises(UnknownTargetError, match="^no rule group NoGroup in any base$"):
        compose_language(_disagreeing_bases(), LanguageFragment("t", (), (bad_rule,)))


def test_extends_lexicon_rule_appends_an_alternation_in_place():
    base = easytime_base()
    fragment = LanguageFragment("t", lexicon_mods=(
        (Modifier(EXTENDS, "Separator"), LexRule("Ignored", ",", 99)),
    ))
    composed = compose_language([base], fragment)
    assert [r.name for r in composed.lexicon] == [r.name for r in base.lexicon]
    assert lex_rule(composed, "Separator") == LexRule("Separator", r"(?:[;{}()\[\]])|(?:,)", 50)


def test_extends_rule_group_appends_productions_in_place():
    base = easytime_base()
    extra = prod("DECS", "DEC", "decs_single")
    fragment = LanguageFragment("t", rule_mods=(
        (Modifier(EXTENDS, "Decs"), RuleGroup("Ignored", (extra,))),
    ))
    composed = compose_language([base], fragment)
    assert list(composed.rule_groups) == list(base.rule_groups)
    assert composed.rule_groups["Decs"] == RuleGroup(
        "Decs", base.rule_groups["Decs"].productions + (extra,)
    )


@pytest.mark.parametrize("label", sorted(NAMESPACES))
def test_add_names_its_payload_after_its_target(label):
    fragment, payload, table, _ = NAMESPACES[label]
    composed = compose_language([easytime_base()], fragment(
        (Modifier(ADD, "Foo"), payload("Bar")),
        (Modifier(ADD, "Bar"), payload("Bar")),
    ))
    added = list(table(composed).items())[-2:]
    assert [(key, item.name) for key, item in added] == [("Foo", "Foo"), ("Bar", "Bar")]
    assert validate_language(composed) == []
    with pytest.raises(DuplicateTargetError, match=f"^{label} Foo already defined$"):
        compose_language([easytime_base()], fragment(
            (Modifier(ADD, "Foo"), payload("Bar")),
            (Modifier(ADD, "Foo"), payload("Foo")),
        ))


def test_validate_rejects_a_left_hand_side_that_is_not_all_caps():
    lang = LanguageDef(
        "t",
        (LexRule("Int", "[0-9]+", 10),),
        {"G": RuleGroup("G", (prod("S", "#Int", "s"), prod("lower", "#Int", "k")))},
        "S",
    )
    assert validate_language(lang) == [Diagnostic(
        ERROR, "InvalidNonterminal", "left-hand side lower is not all-caps")]
