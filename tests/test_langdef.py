from __future__ import annotations

import copy
import re

import pytest

from easytime.langdef import (
    ADD,
    EXTENDS,
    OVERRIDES,
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

