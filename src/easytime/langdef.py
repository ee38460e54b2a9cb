"""Language definitions as data, and their composition.

A language is described by a lexicon (named regular-expression rules) plus
named groups of grammar productions.  A dialect is derived from one or more
base definitions by applying a fragment whose modifiers `add`, `extends` or
`overrides` named lexicon rules and rule groups.  Composition is pure: the
inputs are never mutated.

Grammar symbols on a production's right-hand side follow one convention:

  * ``#Name``   -- reference to the lexicon rule ``Name`` (any token of that kind)
  * ``UPPER``   -- nonterminal (all-caps identifier)
  * otherwise   -- literal terminal, matched against token text (``var``, ``;``)

Semantic behaviour is attached per production through an ``action_key``
resolved by the host at parse time, so definitions stay plain data and
overriding a group rebinds its keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .diagnostics import ERROR, Diagnostic

# Modifier kinds
ADD = "add"
EXTENDS = "extends"
OVERRIDES = "overrides"

# Lexicon rule names whose tokens are trivia: emitted by the tokenizer but
# never consumed by the parser.
TRIVIA = frozenset({"Whitespace", "Comment"})

_NONTERMINAL_RE = re.compile(r"[A-Z][A-Z0-9]*")


class ComposeError(Exception):
    """Raised when a fragment cannot be applied to its bases."""


class UnknownTargetError(ComposeError):
    pass


class DuplicateTargetError(ComposeError):
    pass


class ConflictingBasesError(ComposeError):
    pass


@dataclass(frozen=True)
class LexRule:
    """One lexical class.  Lower priority wins ties between equal-length matches."""

    name: str
    pattern: str
    priority: int


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: tuple[str, ...]
    action_key: str


@dataclass(frozen=True)
class RuleGroup:
    """A named, ordered bundle of productions (the unit of override/extend)."""

    name: str
    productions: tuple[Production, ...]


@dataclass(frozen=True)
class Modifier:
    kind: str  # ADD, EXTENDS or OVERRIDES
    target: str


@dataclass(frozen=True)
class LanguageDef:
    name: str
    lexicon: tuple[LexRule, ...]
    rule_groups: dict[str, RuleGroup]
    start_symbol: str


@dataclass(frozen=True)
class LanguageFragment:
    """An extension: not a language by itself, only meaningful over a base."""

    name: str
    lexicon_mods: tuple[tuple[Modifier, LexRule], ...] = ()
    rule_mods: tuple[tuple[Modifier, RuleGroup], ...] = ()


def symbol_kind(symbol: str) -> str:
    """Classify an rhs symbol as 'token', 'nonterminal' or 'literal'."""
    if symbol.startswith("#"):
        return "token"
    if _NONTERMINAL_RE.fullmatch(symbol):
        return "nonterminal"
    return "literal"


def prod(lhs: str, rhs: str, action_key: str) -> Production:
    """Build a production from a space-separated rhs; '' means epsilon."""
    return Production(lhs, tuple(rhs.split()), action_key)


def compose_language(
    bases: list[LanguageDef], fragment: LanguageFragment
) -> LanguageDef:
    """Apply a fragment's modifiers to the union of the bases.

    Later bases shadow earlier ones when resolving modifier targets.  A name
    defined differently by two bases must be overridden by the fragment,
    otherwise the conflict is an error.  `extends` on a lexicon rule appends
    the new pattern as an alternation branch; on a rule group it appends
    productions.  `overrides` replaces the target wholesale and `add` inserts
    a new one.
    """
    if not bases:
        raise ValueError("compose_language requires at least one base")

    lexicon: dict[str, LexRule] = {}
    groups: dict[str, RuleGroup] = {}
    conflicts: set[str] = set()
    for base in bases:
        for rule in base.lexicon:
            if rule.name in lexicon and lexicon[rule.name] != rule:
                conflicts.add(f"lexicon rule {rule.name}")
            lexicon[rule.name] = rule
        for group in base.rule_groups.values():
            if group.name in groups and groups[group.name] != group:
                conflicts.add(f"rule group {group.name}")
            groups[group.name] = group

    for modifier, rule in fragment.lexicon_mods:
        name = modifier.target
        if modifier.kind == ADD:
            if name in lexicon:
                raise DuplicateTargetError(f"lexicon rule {name} already defined")
            lexicon[name] = rule
        elif modifier.kind == EXTENDS:
            if name not in lexicon:
                raise UnknownTargetError(f"no lexicon rule {name} in any base")
            old = lexicon[name]
            lexicon[name] = replace(old, pattern=f"(?:{old.pattern})|(?:{rule.pattern})")
        elif modifier.kind == OVERRIDES:
            if name not in lexicon:
                raise UnknownTargetError(f"no lexicon rule {name} in any base")
            lexicon[name] = replace(rule, name=name)
            conflicts.discard(f"lexicon rule {name}")
        else:
            raise ComposeError(f"unknown modifier kind {modifier.kind!r}")

    for modifier, group in fragment.rule_mods:
        name = modifier.target
        if modifier.kind == ADD:
            if name in groups:
                raise DuplicateTargetError(f"rule group {name} already defined")
            groups[name] = group
        elif modifier.kind == EXTENDS:
            if name not in groups:
                raise UnknownTargetError(f"no rule group {name} in any base")
            old = groups[name]
            groups[name] = RuleGroup(name, old.productions + group.productions)
        elif modifier.kind == OVERRIDES:
            if name not in groups:
                raise UnknownTargetError(f"no rule group {name} in any base")
            groups[name] = RuleGroup(name, group.productions)
            conflicts.discard(f"rule group {name}")
        else:
            raise ComposeError(f"unknown modifier kind {modifier.kind!r}")

    if conflicts:
        raise ConflictingBasesError(
            "bases disagree and the fragment does not override: "
            + ", ".join(sorted(conflicts))
        )

    return LanguageDef(
        name=fragment.name or bases[-1].name,
        lexicon=tuple(lexicon.values()),
        rule_groups=groups,
        start_symbol=bases[-1].start_symbol,
    )


def validate_language(lang: LanguageDef) -> list[Diagnostic]:
    """Well-formedness checks; an empty list means the definition is usable."""
    diags: list[Diagnostic] = []

    compiled: dict[str, re.Pattern] = {}
    seen_names: set[str] = set()
    for rule in lang.lexicon:
        if rule.name in seen_names:
            diags.append(
                Diagnostic(ERROR, "DuplicateLexRule", f"lexicon rule {rule.name} defined twice")
            )
        seen_names.add(rule.name)
        try:
            compiled[rule.name] = re.compile(rule.pattern)
        except re.error as exc:
            diags.append(
                Diagnostic(ERROR, "InvalidPattern", f"lexicon rule {rule.name}: {exc}")
            )

    defined = {p.lhs for g in lang.rule_groups.values() for p in g.productions}
    for lhs in sorted(defined):
        if symbol_kind(lhs) != "nonterminal":
            diags.append(
                Diagnostic(ERROR, "InvalidNonterminal", f"left-hand side {lhs} is not all-caps")
            )

    action_keys: set[str] = set()
    for group in lang.rule_groups.values():
        for production in group.productions:
            if production.action_key in action_keys:
                diags.append(
                    Diagnostic(
                        ERROR,
                        "DuplicateActionKey",
                        f"action key {production.action_key} reused in group {group.name}",
                    )
                )
            action_keys.add(production.action_key)
            for symbol in production.rhs:
                kind = symbol_kind(symbol)
                if kind == "nonterminal" and symbol not in defined:
                    diags.append(
                        Diagnostic(
                            ERROR,
                            "UndefinedSymbol",
                            f"group {group.name}: {production.lhs} references"
                            f" undefined nonterminal {symbol}",
                        )
                    )
                elif kind == "token" and symbol[1:] not in seen_names:
                    diags.append(
                        Diagnostic(
                            ERROR,
                            "UndefinedSymbol",
                            f"group {group.name}: {production.lhs} references"
                            f" unknown lexical rule {symbol}",
                        )
                    )
                elif kind == "literal" and not any(
                    p.fullmatch(symbol) for p in compiled.values()
                ):
                    diags.append(
                        Diagnostic(
                            ERROR,
                            "UnmatchableLiteral",
                            f"group {group.name}: literal {symbol!r} is not"
                            " matched by any lexicon rule",
                        )
                    )

    if lang.start_symbol not in defined:
        diags.append(
            Diagnostic(ERROR, "MissingStart", f"start symbol {lang.start_symbol} has no production")
        )
    return diags


def easytime_base() -> LanguageDef:
    """The built-in base language for race-timing programs.

    Accepts agent declarations (``1 manual "man.dat";`` / ``2 auto <ip>;``),
    plain variable declarations (``var SWIM := 0;``) and measuring places
    whose bodies are guarded statements (``(ROUND1 == 0) -> upd SWIM;``).
    Line comments start with ``//``.
    """
    lexicon = (
        LexRule("Whitespace", r"[ \t\r\n]+", 0),
        LexRule("Comment", r"//[^\n]*", 5),
        LexRule("Keyword", r"var|manual|auto|mp|agnt|upd|dec|true", 10),
        LexRule("Identifier", r"[A-Za-z][A-Za-z0-9]*", 20),
        LexRule("Int", r"[0-9]+", 30),
        LexRule("Ip", r"[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+", 35),
        LexRule("String", r'"[^"\n]*"', 40),
        LexRule("Separator", r"[;{}()\[\]]", 50),
        LexRule("Operator", r":=|==|->", 60),
    )
    groups = {
        "Start": RuleGroup("Start", (
            prod("PROGRAM", "AGENTS DECS PLACES", "program"),
        )),
        "Agents": RuleGroup("Agents", (
            prod("AGENTS", "AGENT AGENTS", "agents_cons"),
            prod("AGENTS", "", "agents_nil"),
            prod("AGENT", "#Int SOURCE ;", "agent"),
            prod("SOURCE", "manual #String", "agent_manual"),
            prod("SOURCE", "auto #Ip", "agent_auto"),
        )),
        "Decs": RuleGroup("Decs", (
            prod("DECS", "DEC DECS", "decs_cons"),
            prod("DECS", "", "decs_nil"),
        )),
        "Dec": RuleGroup("Dec", (
            prod("DEC", "var #Identifier := #Int ;", "dec_plain"),
        )),
        "Places": RuleGroup("Places", (
            prod("PLACES", "PLACE PLACES", "places_cons"),
            prod("PLACES", "", "places_nil"),
            prod("PLACE", "mp [ #Int ] -> agnt [ #Int ] { STMTS }", "place"),
        )),
        "Statements": RuleGroup("Statements", (
            prod("STMTS", "STMT STMTS", "stmts_cons"),
            prod("STMTS", "STMT", "stmts_single"),
            prod("STMT", "( PRED ) -> upd #Identifier ;", "stmt_upd"),
            prod("STMT", "( PRED ) -> dec #Identifier ;", "stmt_dec"),
        )),
        "Pred": RuleGroup("Pred", (
            prod("PRED", "true", "pred_true"),
            prod("PRED", "#Identifier == #Int", "pred_equals"),
        )),
    }
    return LanguageDef("EasyTime", lexicon, groups, "PROGRAM")


def easytime_pp_fragment() -> LanguageFragment:
    """The extension fragment that turns the base language into EasyTime++.

    Adds category-indexed declarations and dynamic variables: two new
    keywords, the comma separator, a replaced declaration group and a new
    group for category arm lists.
    """
    return LanguageFragment(
        name="EasyTime++",
        lexicon_mods=(
            (Modifier(EXTENDS, "Separator"), LexRule("Separator", ",", 50)),
            (Modifier(EXTENDS, "Keyword"), LexRule("Keyword", "category|dynamicvar", 10)),
        ),
        rule_mods=(
            (Modifier(OVERRIDES, "Dec"), RuleGroup("Dec", (
                prod("DEC", "var #Identifier := #Int ;", "dec_plain"),
                prod("DEC", "dynamicvar #Identifier ;", "dec_dynamic"),
                prod("DEC", "var #Identifier := { CTGRS } ;", "dec_categorized"),
            ))),
            (Modifier(ADD, "Categories"), RuleGroup("Categories", (
                prod("CTGRS", "( category == #Int ) -> #Int , CTGRS", "ctgrs_cons"),
                prod("CTGRS", "( category == #Int ) -> #Int", "ctgrs_single"),
            ))),
        ),
    )


def easytime_pp() -> LanguageDef:
    """Convenience: the composed EasyTime++ dialect."""
    return compose_language([easytime_base()], easytime_pp_fragment())
