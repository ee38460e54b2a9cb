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
from collections import namedtuple

from .diagnostics import ERROR, Diagnostic

# Modifier kinds
ADD = "add"
EXTENDS = "extends"
OVERRIDES = "overrides"

# Lexicon rule names whose tokens are trivia: emitted by the tokenizer but
# never consumed by the parser.
TRIVIA = frozenset({"Whitespace", "Comment"})

# The token kind the parser reads as end of input; no lexicon rule may take the name.
EOF_KIND = "EOF"

_NONTERMINAL_RE = re.compile(r"[A-Z][A-Z0-9]*")


class ComposeError(Exception):
    """Raised when a fragment cannot be applied to its bases."""


class UnknownTargetError(ComposeError):
    pass


class DuplicateTargetError(ComposeError):
    pass


class ConflictingBasesError(ComposeError):
    pass


# Definitions are named tuples: immutable, and equal to plain tuples of the same fields.
LexRule = namedtuple("LexRule", "name pattern priority")
LexRule.__doc__ = "One lexical class.  Lower priority wins ties between equal-length matches."

Production = namedtuple("Production", "lhs rhs action_key")  # rhs is a tuple of symbols

RuleGroup = namedtuple("RuleGroup", "name productions")
RuleGroup.__doc__ = "A named, ordered bundle of productions (the unit of override/extend)."

Modifier = namedtuple("Modifier", "kind target")  # kind is ADD, EXTENDS or OVERRIDES

# rule_groups maps each group's name to the group
LanguageDef = namedtuple("LanguageDef", "name lexicon rule_groups start_symbol")

# mods are (Modifier, LexRule) and (Modifier, RuleGroup) pairs
LanguageFragment = namedtuple("LanguageFragment", "name lexicon_mods rule_mods", defaults=((), ()))
LanguageFragment.__doc__ = "An extension: not a language by itself, only meaningful over a base."


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

    Lexicon rules and rule groups are two namespaces of one algebra.  Later
    bases shadow earlier ones when resolving modifier targets.  A name
    defined differently by two bases must be overridden by the fragment,
    otherwise the conflict is an error.  `add` inserts a new item and
    `overrides` replaces the target wholesale; both name the result after the
    target.  `extends` keeps the target and appends to it: a lexicon rule's
    pattern gains an alternation branch, a rule group gains productions.
    """
    if not bases:
        raise ValueError("compose_language requires at least one base")

    lexicon: dict[str, LexRule] = {}
    groups: dict[str, RuleGroup] = {}
    namespaces = (
        ("lexicon rule", lexicon, [rule for base in bases for rule in base.lexicon],
         fragment.lexicon_mods,
         lambda old, new: old._replace(pattern=f"(?:{old.pattern})|(?:{new.pattern})")),
        ("rule group", groups, [group for base in bases for group in base.rule_groups.values()],
         fragment.rule_mods,
         lambda old, new: old._replace(productions=old.productions + new.productions)),
    )
    conflicts: set[str] = set()
    for label, table, items, mods, extend in namespaces:
        for item in items:
            if item.name in table and table[item.name] != item:
                conflicts.add(f"{label} {item.name}")
            table[item.name] = item
        for modifier, payload in mods:
            kind, name = modifier.kind, modifier.target
            if kind not in (ADD, EXTENDS, OVERRIDES):
                raise ComposeError(f"unknown modifier kind {kind!r}")
            if kind == ADD and name in table:
                raise DuplicateTargetError(f"{label} {name} already defined")
            if kind != ADD and name not in table:
                raise UnknownTargetError(f"no {label} {name} in any base")
            if kind == EXTENDS:
                table[name] = extend(table[name], payload)
            else:
                table[name] = payload._replace(name=name)
                conflicts.discard(f"{label} {name}")  # only an override can meet one

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
        if rule.name == EOF_KIND:
            diags.append(Diagnostic(
                ERROR, "ReservedLexRule", f"lexicon rule {EOF_KIND} is reserved for end of input"))
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
