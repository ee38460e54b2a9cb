"""Tokenizer and parser driven by a language definition.

``tokenize`` applies a lexicon with maximal munch (longest match wins, ties
broken by rule priority) and emits every character of the source as a token,
including whitespace and comments, so the token stream reproduces the input
exactly.  It works out from the parsed patterns which rules can start a
match with each ASCII character, and a position tries only those, or takes
the match of the one rule there is; a rule the analysis cannot bound is
tried everywhere.  ``parse`` is one table-driven loop with single-token
lookahead that pulls its tokens one at a time and skips trivia;
``parse_source`` feeds it the scan as it goes, without trivia, so a compile
builds no token for whitespace or comments and holds the tree, not every
token.  Its tables come from one builder, ``_tries``, which runs FIRST/FOLLOW
over the definition's productions and returns a prediction trie per
nonterminal; alternatives sharing a prefix share a trie path until
the lookahead separates them, and end of input is one more token kind.  An
explicit stack replaces recursion, so how deeply a program nests is bounded
by memory and not by the recursion limit.
Both tables depend only on the definition: the dispatch table on the
lexicon's rules, the tries on the productions and the start symbol.  Each
is built once per distinct content and kept for later compiles, so a
definition edited in place, or a new one, gets fresh tables and equal
definitions share them.  Nothing writes to a kept table.
Semantic values are built bottom-up by handlers looked up per production
action key, which is what makes an overridden rule group change the
produced syntax tree.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .langdef import EOF_KIND, TRIVIA, LanguageDef, LexRule, Production, symbol_kind


class LexError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected


# Tokens are named tuples: immutable, built cheaply by the ten thousand, and
# equal to plain tuples of the same fields.
Token = namedtuple("Token", "kind text line column")


# --- Syntax tree ------------------------------------------------------
# Nodes are named tuples.  Positions are carried for error reporting but
# excluded from equality so that a reparsed pretty-print compares equal to
# the original tree.

class _Positioned(tuple):
    """Base of the nodes ``_positioned`` makes: equality and hashing leave out ``line``
    and ``column``, their last two fields, and a node equals only nodes of its own type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self[:-2] == other[:-2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-2])


def _positioned(name: str, fields: str, defaults: tuple = ()) -> type:
    """A node type with ``fields``, then ``line`` and ``column``, which default to 0."""
    base = namedtuple(name, f"{fields} line column", defaults=(*defaults, 0, 0))
    return type(name, (_Positioned, base), {"__slots__": ()})


# kind is "manual" or "auto"; source a file path or dotted-quad address
AgentDecl = _positioned("AgentDecl", "id kind source")
# kind names the form, which only ``pretty`` reads (``DECL_SOURCE``); every form means
# its arms, (category, value) pairs, plus its value as the default of other categories
VarDecl = _positioned("VarDecl", "name kind value arms", defaults=(None, None))
# kind is "true" or "equals"
Predicate = namedtuple("Predicate", "kind var value", defaults=(None, None))
# instr is "upd" or "dec"
Statement = _positioned("Statement", "pred instr target")
MeasuringPlace = _positioned("MeasuringPlace", "mp_id agent_id stmts")
ProgramAst = namedtuple("ProgramAst", "agents decls places")


# --- Tokenizer --------------------------------------------------------
# The regex parser is private: re._parser since Python 3.11, sre_parse before.
try:
    from re import _compiler as _sre_compile, _parser as _sre_parse
except ImportError:  # Python 3.10
    import sre_compile as _sre_compile
    import sre_parse as _sre_parse

_ASCII = range(128)
_ASCII_TEXT = "".join(map(chr, _ASCII))  # each character at the index of its code

# distinct lexicons, and distinct grammars, whose tables are kept; a process
# compiles under one or two languages
_TABLES_KEPT = 8


def _firsts(items, state) -> tuple[set[int], bool]:
    """The codes a non-empty match of parsed ``items`` can start with, and whether
    ``items`` can match empty.  Raises ``ValueError`` on a construct it cannot bound."""
    firsts: set[int] = set()
    for op, av in items:
        if op == _sre_parse.AT:  # zero-width anchor
            item, nullable = set(), True
        elif op == _sre_parse.LITERAL:
            item, nullable = {av}, False
        elif op in (_sre_parse.NOT_LITERAL, _sre_parse.IN, _sre_parse.ANY):
            # ask the engine: in Unicode mode \s also matches \x1c-\x1f
            one = _sre_compile.compile(_sre_parse.SubPattern(state, [(op, av)]))
            item, nullable = {m.start() for m in one.finditer(_ASCII_TEXT)}, False
        elif op == _sre_parse.BRANCH:
            branches = [_firsts(branch, state) for branch in av[1]]
            item = set().union(*(branch for branch, _ in branches))
            nullable = any(empty for _, empty in branches)
        elif op == _sre_parse.SUBPATTERN and not av[1] and not av[2]:  # no scoped flags
            item, nullable = _firsts(av[3], state)
        elif op in (_sre_parse.MAX_REPEAT, _sre_parse.MIN_REPEAT):
            low, high, repeated = av
            item, nullable = _firsts(repeated, state) if high else (set(), True)
            nullable = nullable or low == 0
        else:  # lookarounds, group references, scoped flags, newer opcodes
            raise ValueError(f"cannot bound the first character of {op}")
        firsts |= item
        if not nullable:
            return firsts, False
    return firsts, True


def _first_codes(pattern: str) -> range | set[int]:
    """The ASCII codes a non-empty match of ``pattern`` can start with; all of them
    when the analysis cannot tell, which costs speed but never changes a token."""
    try:
        parsed = _sre_parse.parse(pattern)
        if parsed.state.flags != _sre_parse.SRE_FLAG_UNICODE:  # an inline flag such as (?i)
            return _ASCII
        firsts, _ = _firsts(parsed, parsed.state)
    except Exception:  # any failure of the private parser falls back, as above
        return _ASCII
    return {code for code in firsts if code in _ASCII}


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _dispatch(lexicon: tuple[LexRule, ...]) -> tuple[tuple[tuple, ...], ...]:
    """Per ASCII code, ``(name, priority, match)`` of each rule, in lexicon order,
    that can produce a non-empty match starting with that character.  Kept per
    lexicon content and shared, so it is built of tuples."""
    table: list[list[tuple]] = [[] for _ in _ASCII]
    for rule in lexicon:
        entry = (rule.name, rule.priority, re.compile(rule.pattern).match)
        for code in _first_codes(rule.pattern):
            table[code].append(entry)
    return tuple(map(tuple, table))


def tokenize(source: str, lexicon: tuple[LexRule, ...] | list[LexRule]) -> list[Token]:
    """Split source into tokens; trivia (whitespace, comments) is included, so the
    texts of the tokens join to the source.

    A table maps the first character to the lexicon rules that can start a
    non-empty match with it, worked out from each parsed pattern.  It is
    built once per lexicon content, a list or a tuple of the same rules
    alike, and never written, so later calls reuse it.  A position tries
    only its character's rules, in lexicon order, and keeps the longest
    match, then the lower priority, then the earlier rule; where one rule
    alone can start a match, its match is the token.  A rule whose
    pattern uses a construct the analysis does not bound (a lookaround, a
    group reference, an inline flag) is tried at every position, so the
    table never changes the tokens.  Returns every token in one list;
    ``parse`` also takes them as a stream.  ``parse_source`` streams the same
    scan without the trivia, which ``parse`` would skip.
    """
    return list(_scan(source, lexicon))


def _scan(source: str, lexicon: tuple[LexRule, ...] | list[LexRule],
          trivia: bool = True) -> Iterator[Token]:
    """The tokens of ``tokenize``, one per ``next``; with ``trivia`` false, as
    ``parse_source`` asks, only the tokens the parser reads: a ``Whitespace`` or
    ``Comment`` match moves the position and the line count and builds no token.
    The first ``next`` checks that the source is ASCII and looks up the table,
    building it for a new lexicon, and a character no rule matches raises
    ``LexError`` when the scan reaches it."""
    if not source.isascii():
        pos = next(i for i, ch in enumerate(source) if not ch.isascii())
        line_start = source.rfind("\n", 0, pos) + 1
        raise LexError(source.count("\n", 0, pos) + 1, pos - line_start + 1,
                       f"non-ASCII character {source[pos]!r}")
    table = _dispatch(tuple(lexicon))  # a list lexicon may be edited between calls
    skipped = frozenset() if trivia else TRIVIA

    new_tuple = tuple.__new__  # skips Token's Python-level __new__
    pos, line, line_start, size = 0, 1, 0, len(source)
    while pos < size:
        rules = table[ord(source[pos])]
        if len(rules) == 1:  # the one rule that can start here: its match, if not empty
            name, _, match = rules[0]
            m = match(source, pos)
            end = pos if m is None else m.end()
        else:
            name, end, priority = None, pos, 0
            for rule_name, rule_priority, match in rules:
                m = match(source, pos)
                if m is None:
                    continue
                stop = m.end()
                # longest first, then priority; empty matches are ignored
                if stop > end or (stop == end > pos and rule_priority < priority):
                    name, end, priority = rule_name, stop, rule_priority
        if end == pos:
            raise LexError(line, pos - line_start + 1, f"unexpected character {source[pos]!r}")
        if name in skipped:
            if newlines := source.count("\n", pos, end):
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        else:
            text = source[pos:end]
            yield new_tuple(Token, (name, text, line, pos - line_start + 1))
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rfind("\n") + 1
        pos = end


# --- Prediction tables ------------------------------------------------
# Lookahead sets hold terminals as the grammar spells them: a literal such as
# ``var`` matches a token's text, ``#Identifier`` a token's kind, and ``#EOF``
# end of input, the kind of the EOF token.

def _describe_terminal(symbol: str) -> str:
    if not symbol.startswith("#"):
        return repr(symbol)
    return "end of input" if symbol[1:] == EOF_KIND else symbol[1:]


class _Node:
    """The productions of one nonterminal that share a prefix of ``depth`` symbols.

    ``next`` maps each symbol that can follow the prefix to its child node and
    whether the symbol is a nonterminal.  ``by_text`` and ``by_kind`` map a
    lookahead token's text and kind to the next symbols they select, split from
    the lookahead terminals on the ``#`` prefix; their symbol sets are frozen,
    because every parse under equal productions shares the trie.  ``complete``
    is the first production that ends here and ``expected`` describes every
    lookahead terminal, for the error message.
    """

    __slots__ = ("next", "by_text", "by_kind", "complete", "expected")

    def __init__(self, predict, nt: str, prods: list[Production], depth: int = 0):
        self.complete = next((p for p in prods if len(p.rhs) == depth), None)
        longer = [p for p in prods if len(p.rhs) > depth]
        self.next = {
            symbol: (
                _Node(predict, nt, [p for p in longer if p.rhs[depth] == symbol], depth + 1),
                symbol_kind(symbol) == "nonterminal",
            )
            for symbol in dict.fromkeys(p.rhs[depth] for p in longer)
        }
        selects: dict[str, set[str]] = {}
        for p in longer:
            for terminal in predict(p.rhs[depth:], nt):
                selects.setdefault(terminal, set()).add(p.rhs[depth])
        self.by_text = {t: frozenset(s) for t, s in selects.items() if not t.startswith("#")}
        self.by_kind = {t[1:]: frozenset(s) for t, s in selects.items() if t.startswith("#")}
        self.expected = tuple(sorted(map(_describe_terminal, selects)))


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _tries(grammar: tuple[tuple, ...], start_symbol: str) -> dict[str, _Node]:
    """The prediction trie of each nonterminal, from FIRST/FOLLOW over ``grammar``, the
    productions as ``(lhs, rhs, action_key)`` tuples in group order.  Kept per content
    and shared, so nothing may write to it."""
    productions: dict[str, list[Production]] = {}
    for production in map(Production._make, grammar):
        productions.setdefault(production.lhs, []).append(production)
    nullable: set[str] = set()
    first: dict[str, set[str]] = {nt: set() for nt in productions}
    follow: dict[str, set[str]] = {nt: set() for nt in productions}

    def seq_first(symbols: tuple[str, ...]) -> tuple[set[str], bool]:
        """FIRST terminals of a symbol sequence and whether it derives epsilon."""
        firsts: set[str] = set()
        for symbol in symbols:
            if symbol_kind(symbol) == "nonterminal":
                firsts |= first.get(symbol, set())
                if symbol not in nullable:
                    return firsts, False
            else:
                firsts.add(symbol)
                return firsts, False
        return firsts, True

    changed = True
    while changed:
        changed = False
        for nt, prods in productions.items():
            for p in prods:
                firsts, empty = seq_first(p.rhs)
                if not firsts <= first[nt]:
                    first[nt] |= firsts
                    changed = True
                if empty and nt not in nullable:
                    nullable.add(nt)
                    changed = True
    if start_symbol in follow:
        follow[start_symbol].add("#" + EOF_KIND)
    changed = True
    while changed:
        changed = False
        for nt, prods in productions.items():
            for p in prods:
                for i, symbol in enumerate(p.rhs):
                    if symbol_kind(symbol) != "nonterminal" or symbol not in follow:
                        continue
                    firsts, empty = seq_first(p.rhs[i + 1:])
                    add = firsts | (follow[nt] if empty else set())
                    if not add <= follow[symbol]:
                        follow[symbol] |= add
                        changed = True

    def predict(suffix: tuple[str, ...], lhs: str) -> set[str]:
        firsts, empty = seq_first(suffix)
        return firsts | follow.get(lhs, set()) if empty else firsts

    return {nt: _Node(predict, nt, prods) for nt, prods in productions.items()}


# --- Parser -----------------------------------------------------------

def _describe_token(token: Token) -> str:
    if token.kind == EOF_KIND:
        return "end of input"
    return f"{token.kind} {token.text!r}"


def parse(tokens: Iterable[Token], lang: LanguageDef) -> ProgramAst:
    """Parse tokens into a program tree under the given definition.

    ``tokens`` is any iterable of tokens, trivia or not: the list from
    ``tokenize``, or the scan without trivia that ``parse_source`` streams.  Tokens are
    pulled one at a time and trivia is skipped as it arrives, so a parse
    holds the tree it builds, not every token.  End of input sits just past
    the last significant token, or at 1:1 when there is none.  If anything
    raises once the stream is open, the rest of the stream is read before the
    error propagates, so a ``LexError`` anywhere in the source wins over any
    parse error, as when the whole source is tokenized first.

    One loop over an explicit stack with a frame per open nonterminal, so
    nesting is bounded by memory and not by the recursion limit.  Each frame
    walks its nonterminal's prediction trie, which ``_tries`` builds once per
    content of the definition's productions and start symbol and no parse
    writes to: a token either selects the one next symbol, or ends the
    frame's production, or is an error.
    """
    stream = iter(tokens)
    try:
        return _parse(stream, lang)
    except Exception:
        for _ in stream:  # a LexError raised here replaces the error being handled
            pass
        raise


def _parse(stream: Iterator[Token], lang: LanguageDef) -> ProgramAst:
    # keyed on content, not on the definition's identity: rule_groups may be edited in place
    grammar = tuple(
        (p.lhs, tuple(p.rhs), p.action_key)
        for group in lang.rule_groups.values()
        for p in group.productions
    )
    tries = _tries(grammar, lang.start_symbol)
    token = next((t for t in stream if t.kind not in TRIVIA), Token(EOF_KIND, "", 1, 1))
    start = lang.start_symbol
    if start not in tries:
        raise ParseError(token.line, token.column, f"nonterminal {start} has no productions")
    # frame: [nonterminal, trie node, children, first token]
    stack = [[start, tries[start], [], token]]
    while True:
        nt, node, children, first_token = frame = stack[-1]
        by_text = node.by_text.get(token.text)
        by_kind = node.by_kind.get(token.kind)
        symbols = by_text | by_kind if by_text and by_kind else by_text or by_kind
        if not symbols:
            if node.complete is None:
                raise ParseError(
                    token.line,
                    token.column,
                    f"in {nt}: expected {' or '.join(node.expected)},"
                    f" got {_describe_token(token)}",
                    expected=node.expected,
                )
            handler = DEFAULT_HANDLERS.get(node.complete.action_key)
            if handler is None:
                raise LookupError(
                    f"no handler registered for action key {node.complete.action_key!r}"
                )
            value = handler(children, first_token)
            stack.pop()
            if not stack:
                break
            stack[-1][2].append(value)
        elif len(symbols) > 1:
            raise ParseError(
                token.line,
                token.column,
                f"grammar is ambiguous in {nt} on {_describe_token(token)}:"
                f" {' vs '.join(sorted(symbols))}",
            )
        else:
            (symbol,) = symbols
            frame[1], nonterminal = node.next[symbol]
            if nonterminal:
                stack.append([symbol, tries[symbol], [], token])
            else:
                children.append(token)
                last = token
                for token in stream:
                    if token.kind not in TRIVIA:
                        break
                else:  # end of input, just past the last significant token, and stays there
                    token = Token(EOF_KIND, "", last.line, last.column + len(last.text))
    if token.kind != EOF_KIND:
        raise ParseError(
            token.line,
            token.column,
            f"expected end of input, got {_describe_token(token)}",
            expected=("end of input",),
        )
    return value


def parse_source(source: str, lang: LanguageDef) -> ProgramAst:
    return parse(_scan(source, lang.lexicon, trivia=False), lang)


# --- Tree-building handlers -------------------------------------------
# Each handler receives the child values of one production (tokens for
# terminals, built values for nonterminals) plus the production's first token.

def _require_positive(token: Token, what: str) -> int:
    value = int(token.text)
    if value < 1:
        raise ParseError(token.line, token.column, f"{what} must be >= 1, got {value}")
    return value


def _cons(item, rest: list) -> list:
    # a right-recursive list reduces its last element first, so it is built back to
    # front in O(1) per element, and the production that consumes it reverses it once
    rest.append(item)
    return rest


def _h_program(c, t):
    return ProgramAst(tuple(reversed(c[0])), tuple(reversed(c[1])), tuple(reversed(c[2])))


def _h_agent(c, t):
    kind, source = c[1]
    return AgentDecl(_require_positive(c[0], "agent id"), kind, source,
                     line=c[0].line, column=c[0].column)


def _h_dec_plain(c, t):
    return VarDecl(c[1].text, "plain", value=int(c[3].text), line=t.line, column=t.column)


def _h_dec_dynamic(c, t):
    return VarDecl(c[1].text, "dynamic", line=t.line, column=t.column)


def _h_dec_categorized(c, t):
    arms = tuple(reversed(c[4]))
    seen: set[int] = set()
    for category, _ in arms:
        if category in seen:
            raise ParseError(t.line, t.column,
                             f"category {category} mapped twice in {c[1].text}")
        seen.add(category)
    return VarDecl(c[1].text, "categorized", arms=arms, line=t.line, column=t.column)


def _h_place(c, t):
    return MeasuringPlace(_require_positive(c[2], "measuring place id"),
                          _require_positive(c[7], "agent id"),
                          tuple(reversed(c[10])), line=t.line, column=t.column)


DEFAULT_HANDLERS: dict = {
    "program": _h_program,
    "agents_cons": lambda c, t: _cons(c[0], c[1]),
    "agents_nil": lambda c, t: [],
    "agent": _h_agent,
    "agent_manual": lambda c, t: ("manual", c[1].text[1:-1]),
    "agent_auto": lambda c, t: ("auto", c[1].text),
    "decs_cons": lambda c, t: _cons(c[0], c[1]),
    "decs_nil": lambda c, t: [],
    "dec_plain": _h_dec_plain,
    "dec_dynamic": _h_dec_dynamic,
    "dec_categorized": _h_dec_categorized,
    "places_cons": lambda c, t: _cons(c[0], c[1]),
    "places_nil": lambda c, t: [],
    "place": _h_place,
    "stmts_cons": lambda c, t: _cons(c[0], c[1]),
    "stmts_single": lambda c, t: [c[0]],
    "stmt_upd": lambda c, t: Statement(c[1], "upd", c[5].text, line=t.line, column=t.column),
    "stmt_dec": lambda c, t: Statement(c[1], "dec", c[5].text, line=t.line, column=t.column),
    "pred_true": lambda c, t: Predicate("true"),
    "pred_equals": lambda c, t: Predicate("equals", var=c[0].text, value=int(c[2].text)),
    "ctgrs_cons": lambda c, t: _cons((int(c[3].text), int(c[6].text)), c[8]),
    "ctgrs_single": lambda c, t: [(int(c[3].text), int(c[6].text))],
}

# each declaration kind's source text; a fragment's new form adds its handler above and this
DECL_SOURCE: dict = {
    "plain": lambda d: f"var {d.name} := {d.value};",
    "dynamic": lambda d: f"dynamicvar {d.name};",
    "categorized": lambda d: "var {} := {{ {} }};".format(
        d.name, ", ".join(f"(category=={c}) -> {v}" for c, v in d.arms)),
}


# --- Pretty printer ---------------------------------------------------

def pretty(ast: ProgramAst) -> str:
    """Canonical source text for a program tree; reparsing it round-trips."""
    lines: list[str] = []
    for agent in ast.agents:
        source = f'manual "{agent.source}"' if agent.kind == "manual" else f"auto {agent.source}"
        lines.append(f"{agent.id} {source};")
    for decl in ast.decls:
        if (source := DECL_SOURCE.get(decl.kind)) is None:
            raise ValueError(f"unknown declaration kind {decl.kind!r}")
        lines.append(source(decl))
    for place in ast.places:
        lines.append(f"mp[{place.mp_id}] -> agnt[{place.agent_id}] {{")
        for stmt in place.stmts:
            if stmt.pred.kind == "true":
                pred = "true"
            else:
                pred = f"{stmt.pred.var} == {stmt.pred.value}"
            lines.append(f"  ({pred}) -> {stmt.instr} {stmt.target};")
        lines.append("}")
    return "\n".join(lines) + "\n"
