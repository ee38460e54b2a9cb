"""Tokenizer and parser driven by a language definition.

``tokenize`` applies a lexicon with maximal munch (longest match wins, ties
broken by rule priority) and emits every character of the source as a token,
including whitespace and comments, so the token stream reproduces the input
exactly.  ``parse`` interprets the definition's productions directly with a
deterministic single-token-lookahead descent: alternatives sharing a prefix
are parsed together until the lookahead separates them.  Semantic values are
built bottom-up by handlers looked up per production action key, which is
what makes an overridden rule group change the produced syntax tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .langdef import TRIVIA, LanguageDef, LexRule, Production, symbol_kind

EOF_KIND = "EOF"


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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


# --- Syntax tree ------------------------------------------------------
# Positions are carried for error reporting but excluded from equality so
# that a reparsed pretty-print compares equal to the original tree.

@dataclass(frozen=True)
class AgentDecl:
    id: int
    kind: str  # "manual" or "auto"
    source: str  # file path or dotted-quad address
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "plain", "categorized" or "dynamic"
    value: int | None = None
    arms: tuple[tuple[int, int], ...] | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Predicate:
    kind: str  # "true" or "equals"
    var: str | None = None
    value: int | None = None


@dataclass(frozen=True)
class Statement:
    pred: Predicate
    instr: str  # "upd" or "dec"
    target: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MeasuringPlace:
    mp_id: int
    agent_id: int
    stmts: tuple[Statement, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ProgramAst:
    agents: tuple[AgentDecl, ...]
    decls: tuple[VarDecl, ...]
    places: tuple[MeasuringPlace, ...]


# --- Tokenizer --------------------------------------------------------

def tokenize(source: str, lexicon: tuple[LexRule, ...] | list[LexRule]) -> list[Token]:
    """Split source into tokens; trivia (whitespace, comments) is included."""
    if not source.isascii():
        line, column = 1, 1
        for ch in source:
            if not ch.isascii():
                raise LexError(line, column, f"non-ASCII character {ch!r}")
            if ch == "\n":
                line, column = line + 1, 1
            else:
                column += 1
    compiled = [(rule, re.compile(rule.pattern)) for rule in lexicon]

    tokens: list[Token] = []
    pos, line, column = 0, 1, 1
    while pos < len(source):
        best: tuple[tuple[int, int], LexRule, str] | None = None
        for rule, pattern in compiled:
            m = pattern.match(source, pos)
            if m is None or m.end() == pos:  # ignore empty matches
                continue
            key = (pos - m.end(), rule.priority)  # longest first, then priority
            if best is None or key < best[0]:
                best = (key, rule, m.group())
        if best is None:
            raise LexError(line, column, f"unexpected character {source[pos]!r}")
        _, rule, text = best
        tokens.append(Token(rule.name, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            column = len(text) - text.rfind("\n")
        else:
            column += len(text)
        pos += len(text)
    return tokens


# --- Prediction tables ------------------------------------------------
# Terminal selectors are ("lit", text) for literals, ("kind", name) for
# lexical references and ("eof",) for end of input.

def _selector(symbol: str) -> tuple:
    return ("kind", symbol[1:]) if symbol.startswith("#") else ("lit", symbol)


def _matches(selector: tuple, token: Token) -> bool:
    if selector[0] == "lit":
        return token.text == selector[1]
    if selector[0] == "kind":
        return token.kind == selector[1]
    return token.kind == EOF_KIND


class Grammar:
    """FIRST/FOLLOW tables over a language definition's productions."""

    def __init__(self, lang: LanguageDef):
        self.lang = lang
        self.productions: dict[str, list[Production]] = {}
        for group in lang.rule_groups.values():
            for production in group.productions:
                self.productions.setdefault(production.lhs, []).append(production)
        self.nullable: set[str] = set()
        self.first: dict[str, set[tuple]] = {nt: set() for nt in self.productions}
        self.follow: dict[str, set[tuple]] = {nt: set() for nt in self.productions}
        self._close()

    def _close(self) -> None:
        changed = True
        while changed:
            changed = False
            for nt, prods in self.productions.items():
                for p in prods:
                    firsts, nullable = self.seq_first(p.rhs)
                    if not firsts <= self.first[nt]:
                        self.first[nt] |= firsts
                        changed = True
                    if nullable and nt not in self.nullable:
                        self.nullable.add(nt)
                        changed = True
        start = self.lang.start_symbol
        if start in self.follow:
            self.follow[start].add(("eof",))
        changed = True
        while changed:
            changed = False
            for nt, prods in self.productions.items():
                for p in prods:
                    for i, symbol in enumerate(p.rhs):
                        if symbol_kind(symbol) != "nonterminal" or symbol not in self.follow:
                            continue
                        firsts, nullable = self.seq_first(p.rhs[i + 1:])
                        add = firsts | (self.follow[nt] if nullable else set())
                        if not add <= self.follow[symbol]:
                            self.follow[symbol] |= add
                            changed = True

    def seq_first(self, symbols: tuple[str, ...]) -> tuple[set[tuple], bool]:
        """FIRST selectors of a symbol sequence and whether it derives epsilon."""
        firsts: set[tuple] = set()
        for symbol in symbols:
            if symbol_kind(symbol) == "nonterminal":
                firsts |= self.first.get(symbol, set())
                if symbol not in self.nullable:
                    return firsts, False
            else:
                firsts.add(_selector(symbol))
                return firsts, False
        return firsts, True

    def predicts(self, suffix: tuple[str, ...], lhs: str, token: Token) -> bool:
        firsts, nullable = self.seq_first(suffix)
        if any(_matches(s, token) for s in firsts):
            return True
        return nullable and any(_matches(s, token) for s in self.follow.get(lhs, ()))

    def predict_selectors(self, suffix: tuple[str, ...], lhs: str) -> set[tuple]:
        firsts, nullable = self.seq_first(suffix)
        if nullable:
            firsts = firsts | self.follow.get(lhs, set())
        return firsts


# --- Parser -----------------------------------------------------------

def _describe(symbol: str) -> str:
    kind = symbol_kind(symbol)
    if kind == "token":
        return symbol[1:]
    if kind == "literal":
        return repr(symbol)
    return symbol


def _describe_token(token: Token) -> str:
    if token.kind == EOF_KIND:
        return "end of input"
    return f"{token.kind} {token.text!r}"


def _describe_selector(selector: tuple) -> str:
    if selector[0] == "lit":
        return repr(selector[1])
    if selector[0] == "kind":
        return selector[1]
    return "end of input"


class _Parser:
    def __init__(self, grammar: Grammar, tokens: list[Token]):
        self.grammar = grammar
        self.tokens = tokens
        self.pos = 0
        if tokens:
            last = tokens[-1]
            eof_line, eof_col = last.line, last.column + len(last.text)
        else:
            eof_line, eof_col = 1, 1
        self.eof = Token(EOF_KIND, "", eof_line, eof_col)

    def peek(self) -> Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eof

    def advance(self) -> Token:
        token = self.peek()
        self.pos += 1
        return token

    def parse_symbol(self, symbol: str):
        kind = symbol_kind(symbol)
        if kind == "nonterminal":
            return self.parse_nonterminal(symbol)
        token = self.peek()
        if not _matches(_selector(symbol), token):
            raise ParseError(
                token.line,
                token.column,
                f"expected {_describe(symbol)}, got {_describe_token(token)}",
                expected=(_describe(symbol),),
            )
        return self.advance()

    def parse_nonterminal(self, nt: str):
        candidates = list(self.grammar.productions.get(nt, ()))
        if not candidates:
            token = self.peek()
            raise ParseError(token.line, token.column, f"nonterminal {nt} has no productions")
        children: list = []
        first_token = self.peek()
        position = 0
        while True:
            token = self.peek()
            alive = [p for p in candidates if len(p.rhs) > position]
            selectable = [
                p for p in alive if self.grammar.predicts(p.rhs[position:], nt, token)
            ]
            if not selectable:
                complete = [p for p in candidates if len(p.rhs) == position]
                if complete:
                    return self._reduce(complete[0], children, first_token)
                selectors: set[tuple] = set()
                for p in alive:
                    selectors |= self.grammar.predict_selectors(p.rhs[position:], nt)
                expected = tuple(sorted(_describe_selector(s) for s in selectors))
                raise ParseError(
                    token.line,
                    token.column,
                    f"in {nt}: expected {' or '.join(expected)},"
                    f" got {_describe_token(token)}",
                    expected=expected,
                )
            symbols = {p.rhs[position] for p in selectable}
            if len(symbols) > 1:
                raise ParseError(
                    token.line,
                    token.column,
                    f"grammar is ambiguous in {nt} on {_describe_token(token)}:"
                    f" {' vs '.join(sorted(symbols))}",
                )
            children.append(self.parse_symbol(symbols.pop()))
            candidates = selectable
            position += 1

    def _reduce(self, production: Production, children: list, first_token: Token):
        handler = DEFAULT_HANDLERS.get(production.action_key)
        if handler is None:
            raise LookupError(
                f"no handler registered for action key {production.action_key!r}"
            )
        return handler(children, first_token)

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind != EOF_KIND:
            raise ParseError(
                token.line,
                token.column,
                f"expected end of input, got {_describe_token(token)}",
                expected=("end of input",),
            )


def parse(tokens: list[Token], lang: LanguageDef) -> ProgramAst:
    """Parse a token stream into a program tree under the given definition."""
    significant = [t for t in tokens if t.kind not in TRIVIA]
    parser = _Parser(Grammar(lang), significant)
    result = parser.parse_nonterminal(lang.start_symbol)
    parser.expect_eof()
    return result


def parse_source(source: str, lang: LanguageDef) -> ProgramAst:
    return parse(tokenize(source, lang.lexicon), lang)


# --- Tree-building handlers -------------------------------------------
# Each handler receives the child values of one production (tokens for
# terminals, built values for nonterminals) plus the production's first token.

def _require_positive(token: Token, what: str) -> int:
    value = int(token.text)
    if value < 1:
        raise ParseError(token.line, token.column, f"{what} must be >= 1, got {value}")
    return value


def _h_program(c, t):
    return ProgramAst(tuple(c[0]), tuple(c[1]), tuple(c[2]))


def _h_agent(c, t):
    kind, source = c[1]
    return AgentDecl(_require_positive(c[0], "agent id"), kind, source,
                     line=c[0].line, column=c[0].column)


def _h_dec_plain(c, t):
    return VarDecl(c[1].text, "plain", value=int(c[3].text), line=t.line, column=t.column)


def _h_dec_dynamic(c, t):
    return VarDecl(c[1].text, "dynamic", line=t.line, column=t.column)


def _h_dec_categorized(c, t):
    arms = tuple(c[4])
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
                          tuple(c[10]), line=t.line, column=t.column)


DEFAULT_HANDLERS: dict = {
    "program": _h_program,
    "agents_cons": lambda c, t: [c[0]] + c[1],
    "agents_nil": lambda c, t: [],
    "agent": _h_agent,
    "agent_manual": lambda c, t: ("manual", c[1].text[1:-1]),
    "agent_auto": lambda c, t: ("auto", c[1].text),
    "decs_cons": lambda c, t: [c[0]] + c[1],
    "decs_nil": lambda c, t: [],
    "dec_plain": _h_dec_plain,
    "dec_dynamic": _h_dec_dynamic,
    "dec_categorized": _h_dec_categorized,
    "places_cons": lambda c, t: [c[0]] + c[1],
    "places_nil": lambda c, t: [],
    "place": _h_place,
    "stmts_cons": lambda c, t: [c[0]] + c[1],
    "stmts_single": lambda c, t: [c[0]],
    "stmt_upd": lambda c, t: Statement(c[1], "upd", c[5].text, line=t.line, column=t.column),
    "stmt_dec": lambda c, t: Statement(c[1], "dec", c[5].text, line=t.line, column=t.column),
    "pred_true": lambda c, t: Predicate("true"),
    "pred_equals": lambda c, t: Predicate("equals", var=c[0].text, value=int(c[2].text)),
    "ctgrs_cons": lambda c, t: [(int(c[3].text), int(c[6].text))] + c[8],
    "ctgrs_single": lambda c, t: [(int(c[3].text), int(c[6].text))],
}


# --- Pretty printer ---------------------------------------------------

def pretty(ast: ProgramAst) -> str:
    """Canonical source text for a program tree; reparsing it round-trips."""
    lines: list[str] = []
    for agent in ast.agents:
        source = f'manual "{agent.source}"' if agent.kind == "manual" else f"auto {agent.source}"
        lines.append(f"{agent.id} {source};")
    for decl in ast.decls:
        if decl.kind == "plain":
            lines.append(f"var {decl.name} := {decl.value};")
        elif decl.kind == "dynamic":
            lines.append(f"dynamicvar {decl.name};")
        else:
            arms = ", ".join(f"(category=={c}) -> {v}" for c, v in decl.arms)
            lines.append(f"var {decl.name} := {{ {arms} }};")
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
