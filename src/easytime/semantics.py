"""Static meaning of declarations and whole-program checks.

A program's declarations denote its static state: a dict from each variable
name, in declaration order, to a ``CategoryMap``, a category-to-integer map made
of its arms and a default.  Every declaration means its arms plus its value,
whatever its form: the front end alone names the forms, so a fragment that adds
one adds nothing here.  A map with neither is undefined in every category until
run time gives each runner its value.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import ERROR, WARNING, Diagnostic, sort_diagnostics
from .frontend import ProgramAst, VarDecl


class CategoryMap(namedtuple("CategoryMap", "arms default")):
    """Total function from category to integer-or-undefined: ``arms``, else ``default``."""

    __slots__ = ()

    def lookup(self, category: int) -> int | None:
        return self.arms.get(category, self.default)


class DuplicateDeclarationError(Exception):
    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"{line}:{column}: variable {name} declared twice")
        self.name = name
        self.line = line
        self.column = column


def decl_meaning(decl: VarDecl, env: dict[str, CategoryMap]) -> dict[str, CategoryMap]:
    """A new dict, ``env`` with ``decl`` bound; rebinding a name is an error."""
    return {**env, decl.name: _meta(decl, env)}


def _meta(decl: VarDecl, env: dict[str, CategoryMap]) -> CategoryMap:
    """What ``decl`` binds its name to, given the bindings ``env`` before it."""
    if decl.name in env:
        raise DuplicateDeclarationError(decl.name, decl.line, decl.column)
    return CategoryMap(dict(decl.arms or ()), decl.value)


def decl_sequence(decls, env: dict[str, CategoryMap]) -> dict[str, CategoryMap]:
    """decl_meaning folded from ``env``, copied once: later declarations see earlier ones."""
    env = dict(env)
    for decl in decls:
        env[decl.name] = _meta(decl, env)
    return env


def analyze(ast: ProgramAst) -> tuple[dict[str, CategoryMap], list[Diagnostic]]:
    """The program's static state, from each name's first declaration, and its diagnostics."""
    diags: list[Diagnostic] = []

    # decl_sequence's binding, but a repeated name is reported and the rest still bound
    env: dict[str, CategoryMap] = {}
    bound = []  # the declarations that bound a name: the first of each
    for decl in ast.decls:
        try:
            env[decl.name] = _meta(decl, env)
        except DuplicateDeclarationError as exc:
            diags.append(Diagnostic(ERROR, "DuplicateDeclaration",
                                    f"variable {exc.name} declared twice",
                                    exc.line, exc.column))
        else:
            bound.append(decl)

    agent_ids: set[int] = set()
    for agent in ast.agents:
        if agent.id in agent_ids:
            diags.append(Diagnostic(ERROR, "DuplicateAgent",
                                    f"agent {agent.id} declared twice",
                                    agent.line, agent.column))
        agent_ids.add(agent.id)

    mp_ids: set[int] = set()
    referenced: set[str] = set()
    for place in ast.places:
        if place.mp_id in mp_ids:
            diags.append(Diagnostic(ERROR, "DuplicateMeasuringPlace",
                                    f"measuring place {place.mp_id} declared twice",
                                    place.line, place.column))
        mp_ids.add(place.mp_id)
        if place.agent_id not in agent_ids:
            diags.append(Diagnostic(ERROR, "UnknownAgent",
                                    f"mp[{place.mp_id}] references undeclared"
                                    f" agent {place.agent_id}",
                                    place.line, place.column))
        for stmt in place.stmts:
            referenced.add(stmt.target)
            if stmt.target not in env:
                diags.append(Diagnostic(ERROR, "UndeclaredVariable",
                                        f"{stmt.instr} targets undeclared"
                                        f" variable {stmt.target}",
                                        stmt.line, stmt.column))
            if stmt.pred.kind == "equals":
                referenced.add(stmt.pred.var)
                if stmt.pred.var not in env:
                    diags.append(Diagnostic(ERROR, "UndeclaredVariable",
                                            f"predicate tests undeclared"
                                            f" variable {stmt.pred.var}",
                                            stmt.line, stmt.column))

    for decl in bound:
        if decl.name not in referenced:
            diags.append(Diagnostic(WARNING, "UnusedVariable",
                                    f"variable {decl.name} is never used",
                                    decl.line, decl.column))

    return env, sort_diagnostics(diags)
