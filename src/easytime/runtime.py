"""Event-driven execution of compiled programs over a competitor roster.

Each runner carries their own copy of the program variables, initialized
from the static state and the runner's category.  A crossing event selects a
measuring place and runs its guarded statements in source order against that
runner's variables; guards see updates made earlier in the same event.
State transitions are functional: applying an event returns a new race state
and never mutates the old one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .frontend import Predicate, ProgramAst, Statement
from .semantics import ARMS, StaticState

GENDERS = ("female", "male")
GROUPINGS = ("category", "gender", "category-gender")

RunnerVars = dict[str, "int | None"]


class DuplicateRfidError(Exception):
    pass


class DuplicateRunnerIdError(Exception):
    pass


class UnknownMeasuringPlaceError(Exception):
    def __init__(self, mp_id: int, index: int | None = None):
        at = f"event {index}: " if index is not None else ""
        super().__init__(f"{at}no measuring place {mp_id} in program")
        self.mp_id = mp_id
        self.index = index


class UnknownVariableError(Exception):
    pass


@dataclass(frozen=True)
class Runner:
    id: int
    rfid: str
    last_name: str
    first_name: str
    gender: str  # "female" or "male"
    category: int


@dataclass(frozen=True)
class Event:
    """One crossing or device reading."""

    mp_id: int
    rfid: str
    timestamp_ms: int
    payload: int | None = None


@dataclass(frozen=True)
class RaceWarning:
    rfid: str
    variable: str
    message: str


@dataclass(frozen=True)
class LogEntry:
    event: Event
    fired: tuple[Statement, ...]
    matched: bool


@dataclass(frozen=True)
class RaceState:
    roster: tuple[Runner, ...]
    var_names: tuple[str, ...]  # program variables in declaration order
    per_runner: dict[str, RunnerVars]  # keyed by rfid
    log: tuple[LogEntry, ...] = ()
    warnings: tuple[RaceWarning, ...] = ()


@dataclass(frozen=True)
class ResultTable:
    label: str  # group label, "" for the single ungrouped table
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    rank_var: str | None = None


def init_race(state: StaticState, roster: list[Runner] | tuple[Runner, ...]) -> RaceState:
    """Instantiate per-runner variables from the static state.

    Dynamic variables start undefined; other variables take their category
    map's value at the runner's category.  A categorized variable with no arm
    for a runner's category starts undefined and is reported as a warning.
    Raises DuplicateRfidError or DuplicateRunnerIdError if an rfid or a
    runner id appears twice in the roster.
    """
    seen_rfids: set[str] = set()
    seen_ids: set[int] = set()
    for runner in roster:
        if runner.rfid in seen_rfids:
            raise DuplicateRfidError(f"rfid {runner.rfid} appears twice in roster")
        if runner.id in seen_ids:
            raise DuplicateRunnerIdError(f"runner id {runner.id} appears twice in roster")
        seen_rfids.add(runner.rfid)
        seen_ids.add(runner.id)

    warnings: list[RaceWarning] = []
    per_runner: dict[str, RunnerVars] = {}
    for runner in roster:
        variables: RunnerVars = {}
        for name, meta in state.env.items():
            if meta.is_dynamic:
                variables[name] = None
                continue
            value = meta.values.lookup(runner.category)
            if value is None and meta.values.kind == ARMS:
                warnings.append(RaceWarning(
                    runner.rfid, name,
                    f"runner {runner.id} ({runner.rfid}): no value for"
                    f" category {runner.category} in {name}"))
            variables[name] = value
        per_runner[runner.rfid] = variables

    return RaceState(tuple(roster), state.names(), per_runner, warnings=tuple(warnings))


def eval_predicate(pred: Predicate, variables: RunnerVars) -> bool:
    """Guard evaluation; an undefined variable compares unequal to any literal."""
    if pred.kind == "true":
        return True
    value = variables.get(pred.var)
    return value is not None and value == pred.value


def apply_event(race: RaceState, ast: ProgramAst, event: Event) -> RaceState:
    """Run one event through its measuring place's statements.

    Events for rfids not on the roster are logged as unmatched and change
    nothing else.  Statements execute strictly in source order and each guard
    sees the effect of earlier statements from the same event.
    """
    place = next((p for p in ast.places if p.mp_id == event.mp_id), None)
    if place is None:
        raise UnknownMeasuringPlaceError(event.mp_id)

    if event.rfid not in race.per_runner:
        entry = LogEntry(event, (), matched=False)
        return replace(race, log=race.log + (entry,))

    variables = dict(race.per_runner[event.rfid])
    fired: list[Statement] = []
    warnings: list[RaceWarning] = []
    for stmt in place.stmts:
        if not eval_predicate(stmt.pred, variables):
            continue
        if stmt.instr == "upd":
            variables[stmt.target] = (
                event.payload if event.payload is not None else event.timestamp_ms
            )
        else:  # dec
            current = variables[stmt.target]
            if current is None:
                warnings.append(RaceWarning(
                    event.rfid, stmt.target,
                    f"dec {stmt.target} skipped: undefined at mp[{event.mp_id}]"
                    f" t={event.timestamp_ms}"))
                continue
            variables[stmt.target] = current - 1
        fired.append(stmt)

    per_runner = dict(race.per_runner)
    per_runner[event.rfid] = variables
    return replace(
        race,
        per_runner=per_runner,
        log=race.log + (LogEntry(event, tuple(fired), matched=True),),
        warnings=race.warnings + tuple(warnings),
    )


def replay(race: RaceState, ast: ProgramAst, events) -> RaceState:
    """Left fold of apply_event over timestamp-ordered events."""
    for index, event in enumerate(events):
        try:
            race = apply_event(race, ast, event)
        except UnknownMeasuringPlaceError as exc:
            raise UnknownMeasuringPlaceError(exc.mp_id, index=index) from None
    return race


def check_rank_var(var_names: tuple[str, ...], rank_var: str | None) -> None:
    """Raise UnknownVariableError unless ``rank_var`` is None or a program variable."""
    if rank_var is not None and rank_var not in var_names:
        raise UnknownVariableError(f"no program variable named {rank_var}")


RUNNER_COLUMNS = ("rank", "id", "last_name", "first_name", "gender", "category")


def race_results(
    race: RaceState,
    rank_var: str | None = None,
    group_by: str | None = None,
) -> list[ResultTable]:
    """Result tables, one per group.

    ``group_by`` is None or one of ``GROUPINGS``.  Rows sort ascending by
    ``rank_var`` with undefined values last and runner id as tie-break; rank
    numbers are assigned only to rows with a defined rank value.  Without
    ``rank_var`` rows are in runner-id order and unranked.
    """
    check_rank_var(race.var_names, rank_var)
    if group_by is not None and group_by not in GROUPINGS:
        raise ValueError(f"unknown grouping {group_by!r}")

    groups: dict[tuple, tuple[str, list[Runner]]] = {}
    for runner in race.roster:
        if group_by == "category":
            key, label = (runner.category,), f"cat{runner.category}"
        elif group_by == "gender":
            key, label = (runner.gender,), runner.gender
        elif group_by == "category-gender":
            key = (runner.category, runner.gender)
            label = f"cat{runner.category}_{runner.gender}"
        else:
            key, label = (), ""
        groups.setdefault(key, (label, []))[1].append(runner)

    columns = RUNNER_COLUMNS + race.var_names
    tables: list[ResultTable] = []
    for key in sorted(groups):
        label, members = groups[key]
        if rank_var is None:
            ordered = sorted(members, key=lambda r: r.id)
        else:
            ordered = sorted(
                members,
                key=lambda r: (
                    race.per_runner[r.rfid][rank_var] is None,
                    race.per_runner[r.rfid][rank_var] or 0,
                    r.id,
                ),
            )
        rows = []
        rank = 0
        for runner in ordered:
            variables = race.per_runner[runner.rfid]
            if rank_var is not None and variables[rank_var] is not None:
                rank += 1
                rank_cell: int | None = rank
            else:
                rank_cell = None
            rows.append((rank_cell, runner.id, runner.last_name, runner.first_name,
                         runner.gender, runner.category)
                        + tuple(variables[name] for name in race.var_names))
        tables.append(ResultTable(label, columns, tuple(rows), rank_var))
    return tables
