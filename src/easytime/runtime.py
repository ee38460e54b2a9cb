"""Event-driven execution of compiled programs over a competitor roster.

Each runner's program variables start from the static state and the runner's
category; the runners of one category share one read-only dict of them.  A
crossing event selects a measuring place and runs its guarded statements in
source order on a copy of that runner's variables, which replaces their entry;
guards see updates made earlier in the same event.  ``run_statements`` is that
step, and ``place_statements`` the rule that refuses an event aimed at a place
the program lacks.  ``step_events`` is the one ingestion core: it steps events
in place on a race its caller owns, as ``run`` and ``results`` do with the race
``init_race`` built.  ``replay`` folds it over a copy of the race, keeping a log,
and never mutates the old state; ``apply_event`` is its one-event case.
``serve`` checks each event's place before journaling it, then steps it.
``race_results`` makes the result tables from ``_groups`` and ``_ranked_groups``, the
one rule for how runners are grouped and ordered, which the CLI's export shares.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import compress
from operator import attrgetter

from .frontend import Predicate, ProgramAst, Statement
from .semantics import CategoryMap

GENDERS = ("female", "male")

RunnerVars = dict[str, "int | None"]


class InputError(Exception):
    """Refused input; ``reason``, the message unless given, follows ``ERR `` on the wire."""

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = message if reason is None else reason


class DuplicateRfidError(InputError):
    pass


class DuplicateRunnerIdError(InputError):
    pass


class UnknownMeasuringPlaceError(InputError):
    def __init__(self, mp_id: int, index: int):
        super().__init__(f"event {index}: no measuring place {mp_id} in program",
                         f"no measuring place {mp_id}")
        self.mp_id = mp_id
        self.index = index


class UnknownVariableError(Exception):
    pass


# Runners, events and the records below are named tuples: cheap to build by the
# ten thousand, immutable, and equal to plain tuples of the same fields.
# ``gender`` is an element of GENDERS.
Runner = namedtuple("Runner", "id rfid last_name first_name gender category")
Event = namedtuple("Event", "mp_id rfid timestamp_ms payload", defaults=(None,))
Event.__doc__ = "One crossing or device reading."
_event_order = attrgetter("timestamp_ms")  # the order events apply in; ties stay as read

RaceWarning = namedtuple("RaceWarning", "rfid variable message")
LogEntry = namedtuple("LogEntry", "event fired matched")  # fired: the statements that ran

# var_names are the program variables in declaration order; per_runner is keyed by
# rfid, and its values are read-only and may be shared
RaceState = namedtuple("RaceState", "roster var_names per_runner log warnings",
                       defaults=((), ()))

# label is the group's label, "" for the single ungrouped table
ResultTable = namedtuple("ResultTable", "label columns rows rank_var", defaults=(None,))


def init_race(env: dict[str, CategoryMap], roster: list[Runner] | tuple[Runner, ...]) -> RaceState:
    """Instantiate per-runner variables from the static state ``env``.

    Each variable starts at its category map's value at the runner's category:
    the map's arm for it, else its default, so dynamic variables start undefined.
    A variable with arms but none for a runner's category is reported as a warning.
    The values are worked out once per category and shared by its runners.
    Raises DuplicateRfidError or DuplicateRunnerIdError if an rfid or a
    runner id appears twice in the roster.  The roster is mapped and checked
    by column; its rows are walked again only to name the first duplicate.
    """
    roster = tuple(roster)
    rfid_of, id_of, category_of = attrgetter("rfid"), attrgetter("id"), attrgetter("category")
    starting = {category: {name: values.lookup(category) for name, values in env.items()}
                for category in set(map(category_of, roster))}
    per_runner: dict[str, RunnerVars] = dict(
        zip(map(rfid_of, roster), map(starting.__getitem__, map(category_of, roster))))
    if len(per_runner) < len(roster) or len(set(map(id_of, roster))) < len(roster):
        _raise_first_duplicate(roster)
    missing = {category: names for category in starting
               if (names := [name for name, values in env.items()
                             if values.arms and category not in values.arms])}
    warnings = tuple(
        RaceWarning(runner.rfid, name,
                    f"runner {runner.id} ({runner.rfid}): no value for"
                    f" category {runner.category} in {name}")
        for runner in compress(roster, map(missing.__contains__, map(category_of, roster)))
        for name in missing[runner.category])
    return RaceState(roster, tuple(env), per_runner, warnings=warnings)


def _raise_first_duplicate(roster: tuple[Runner, ...]) -> None:
    """Raise the error for the first runner whose rfid or id an earlier one has."""
    seen_rfids: set[str] = set()
    seen_ids: set[int] = set()
    for runner in roster:
        if runner.rfid in seen_rfids:
            raise DuplicateRfidError(f"rfid {runner.rfid} appears twice in roster")
        if runner.id in seen_ids:
            raise DuplicateRunnerIdError(f"runner id {runner.id} appears twice in roster")
        seen_rfids.add(runner.rfid)
        seen_ids.add(runner.id)


def eval_predicate(pred: Predicate, variables: RunnerVars) -> bool:
    """Guard evaluation; an undefined variable compares unequal to any literal."""
    if pred.kind == "true":
        return True
    value = variables.get(pred.var)
    return value is not None and value == pred.value


def apply_event(race: RaceState, ast: ProgramAst, event: Event) -> RaceState:
    """``replay`` of one event; it copies ``race.per_runner`` and ``race.log``, so callers
    that own their race step it with ``step_events`` instead."""
    return replay(race, ast, (event,))


def place_statements(ast: ProgramAst):
    """The unknown-place rule: a function from an event and its index to the statements
    of its measuring place in ``ast``, which raises UnknownMeasuringPlaceError naming
    the index for a place ``ast`` lacks."""
    stmts_at = {place.mp_id: place.stmts for place in ast.places}

    def statements(event: Event, index: int = 0):
        if (stmts := stmts_at.get(event.mp_id)) is None:
            raise UnknownMeasuringPlaceError(event.mp_id, index)
        return stmts
    return statements


def run_statements(stmts, per_runner: dict[str, RunnerVars], event: Event, warnings: list):
    """Run ``event``'s place's ``stmts`` in order on its runner's variables in ``per_runner``.

    An updated copy replaces the runner's entry; the old dict may be shared and is
    never written to.  Returns the statements that fired, or None for an rfid not
    in ``per_runner``; a skipped ``dec`` appends to ``warnings``.
    """
    if (variables := per_runner.get(event.rfid)) is None:
        return None
    variables = per_runner[event.rfid] = dict(variables)
    reading = event.timestamp_ms if event.payload is None else event.payload
    fired: list[Statement] = []
    for stmt in stmts:
        if not eval_predicate(stmt.pred, variables):
            continue
        if stmt.instr == "upd":
            variables[stmt.target] = reading
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
    return tuple(fired)


def step_events(race: RaceState, ast: ProgramAst, events, warnings: list):
    """Step ``events``, in the order given, in place on ``race``, which the caller owns.

    A generator: each event is stepped as it is asked for, through ``run_statements``
    on ``race.per_runner``, and yielded with what that returned, so a caller that keeps
    nothing holds no record per event.  A skipped ``dec`` appends to ``warnings``.
    Raises UnknownMeasuringPlaceError at the first event aimed at a missing place,
    leaving the events before it stepped.
    """
    statements = place_statements(ast)
    per_runner = race.per_runner
    for index, event in enumerate(events):
        yield event, run_statements(statements(event, index), per_runner, event, warnings)


def replay(race: RaceState, ast: ProgramAst, events) -> RaceState:
    """Run each event, in the order given, through its measuring place's statements.

    The fold of ``step_events`` over a copy of ``race.per_runner``, logging each
    event; events for rfids not on the roster are logged as unmatched and change
    nothing else.  ``race`` is not mutated, and an event's cost grows with neither
    the roster nor the log.  Raises UnknownMeasuringPlaceError naming the first
    event aimed at a missing place.
    """
    stepped = race._replace(per_runner=dict(race.per_runner))
    warnings: list[RaceWarning] = []
    log = tuple(LogEntry(event, fired or (), matched=fired is not None)
                for event, fired in step_events(stepped, ast, events, warnings))
    return stepped._replace(log=race.log + log, warnings=race.warnings + tuple(warnings))


def check_rank_var(var_names: tuple[str, ...], rank_var: str | None) -> None:
    """Raise UnknownVariableError unless ``rank_var`` is None or a program variable."""
    if rank_var is not None and rank_var not in var_names:
        raise UnknownVariableError(f"no program variable named {rank_var}")


RUNNER_COLUMNS = ("rank", "id", "last_name", "first_name", "gender", "category")

# grouping -> (a runner's group key, the group's label from its key); keys sort the tables
_GROUP_BY = {
    None: (lambda runner: "", str),
    "category": (attrgetter("category"), "cat{}".format),
    "gender": (attrgetter("gender"), str),
    "category-gender": (attrgetter("category", "gender"), lambda key: "cat{}_{}".format(*key)),
}
GROUPINGS = tuple(name for name in _GROUP_BY if name is not None)


def _groups(race: RaceState, rank_var: str | None, group_by: str | None):
    """Each group's label and its runners in roster order, in the order of
    ``race_results``; ungrouped, there is one group even with no runners.  ``rank_var``
    and ``group_by`` are checked first."""
    check_rank_var(race.var_names, rank_var)
    if group_by is not None and group_by not in GROUPINGS:
        raise ValueError(f"unknown grouping {group_by!r}")
    key_of, label_of = _GROUP_BY[group_by]
    groups: defaultdict[object, list[Runner]] = defaultdict(list)
    if group_by is None:
        groups[""] = []
    for runner in race.roster:
        groups[key_of(runner)].append(runner)
    return [(label_of(key), groups[key]) for key in sorted(groups)]


def _ranked_groups(per_runner: dict[str, RunnerVars], groups, rank_var: str | None):
    """A generator of the label of each of ``groups`` (from ``_groups``), its runners in
    result order, and how many of them are ranked: those with a defined ``rank_var``, by
    (value, id), then the others by id.  A ranked runner's place is their position in
    the group, counted from 1.

    Each group is ordered from ``per_runner`` as it is asked for, so the race must not
    be stepped until the generator is used up; ``serve`` exports inside its sink, on
    its main thread, between events.
    """
    for label, runners in groups:
        ranked, unranked = [], []
        if rank_var is None:
            unranked = runners
        else:
            for runner in runners:
                if (value := per_runner[runner.rfid][rank_var]) is None:
                    unranked.append(runner)
                else:
                    ranked.append((value, runner.id, runner))
        ranked.sort()
        unranked.sort()  # ids are unique, so runners compare by id alone
        yield label, [runner for _, _, runner in ranked] + unranked, len(ranked)


def race_results(
    race: RaceState,
    rank_var: str | None = None,
    group_by: str | None = None,
) -> list[ResultTable]:
    """Result tables, one per group, in the sorted order of the group keys.

    ``group_by`` is None or one of ``GROUPINGS``; ungrouped, there is one table, with
    no rows for an empty roster.  Rows sort ascending by ``rank_var`` with undefined
    values last and runner id as tie-break; rank numbers are assigned only to rows
    with a defined rank value.  Without ``rank_var`` rows are in runner-id order and
    unranked.
    """
    names = race.var_names
    per_runner = race.per_runner
    tables = []
    for label, runners, ranked in _ranked_groups(
            per_runner, _groups(race, rank_var, group_by), rank_var):
        rows = tuple((place if place <= ranked else None, runner.id, runner.last_name,
                      runner.first_name, runner.gender, runner.category)
                     + tuple(map(per_runner[runner.rfid].__getitem__, names))
                     for place, runner in enumerate(runners, 1))
        tables.append(ResultTable(label, RUNNER_COLUMNS + names, rows, rank_var))
    return tables
