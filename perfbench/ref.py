"""Reference evaluator: the README's semantics, written from scratch.

It runs the generator's program model (``gen.Program``), never the system's
parser or runtime, so an agreement between the two is evidence and not a
tautology.  Rules it implements:

* a runner's variables start at the declared value, the arm for their
  category (undefined if there is none) or undefined for ``dynamicvar``;
* events apply in timestamp order, ties in input order; unknown rfids change
  nothing; statements run in source order and each guard sees the earlier
  updates of the same event; ``VAR == n`` is false while VAR is undefined;
  ``upd`` writes the payload if there is one, else the timestamp; ``dec`` of
  an undefined variable is skipped;
* rows sort by the rank variable, undefined last, runner id as tie-break;
  only defined rank values get a rank number; undefined cells are empty.
"""

from __future__ import annotations

import csv
from pathlib import Path

from gen import Program, RosterRow


def initial_vars(program: Program, row: RosterRow) -> dict:
    values = {}
    for decl in program.decls:
        if decl.kind == "plain":
            values[decl.name] = decl.value
        elif decl.kind == "categorized":
            values[decl.name] = dict(decl.arms).get(row.category)
        else:
            values[decl.name] = None
    return values


def evaluate(program: Program, rows: list[RosterRow], events) -> dict[str, dict]:
    """Per-rfid variables after applying ``events`` (already in apply order)."""
    state = {row.rfid: initial_vars(program, row) for row in rows}
    places = {mp: stmts for mp, _, stmts in program.places}
    for mp, rfid, ts, payload in events:
        values = state.get(rfid)
        if values is None:
            continue
        for stmt in places[mp]:
            if stmt.pred is not None and values[stmt.pred[0]] != stmt.pred[1]:
                continue
            if stmt.instr == "upd":
                values[stmt.target] = ts if payload is None else payload
            elif values[stmt.target] is not None:
                values[stmt.target] -= 1
    return state


def sorted_events(files) -> list[tuple]:
    """Concatenate files in order, then a stable sort by timestamp."""
    merged = [event for events in files for event in events]
    merged.sort(key=lambda e: e[2])
    return merged


def group_key(row: RosterRow, group: str | None) -> tuple[tuple, str]:
    if group == "category":
        return (row.category,), f"cat{row.category}"
    if group == "gender":
        return (row.gender,), row.gender
    if group == "category-gender":
        return (row.category, row.gender), f"cat{row.category}_{row.gender}"
    return (), ""


def tables(program: Program, rows: list[RosterRow], state: dict, rank: str | None,
           group: str | None) -> dict[str, list[list[str]]]:
    """Expected CSV content per file name, header row first, cells as text."""
    names = program.var_names()
    header = ["rank", "id", "last_name", "first_name", "gender", "category", *names]
    groups: dict[tuple, tuple[str, list[RosterRow]]] = {}
    for row in rows:
        key, label = group_key(row, group)
        groups.setdefault(key, (label, []))[1].append(row)
    out = {}
    for key in sorted(groups):
        label, members = groups[key]
        if rank is None:
            members = sorted(members, key=lambda r: r.id)
        else:
            members = sorted(members, key=lambda r: (state[r.rfid][rank] is None,
                                                     state[r.rfid][rank] or 0, r.id))
        lines = [header]
        n = 0
        for row in members:
            values = state[row.rfid]
            cell = ""
            if rank is not None and values[rank] is not None:
                n += 1
                cell = str(n)
            lines.append([cell, str(row.id), row.last_name, row.first_name, row.gender,
                          str(row.category)] + ["" if values[v] is None else str(values[v])
                                                for v in names])
        out[f"results_{label}.csv" if label else "results.csv"] = lines
    return out


def read_tables(out_dir: Path) -> dict[str, list[list[str]]]:
    found = {}
    for path in sorted(out_dir.glob("results*.csv")):
        with open(path, newline="", encoding="ascii") as handle:
            found[path.name] = list(csv.reader(handle))
    return found


def table_mismatches(expected: dict, found: dict) -> int:
    """Rows (and files) that differ; 0 means the tables are identical."""
    bad = len(set(expected) ^ set(found))
    for name in set(expected) & set(found):
        exp, got = expected[name], found[name]
        bad += abs(len(exp) - len(got)) + sum(a != b for a, b in zip(exp, got))
    return bad


def rows_by_id(tables_: dict) -> dict[str, list[str]]:
    """Data rows of all files keyed by runner id (column 1)."""
    return {line[1]: line for lines in tables_.values() for line in lines[1:]}
