"""``run`` and ``results`` against the benchmark's reference evaluator.

Each seed draws a program from ``perfbench/gen.py``'s model, in either dialect, a roster
written by ``csv.writer`` and one to three event files, then checks what the commands
wrote against ``perfbench/ref.py``, which evaluates the model and never imports this
package.  The empty roster is left to ``test_cli``: ``ref`` writes no ``results.csv``
for it, where the README promises a header-only one.
"""

from __future__ import annotations

import csv
import random

import pytest

from conftest import perfbench_reference
from easytime.cli import main

gen, ref = perfbench_reference()

GROUPINGS = (None, "category", "gender", "category-gender")


def _race(rng: random.Random, dialect: str):
    """A program model, its roster rows and its event files, each a list of
    ``(mp, rfid, ts, payload)`` in file order."""
    program = gen.random_program(rng, dialect, rng.randint(1, 6), rng.randint(3, 12))
    armed = sorted({c for decl in program.decls for c, _ in decl.arms})
    # categories with an arm in some variable, and two that have none in any
    categories = armed[:3] + [0, 1]
    rows = gen.roster(rng, rng.randint(1, 12), categories, "R")
    quoted = rng.sample(range(len(rows)), min(2, len(rows)))
    for index, last_name in zip(quoted, ("Novak, Jr", 'O"Hara')):
        row = rows[index]
        rows[index] = gen.RosterRow(row.id, row.rfid, last_name, row.first_name,
                                    row.gender, row.category)
    rfids = [row.rfid for row in rows] + ["STRAY01"]
    mps = [mp for mp, _, _ in program.places]
    files = [[(rng.choice(mps), rng.choice(rfids), rng.randrange(20),
               rng.randrange(12) if rng.random() < 0.3 else None)
              for _ in range(rng.randint(0, 12))]
             for _ in range(rng.randint(1, 3))]
    if len(files) > 1:  # one runner's events at the same time in two files
        tie = (rng.choice(mps), rows[0].rfid, rng.randrange(20))
        for events in rng.sample(files, 2):
            events.insert(rng.randint(0, len(events)), (*tie, None))
    return program, rows, files


def _written(out):
    return {path.name: path.read_bytes() for path in sorted(out.glob("results*.csv"))}


@pytest.mark.parametrize("seed", range(60))
def test_run_and_results_agree_with_the_reference_evaluator(seed, tmp_path, capsys):
    rng = random.Random(seed)
    dialect = rng.choice(("easytime", "easytime++"))
    program, rows, files = _race(rng, dialect)
    rank = rng.choice((None, *program.var_names()))
    group = rng.choice(GROUPINGS)

    (tmp_path / "race.ez").write_text(gen.render(program), "ascii")
    with open(tmp_path / "roster.csv", "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "rfid", "last_name", "first_name", "gender", "category"))
        writer.writerows((r.id, r.rfid, r.last_name, r.first_name, r.gender, r.category)
                         for r in rows)
    names = []
    for number, events in enumerate(files):
        names.append(tmp_path / f"events{number}.log")
        names[-1].write_text("".join(gen.event_line(e) + "\n" for e in events), "ascii")
    options = ["--dialect", dialect, "--runners", tmp_path / "roster.csv"]
    options += [*(["--rank", rank] if rank else []), *(["--group", group] if group else [])]

    capsys.readouterr()
    assert main(list(map(str, ["run", tmp_path / "race.ez", *options, "--events", *names,
                               "--out", tmp_path / "run"]))) == 0
    stderr = capsys.readouterr().err
    ordered = ref.sorted_events(files)
    expected = ref.tables(program, rows, ref.evaluate(program, rows, ordered), rank, group)
    assert ref.table_mismatches(expected, ref.read_tables(tmp_path / "run")) == 0
    assert (tmp_path / "run" / "journal.log").read_text("ascii") \
        == "".join(gen.event_line(e) + "\n" for e in ordered)
    no_arm = sum(decl.kind == "categorized" and row.category not in dict(decl.arms)
                 for row in rows for decl in program.decls)
    assert stderr.count("warning: ") == no_arm

    assert main(list(map(str, ["results", tmp_path / "race.ez", *options, "--journal",
                               tmp_path / "run" / "journal.log", "--out",
                               tmp_path / "results"]))) == 0
    assert _written(tmp_path / "results") == _written(tmp_path / "run")
