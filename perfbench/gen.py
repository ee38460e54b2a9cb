"""Seeded generators for synthetic races and programs.

A program is generated as a model first (plain tuples and dicts) and only
then rendered to EasyTime source, so the reference evaluator in ``ref.py``
can run it without going through the system under test.  Every generator
takes a ``random.Random`` built from the benchmark seed: the same seed gives
byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GENDERS = ("female", "male")
LAST_NAMES = ("Novak", "Horvat", "Kovac", "Zupan", "Krajnc", "Potocnik", "Mlakar",
              "Vidmar", "Golob", "Turk", "Bozic", "Kos", "Hribar", "Korosec")
FIRST_NAMES = ("Ana", "Ivo", "Maja", "Luka", "Nina", "Jan", "Eva", "Tim", "Sara",
               "Zan", "Lea", "Nik", "Pia", "Rok")


@dataclass(frozen=True)
class Stmt:
    pred: tuple | None  # None for (true), else (VAR, value)
    instr: str  # "upd" or "dec"
    target: str


@dataclass(frozen=True)
class Decl:
    name: str
    kind: str  # "plain", "categorized" or "dynamic"
    value: int | None = None
    arms: tuple[tuple[int, int], ...] = ()


@dataclass
class Program:
    """The model a program is rendered from; ``ref.py`` evaluates this."""

    dialect: str  # "easytime" or "easytime++"
    agents: list[tuple[int, str, str]]  # (id, "manual"/"auto", source)
    decls: list[Decl]
    places: list[tuple[int, int, list[Stmt]]]  # (mp_id, agent_id, stmts)
    unused: list[str] = field(default_factory=list)  # declared, never referenced

    def var_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)


@dataclass(frozen=True)
class RosterRow:
    id: int
    rfid: str
    last_name: str
    first_name: str
    gender: str
    category: int


def render(program: Program) -> str:
    """EasyTime source for a program model.

    Every third line gets a comment, a blank line or extra spacing, which
    exercises the tokenizer's trivia handling without changing the tree.
    """
    count = 0

    def gap() -> str:
        nonlocal count
        count += 1
        if count % 3:
            return ""
        return ("  // note\n", "\n", "   ", "\t// timing\n")[count // 3 % 4]

    sep = ", " if program.dialect == "easytime++" else " "
    out: list[str] = ["// generated race program\n"]
    for agent_id, kind, source in program.agents:
        src = f'manual "{source}"' if kind == "manual" else f"auto {source}"
        out.append(f"{agent_id} {src};{gap()}\n")
    for decl in program.decls:
        if decl.kind == "plain":
            out.append(f"var {decl.name} := {decl.value};{gap()}\n")
        elif decl.kind == "dynamic":
            out.append(f"dynamicvar {decl.name};{gap()}\n")
        else:
            arms = sep.join(f"(category=={c}) -> {v}" for c, v in decl.arms)
            out.append(f"var {decl.name} := {{ {arms} }};{gap()}\n")
    for mp_id, agent_id, stmts in program.places:
        out.append(f"// measuring place {mp_id}\nmp[{mp_id}] -> agnt[{agent_id}] {{\n")
        for stmt in stmts:
            pred = "true" if stmt.pred is None else f"{stmt.pred[0]} == {stmt.pred[1]}"
            out.append(f"  ({pred}) -> {stmt.instr} {stmt.target};{gap()}\n")
        out.append("}\n")
    return "".join(out)


def roster(rng: random.Random, n: int, categories: list[int], prefix: str) -> list[RosterRow]:
    rows = []
    for i in range(1, n + 1):
        rows.append(RosterRow(i, f"{prefix}{i:06d}", rng.choice(LAST_NAMES),
                              rng.choice(FIRST_NAMES), rng.choice(GENDERS),
                              rng.choice(categories)))
    return rows


def roster_csv(rows: list[RosterRow]) -> str:
    lines = ["id,rfid,last_name,first_name,gender,category"]
    lines += [f"{r.id},{r.rfid},{r.last_name},{r.first_name},{r.gender},{r.category}"
              for r in rows]
    return "\n".join(lines) + "\n"


def event_line(event: tuple) -> str:
    """``(mp, rfid, ts, payload)`` as a wire/file line, without newline."""
    mp, rfid, ts, payload = event
    return f"{mp},{rfid},{ts}" if payload is None else f"{mp},{rfid},{ts},{payload}"


# --- marathon ---------------------------------------------------------
# Seven chip mats on the course plus one manual backup point.  Full-course
# categories count seven mats down to FINISH; the 10 km fun run (categories
# 7 and 8) counts three.  Category 9 has no arm, so its runners start with
# LEFT undefined, which the runtime reports and whose decs it skips.

MARATHON_KM = (0.0, 5.0, 10.0, 15.0, 21.1, 30.0, 42.2)
MARATHON_SHORT_ROUTE = (1, 2, 3)
MARATHON_MANUAL_MP = 8


def marathon_program() -> Program:
    names = ("START", "K5", "K10", "K15", "HALF", "K30", "K42")
    arms = tuple((c, 7) for c in range(1, 7)) + ((7, 3), (8, 3))
    decls = [Decl(n, "plain", value=0) for n in names]
    decls += [Decl("LEFT", "categorized", arms=arms), Decl("FINISH", "dynamic"),
              Decl("MANUAL", "dynamic")]
    places = []
    for mp, name in enumerate(names, start=1):
        agent = 2 if mp <= 4 else 3
        places.append((mp, agent, [Stmt(None, "upd", name), Stmt(None, "dec", "LEFT"),
                                   Stmt(("LEFT", 0), "upd", "FINISH")]))
    places.append((MARATHON_MANUAL_MP, 1, [Stmt(None, "upd", "MANUAL")]))
    agents = [(1, "manual", "manual.dat"), (2, "auto", "10.1.0.2"), (3, "auto", "10.1.0.3")]
    return Program("easytime++", agents, decls, places)


def marathon_events(rng: random.Random, rows: list[RosterRow], n_events: int,
                    stray_share: float) -> tuple[list, list, list]:
    """Crossings of the leading runners, split into two auto files and one manual.

    Each runner's timestamps are strictly increasing along their route, so
    they are distinct per runner.  Returns ``(auto_a, auto_b, manual)``, each
    a list of ``(mp, rfid, ts, payload)`` in file order (not sorted).
    """
    events: list[tuple] = []
    order = list(rows)
    rng.shuffle(order)
    n_real = int(n_events * (1 - stray_share))
    for row in order:
        if len(events) >= n_real:
            break
        route = MARATHON_SHORT_ROUTE if row.category in (7, 8) else tuple(range(1, 8))
        start_ms = rng.randrange(0, 20 * 60_000)
        pace_ms_per_km = rng.randrange(170_000, 420_000)
        reached = rng.randint(1, len(route))
        last = -1
        for mp in route[:reached]:
            ts = start_ms + int(MARATHON_KM[mp - 1] * pace_ms_per_km) + rng.randrange(0, 999)
            ts = max(last + 1, ts)
            events.append((mp, row.rfid, ts, None))
            last = ts
        if reached >= 2 and rng.random() < 0.1:
            events.append((MARATHON_MANUAL_MP, row.rfid, last + rng.randrange(1, 5000), None))
    del events[n_real:]
    stray_mps = tuple(range(1, 8))
    for i in range(n_events - len(events)):
        events.append((rng.choice(stray_mps), f"X{rng.randrange(10**8):08d}",
                       rng.randrange(0, 4 * 3_600_000), None))
    auto_a, auto_b, manual = [], [], []
    for event in events:
        if event[0] == MARATHON_MANUAL_MP:
            manual.append(event)
        elif event[0] <= 4:
            auto_a.append(event)
        else:
            auto_b.append(event)
    for part in (auto_a, auto_b, manual):
        rng.shuffle(part)  # devices flush out of order; the reader sorts
    return auto_a, auto_b, manual


# --- live lap race ----------------------------------------------------
# Lap mat (agent 1) counts ROUND down per category and stamps FINISH at
# zero; a shooting-range style device (agent 2) reports penalties as a
# payload into the dynamic PENALTY, and a penalty-loop mat decs it.

def laps_program(laps_by_category: dict[int, int]) -> Program:
    decls = [Decl("ROUND", "categorized", arms=tuple(sorted(laps_by_category.items()))),
             Decl("LAST", "plain", value=0), Decl("LAPS", "plain", value=0),
             Decl("FINISH", "dynamic"), Decl("PENALTY", "dynamic")]
    places = [
        (1, 1, [Stmt(None, "upd", "LAST"), Stmt(None, "dec", "ROUND"),
                Stmt(("ROUND", 0), "upd", "FINISH")]),
        (2, 2, [Stmt(None, "upd", "PENALTY")]),
        (3, 2, [Stmt(None, "dec", "PENALTY"), Stmt(("PENALTY", 0), "dec", "LAPS")]),
    ]
    agents = [(1, "auto", "10.2.0.1"), (2, "auto", "10.2.0.2")]
    return Program("easytime++", agents, decls, places)


def laps_race(rng: random.Random, n_runners: int, n_events: int, late_runner_share: float,
              late_share: float):
    """Roster, program and the send schedule of a live lap race.

    Returns ``(rows, program, schedule, late_rfids)``: ``schedule`` lists
    events in send order.  It is timestamp order except that for a
    ``late_runner_share`` of the runners a ``late_share`` of their events is
    held back behind one to three of their own later events.  ``late_rfids``
    names the runners whose arrival is out of order.
    """
    rows = roster(rng, n_runners, [1, 1, 2, 2, 3, 4], "LP")
    per_runner = n_events / n_runners
    laps = {1: int(per_runner * 0.8), 2: int(per_runner * 0.7), 3: int(per_runner * 0.6)}
    program = laps_program(laps)
    lap_ms = {r.rfid: rng.randrange(70_000, 130_000) for r in rows}
    # rate weights: faster runners cross more often within the window
    weights = [1.0 / lap_ms[r.rfid] for r in rows]
    scale = n_events / sum(weights)
    per_runner_events: dict[str, list[tuple]] = {}
    total = 0
    for row, w in zip(rows, weights):
        count = max(1, round(w * scale))
        t = rng.randrange(0, 30_000)
        evs = []
        penalty_open = False
        for _ in range(count):
            t += lap_ms[row.rfid] + rng.randrange(-5_000, 5_000)
            roll = rng.random()
            if roll < 0.08:
                evs.append((2, row.rfid, t, rng.randrange(0, 5)))
                penalty_open = True
            elif roll < 0.14 and penalty_open:
                evs.append((3, row.rfid, t, None))
            else:
                evs.append((1, row.rfid, t, None))
        per_runner_events[row.rfid] = evs
        total += count
    # trim or pad to the exact count on the runners with most events
    order = sorted(per_runner_events, key=lambda k: -len(per_runner_events[k]))
    i = 0
    while total > n_events:
        per_runner_events[order[i % len(order)]].pop()
        total -= 1
        i += 1
    while total < n_events:
        evs = per_runner_events[order[i % len(order)]]
        evs.append((1, evs[-1][1], evs[-1][2] + lap_ms[evs[-1][1]], None))
        total += 1
        i += 1

    keyed: list[tuple[int, int, tuple]] = []
    for rfid, evs in per_runner_events.items():
        lates = rng.random() < late_runner_share
        for j, event in enumerate(evs):
            send_ts = event[2]
            if lates and j + 1 < len(evs) and rng.random() < late_share:
                behind = min(len(evs) - 1, j + rng.randint(1, 3))
                send_ts = evs[behind][2] + 1
            keyed.append((send_ts, event[2], event))
    keyed.sort(key=lambda k: (k[0], k[1], k[2][1]))
    schedule = [k[2] for k in keyed]
    last_ts: dict[str, int] = {}
    late_rfids: set[str] = set()
    for _, rfid, ts, _ in schedule:
        if ts < last_ts.get(rfid, -1):
            late_rfids.add(rfid)
        last_ts[rfid] = max(ts, last_ts.get(rfid, -1))
    return rows, program, schedule, late_rfids


# --- compile suite ----------------------------------------------------

def random_program(rng: random.Random, dialect: str, n_places: int, n_decls: int) -> Program:
    """A valid program of the given size; a few variables stay unused.

    The shape (declaration kinds, statements per place, which statements
    have guards) depends only on the size, so every seed gives the same
    amount of work; the seed picks names, values and which variable goes where.
    """
    pp = dialect == "easytime++"
    n_agents = max(1, n_places // 8)
    agents = []
    for a in range(1, n_agents + 1):
        if a % 3 == 0:
            agents.append((a, "manual", f"agent{a}.dat"))
        else:
            agents.append((a, "auto", f"10.{a % 250}.{rng.randrange(256)}.{rng.randrange(1, 255)}"))
    decls = []
    for d in range(n_decls):
        name = f"V{d}"
        if pp and d % 20 < 5:
            cats = rng.sample(range(10, 100), d % 4 + 1)
            decls.append(Decl(name, "categorized",
                              arms=tuple((c, rng.randrange(10, 100)) for c in cats)))
        elif pp and d % 20 < 7:
            decls.append(Decl(name, "dynamic"))
        else:
            decls.append(Decl(name, "plain", value=rng.randrange(10, 100)))
    rng.shuffle(decls)
    names = [d.name for d in decls]
    unused = set(rng.sample(names, max(1, n_decls // 20))) if n_decls > 1 else set()
    usable = [n for n in names if n not in unused]
    rng.shuffle(usable)
    referenced: set[str] = set()
    places = []
    k = 0
    for mp in range(1, n_places + 1):
        stmts = []
        for j in range(mp % 4 + 1):
            target = usable[k % len(usable)]
            k += 1
            pred = None
            if (mp + j) % 2 == 0:
                pred = (rng.choice(usable), rng.randrange(0, 10))
                referenced.add(pred[0])
            stmts.append(Stmt(pred, rng.choice(("upd", "dec")), target))
            referenced.add(target)
        places.append((mp, mp % n_agents + 1, stmts))
    unused |= set(usable) - referenced
    return Program(dialect, agents, decls, places, sorted(unused))


def ironman_program() -> Program:
    """The paper's triathlon program: four places, eleven variables."""
    plain = [("ROUND1", 4), ("INTER1", 0), ("SWIM", 0), ("TRANS1", 0), ("ROUND2", 4),
             ("INTER2", 0), ("BIKE", 0), ("TRANS2", 0), ("ROUND3", 8), ("INTER3", 0),
             ("RUN", 0)]
    decls = [Decl(n, "plain", value=v) for n, v in plain]
    places = [
        (1, 1, [Stmt(None, "upd", "INTER1"), Stmt(None, "dec", "ROUND1"),
                Stmt(("ROUND1", 0), "upd", "SWIM")]),
        (2, 1, [Stmt(None, "upd", "TRANS1")]),
        (3, 2, [Stmt(None, "upd", "INTER2"), Stmt(None, "dec", "ROUND2"),
                Stmt(("ROUND2", 0), "upd", "BIKE")]),
        (4, 2, [Stmt(None, "upd", "INTER3"), Stmt(("ROUND3", 8), "upd", "TRANS2"),
                Stmt(None, "dec", "ROUND3"), Stmt(("ROUND3", 0), "upd", "RUN")]),
    ]
    return Program("easytime", [(1, "manual", "man.dat"), (2, "auto", "192.168.225.100")],
                   decls, places)


def ironman_events(rng: random.Random, rows: list[RosterRow], n_events: int) -> list[tuple]:
    """``n_events`` crossings of the ironman course, in timestamp order."""
    course = [1] * 4 + [2] + [3] * 4 + [4] * 9
    events = []
    per_runner = max(1, -(-n_events // len(rows)))
    for row in rows:
        t = rng.randrange(0, 600_000)
        for k in range(per_runner):
            t += rng.randrange(60_000, 900_000)
            events.append((course[k % len(course)], row.rfid, t, None))
    rng.shuffle(events)
    events = events[:n_events]
    events.sort(key=lambda e: e[2])
    return events
