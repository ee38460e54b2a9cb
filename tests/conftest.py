from __future__ import annotations

import errno
import os
import random
import string
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from easytime.frontend import (
    AgentDecl,
    MeasuringPlace,
    Predicate,
    ProgramAst,
    Statement,
    VarDecl,
)
from easytime.runtime import Event

FIXTURES = Path(__file__).parent / "fixtures"
# `python -m` and `python -c` put their working directory first on sys.path,
# so a child started there imports this checkout's package
SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"

# every keyword of either dialect; generated identifiers must avoid them
KEYWORDS = frozenset(
    "var manual auto mp agnt upd dec true category dynamicvar".split()
)


@pytest.fixture(autouse=True)
def cpus_as_found():
    """Fail a test that leaves this process allowed other CPUs than it found: an export
    moves its forked child alone, never this process, on any path, a failed fork, a fork
    that raises something else, a failed child and an interrupt included."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    affinity = os.sched_getaffinity  # the real one, whatever the test patches
    cpus = affinity(0)
    yield
    if (left := affinity(0)) != cpus:
        pytest.fail(f"the test left this process on CPUs {sorted(left)}, not {sorted(cpus)}")


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def program_source(name: str) -> str:
    return (FIXTURES / "programs" / f"{name}.ez").read_text(encoding="ascii")


def perfbench_reference():
    """The benchmark's race generator and reference evaluator, ``perfbench/gen.py`` and
    ``perfbench/ref.py``, imported as they are: an oracle that is not this package.
    ``ref`` imports ``gen`` by its bare name, so ``perfbench/`` is on the path while they
    load, and no bytecode is written there."""
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode, writes = True, sys.dont_write_bytecode
    try:
        import gen
        import ref
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes
    return gen, ref


def random_name(rng: random.Random, taken: set[str]) -> str:
    while True:
        length = rng.randint(2, 8)
        name = rng.choice(string.ascii_uppercase) + "".join(
            rng.choice(string.ascii_uppercase + string.digits) for _ in range(length - 1)
        )
        if name not in KEYWORDS and name not in taken:
            taken.add(name)
            return name


def random_var_decl(rng: random.Random, taken: set[str]) -> VarDecl:
    name = random_name(rng, taken)
    kind = rng.choice(("plain", "plain", "categorized", "dynamic"))
    if kind == "plain":
        return VarDecl(name, "plain", value=rng.randint(0, 9999))
    if kind == "dynamic":
        return VarDecl(name, "dynamic")
    categories = rng.sample(range(10), rng.randint(1, 4))
    arms = tuple((c, rng.randint(0, 99)) for c in sorted(categories))
    return VarDecl(name, "categorized", arms=arms)


def declared_value(decl: VarDecl, category: int) -> int | None:
    """The reference: a declaration's starting value in ``category``, by its form."""
    if decl.kind == "plain":
        return decl.value
    if decl.kind == "categorized":
        return dict(decl.arms).get(category)
    return None  # dynamic: no value until run time


def lacks_arm(decl: VarDecl, category: int) -> bool:
    """The reference: a categorized declaration with no arm for ``category``."""
    return decl.kind == "categorized" and category not in dict(decl.arms)


def random_program(rng: random.Random) -> ProgramAst:
    """A structurally valid EasyTime++ program tree."""
    taken: set[str] = set()
    agent_ids = rng.sample(range(1, 10), rng.randint(1, 3))
    agents = []
    for aid in agent_ids:
        if rng.random() < 0.5:
            agents.append(AgentDecl(aid, "manual", f"file{aid}.dat"))
        else:
            agents.append(AgentDecl(aid, "auto", f"192.168.0.{aid}"))

    decls = [random_var_decl(rng, taken) for _ in range(rng.randint(1, 8))]
    names = [d.name for d in decls]

    places = []
    for mp_id in rng.sample(range(1, 10), rng.randint(0, 4)):
        stmts = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                pred = Predicate("true")
            else:
                pred = Predicate("equals", var=rng.choice(names), value=rng.randint(0, 9))
            stmts.append(Statement(pred, rng.choice(("upd", "dec")), rng.choice(names)))
        places.append(MeasuringPlace(mp_id, rng.choice(agent_ids), tuple(stmts)))

    return ProgramAst(tuple(agents), tuple(decls), tuple(places))


def peak_bytes(consume) -> int:
    """The most memory ``consume()`` had allocated at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        consume()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def fail_writes_in_a_child(monkeypatch, label: str, also_here: bool = False) -> None:
    """Make every write of the results file of group ``label`` fail with ENOSPC in a process
    other than this one, as a forked export child is, and also in this one if ``also_here``."""
    from easytime import agents_io

    parent = os.getpid()

    def open_on_a_full_disk(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)  # the part file is made, then the write fails
        if ((also_here or os.getpid() != parent)
                and os.path.basename(path).startswith(f".results_{label}.csv.")):
            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            handle.write = write
        return handle
    monkeypatch.setattr(agents_io, "open", open_on_a_full_disk, raising=False)


def assert_no_child_left() -> None:
    """Every child this process started has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Collector:
    """A listener sink that keeps every event it is called with, from any thread."""

    def __init__(self):
        self.events: list[Event] = []
        self.lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        with self.lock:
            self.events.append(event)

    def wait_for(self, count: int, timeout: float) -> list[Event]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.events) >= count:
                    return list(self.events)
            time.sleep(0.005)
        raise AssertionError(f"sink saw {len(self.events)} events, wanted {count}")
