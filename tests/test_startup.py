"""What a fresh process loads: every `easytime check` and `run` pays for each module."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
PROGRAM = str(FIXTURES / "programs" / "biathlon.ez")
ROSTER = str(FIXTURES / "rosters" / "biathlon.csv")
EVENTS = str(FIXTURES / "events" / "biathlon.log")

# records are named tuples, not dataclasses (which bring inspect); the listener's
# modules load only when serve starts listening, and logging only to log a failed sink;
# results are written with os.path; argparse's help formatter is given its width, so
# shutil and the compression modules it brings do not load
NOT_LOADED = ("dataclasses", "inspect", "logging", "pathlib", "socket", "selectors", "threading",
              "shutil", "zlib", "bz2", "lzma", "fnmatch")

# what easytime.cli loads before a command runs: the compiler layers and runtime, whose
# groupings and errors it names; agents_io, and csv with it, load for run, results and serve
COMPILER = ("easytime", "easytime.cli", "easytime.diagnostics", "easytime.langdef",
            "easytime.frontend", "easytime.semantics", "easytime.runtime")

# each public name and the layer it is defined in
HOMES = {
    "easytime.langdef": ("LanguageDef", "LanguageFragment", "compose_language", "easytime_base",
                         "easytime_pp", "easytime_pp_fragment", "validate_language"),
    "easytime.frontend": ("ProgramAst", "parse", "parse_source", "pretty", "tokenize"),
    "easytime.semantics": ("analyze", "decl_meaning", "decl_sequence"),
    "easytime.runtime": ("Event", "RaceState", "Runner", "apply_event", "eval_predicate",
                         "init_race", "race_results", "replay"),
    "easytime.agents_io": ("listen_auto", "load_runners", "read_event_log", "write_results"),
}


def run_fresh_with_stderr(code: str) -> tuple[str, str]:
    """The standard output and error of ``code`` run by a fresh interpreter importing
    from ``src``."""
    # -S keeps site's own imports out; -c puts the working directory first on sys.path
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         cwd=SRC, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout, res.stderr


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter importing from ``src``."""
    return run_fresh_with_stderr(code)[0]


@pytest.mark.parametrize("snippet, package", [
    ("import easytime; easytime.easytime_pp()",
     ("easytime", "easytime.diagnostics", "easytime.langdef")),
    ("import easytime.cli", COMPILER),
    ("from easytime.cli import main\n"
     f"assert main(['check', {PROGRAM!r}]) == 0", COMPILER),
    ("from easytime.cli import main\n"
     f"assert main(['check', {PROGRAM!r}]) == 0\n"
     f"assert main(['run', {PROGRAM!r}, '--runners', {ROSTER!r}, '--events', {EVENTS!r},"
     " '--out', OUT]) == 0", (*COMPILER, "easytime.agents_io", "csv")),
], ids=["easytime", "easytime.cli", "check", "check-and-run"])
def test_start_up_loads_no_module_it_does_not_use(tmp_path, snippet, package):
    loaded = run_fresh(f"OUT = {str(tmp_path)!r}\n{snippet}\n"
                       "import sys\nprint(*sys.modules)").split()
    assert [name for name in NOT_LOADED if name in loaded] == []
    # exactly these of the package, so no listener for run and no agents_io for check
    assert sorted(name for name in loaded if name.startswith("easytime") or name == "csv") \
        == sorted(package)


def test_every_public_name_resolves_to_its_layer_in_a_fresh_interpreter():
    names = [name for layer_names in HOMES.values() for name in layer_names]
    out = run_fresh(
        "import easytime, sys\n"
        "assert easytime.runtime is sys.modules['easytime.runtime']\n"
        "star = {}\n"
        "exec('from easytime import *', star)\n"
        f"for layer, layer_names in {HOMES!r}.items():\n"
        "    for name in layer_names:\n"
        "        assert star[name] is getattr(easytime, name) is getattr(sys.modules[layer], name)\n"
        "print(*easytime.__all__)\n"
        "print(set(easytime.__all__) <= set(dir(easytime)), hasattr(easytime, 'no_such_name'))\n"
        "try:\n"
        "    easytime.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n").splitlines()
    assert out[0].split() == names
    assert out[1:] == ["True False", "module 'easytime' has no attribute 'no_such_name'"]


# a client's round trip to a listener serving on a thread of its own, as serve's loop would
ROUND_TRIP = (
    "import socket\n"
    "from easytime.listener import AutoAgentListener\n"
    "listener = AutoAgentListener(0, SINK).start()\n"
    "with socket.create_connection(('127.0.0.1', listener.port), timeout=10) as sock:\n"
    "    sock.sendall(b'1,TAG1,5\\n')\n"
    "    print(sock.recv(64).decode().strip())\n"
    "listener.stop()\n")


def test_serve_builds_and_stops_its_listener_without_logging():
    # what serve does before its banner, and on SIGTERM
    loaded = run_fresh("import sys\n"
                       "from easytime.listener import AutoAgentListener\n"
                       "listener = AutoAgentListener(0, print)\n"
                       "listener.stop()\n"
                       "listener.serve()\n"
                       "print(*sys.modules)").split()
    assert "easytime.listener" in loaded
    assert [name for name in ("logging", "threading", "shutil") if name in loaded] == []


def test_a_failing_sink_reaches_a_handler_without_logging_loaded_before():
    out, err = run_fresh_with_stderr(
        "def SINK(event):\n"
        "    raise RuntimeError('disk on fire')\n" + ROUND_TRIP)
    assert out == "ERR disk on fire\n"
    # logging's last resort handler prints the record with its traceback
    assert err.startswith("event sink failed\nTraceback")
    assert err.rstrip().endswith("RuntimeError: disk on fire")


def test_the_listeners_records_below_warning_arrive_once_logging_is_configured():
    _, err = run_fresh_with_stderr(
        "import logging\n"
        "logging.basicConfig(level=logging.DEBUG, format='%(levelname)s %(name)s %(message)s')\n"
        "SINK = lambda event: None\n" + ROUND_TRIP)
    lines = err.splitlines()
    assert lines[0].startswith("INFO easytime.listener listening on port ")
    assert lines[1].startswith("DEBUG easytime.listener connection from ('127.0.0.1', ")
