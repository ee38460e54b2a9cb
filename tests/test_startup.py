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
# modules load only when serve starts listening; results are written with os.path
NOT_LOADED = ("dataclasses", "inspect", "logging", "pathlib", "socket", "selectors", "threading")


@pytest.mark.parametrize("snippet", [
    "import easytime; easytime.easytime_pp()",
    "import easytime.cli",
    "from easytime.cli import main\n"
    f"assert main(['check', {PROGRAM!r}]) == 0",
    "from easytime.cli import main\n"
    f"assert main(['check', {PROGRAM!r}]) == 0\n"
    f"assert main(['run', {PROGRAM!r}, '--runners', {ROSTER!r}, '--events', {EVENTS!r},"
    " '--out', OUT]) == 0",
], ids=["easytime", "easytime.cli", "check", "check-and-run"])
def test_start_up_loads_no_module_it_does_not_use(tmp_path, snippet):
    code = (f"OUT = {str(tmp_path)!r}\n{snippet}\n"
            f"import sys\nprint(*(name for name in {NOT_LOADED!r} if name in sys.modules))")
    # -S keeps site's own imports out; -c puts the working directory first on sys.path
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         cwd=SRC, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
