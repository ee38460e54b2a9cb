"""Every Python source of the repository compiles with warnings as errors."""

from __future__ import annotations

import warnings

from conftest import SRC

ROOT = SRC.parent


def test_every_source_compiles_with_warnings_as_errors():
    # what ``python -W error -m compileall -q src tests perfbench`` checks, writing no
    # bytecode: an invalid escape such as "\d" is a DeprecationWarning on 3.11 and a
    # SyntaxWarning from 3.12, which a plain compile only prints
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
