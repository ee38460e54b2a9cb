"""Command-line surface: check, run, serve, results.

Exit codes: 0 success, 1 language error (lex/parse/semantic, an unknown
``--rank`` variable, events aimed at unknown measuring places), 2 I/O or
data-file error.  A failing step raises ``_Failure`` with its exit code and
message; ``main`` alone prints ``error: <message>`` and returns the code.
The one failure that does not end a command is a ``serve`` snapshot export,
which is reported and serving goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from pathlib import Path

from .agents_io import (
    MalformedEventError,
    MalformedRowError,
    listen_auto,
    load_runners,
    read_event_log,
    write_event_log,
    write_results,
    format_event,
)
from .diagnostics import Diagnostic, ERROR, has_errors
from .frontend import LexError, ParseError, parse_source
from .langdef import easytime_base, easytime_pp
from .runtime import (
    GROUPINGS,
    DuplicateRfidError,
    DuplicateRunnerIdError,
    UnknownMeasuringPlaceError,
    UnknownVariableError,
    apply_event,
    check_rank_var,
    init_race,
    race_results,
    replay,
)
from .semantics import analyze

EXIT_OK = 0
EXIT_LANG = 1
EXIT_IO = 2

DIALECTS = ("easytime", "easytime++")
JOURNAL_NAME = "journal.log"


class _Failure(Exception):
    """Ends the command with exit code ``status``; ``main`` prints a non-empty message."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message)
        self.status = status


def _language(dialect: str):
    return easytime_base() if dialect == "easytime" else easytime_pp()


def _read_source(path: str) -> str:
    # latin-1 decodes any byte; tokenize rejects non-ASCII with a position
    with open(path, encoding="latin-1") as handle:
        return handle.read()


def _read(path, reader, kind: str):
    """``reader(path)``; file and data errors become exit-2 failures naming ``path``."""
    try:
        return reader(path)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise _Failure(EXIT_IO, f"{path}: {kind} must be ASCII")
    except (MalformedRowError, MalformedEventError, DuplicateRfidError, DuplicateRunnerIdError) as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc}")


def _compile(path: str, dialect: str):
    """Parse and analyze, printing diagnostics; returns (ast, state)."""
    source = _read(path, _read_source, "program")
    try:
        ast = parse_source(source, _language(dialect))
    except (LexError, ParseError) as exc:
        diags = [Diagnostic(ERROR, type(exc).__name__, exc.message, exc.line, exc.column)]
    else:
        state, diags = analyze(ast)
    for diag in diags:
        print(diag.render(path))
    if has_errors(diags):
        raise _Failure(EXIT_LANG)
    return ast, state


def cmd_check(args) -> None:
    _compile(args.program, args.dialect)


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("EASYTIME_OUT", "."))


def _export_results(race, args, out_dir: Path) -> None:
    tables = race_results(race, rank_var=args.rank, group_by=args.group)
    try:
        write_results(tables, out_dir)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write results: {exc.strerror}")


def _start(args, event_paths):
    """Compile, load the roster, check ``--rank``, replay the events by timestamp."""
    ast, state = _compile(args.program, args.dialect)
    race = _read(args.runners, lambda path: init_race(state, load_runners(path)), "roster")
    try:
        check_rank_var(race.var_names, args.rank)
    except UnknownVariableError as exc:
        raise _Failure(EXIT_LANG, str(exc))

    events = []
    for path in event_paths:
        events.extend(_read(path, read_event_log, "event log"))
    events.sort(key=lambda e: e.timestamp_ms)

    for warning in race.warnings:
        print(f"warning: {warning.message}", file=sys.stderr)
    try:
        return ast, replay(race, ast, events)
    except UnknownMeasuringPlaceError as exc:
        raise _Failure(EXIT_LANG, str(exc))


def cmd_run(args) -> None:
    _, race = _start(args, args.events)
    out_dir = _out_dir(args)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_event_log((entry.event for entry in race.log), out_dir / JOURNAL_NAME)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write journal: {exc.strerror}")
    _export_results(race, args, out_dir)


def cmd_results(args) -> None:
    _, race = _start(args, [args.journal])
    _export_results(race, args, _out_dir(args))


def cmd_serve(args) -> None:
    out_dir = _out_dir(args)
    journal_path = out_dir / JOURNAL_NAME
    # a restart resumes the journal a previous serve left behind
    ast, race = _start(args, [journal_path] if journal_path.exists() else [])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        journal = open(journal_path, "a", encoding="ascii")
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot open journal: {exc.strerror}")

    applied = 0
    done = threading.Event()

    # runs on the listener's one thread; the listener acks only after it returns
    def sink(event):
        nonlocal race, applied
        try:
            updated = apply_event(race, ast, event)
        except UnknownMeasuringPlaceError:
            print(f"skipping event for unknown mp[{event.mp_id}]", file=sys.stderr)
            return
        journal.write(format_event(event) + "\n")
        journal.flush()
        race = updated  # only once journaled, so live state never runs ahead of the journal
        applied += 1
        if args.snapshot_every and applied % args.snapshot_every == 0:
            try:
                _export_results(race, args, out_dir)
            except _Failure as exc:  # a failed snapshot is reported, the race goes on
                print(f"error: {exc}", file=sys.stderr)
        if applied == args.stop_after:
            done.set()

    with journal:
        try:
            listener = listen_auto(args.port, sink)
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot bind port {args.port}: {exc.strerror}")
        # SIGTERM acts as Ctrl-C; a handler calling done.set() can deadlock done.wait()
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(f"listening on port {listener.port}", flush=True)
        with listener, contextlib.suppress(KeyboardInterrupt):
            done.wait()
    _export_results(race, args, out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="easytime", description="EasyTime race-timing compiler and runtime")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="program source file (.ez)")
        p.add_argument("--dialect", choices=DIALECTS, default="easytime++")

    def outputs(p):
        p.add_argument("--runners", required=True, help="roster CSV")
        p.add_argument("--rank", default=None, help="variable to rank by")
        p.add_argument("--group", choices=GROUPINGS, default=None)
        p.add_argument("--out", default=None, help="output directory (default $EASYTIME_OUT or .)")

    p_check = sub.add_parser("check", help="compile a program and report diagnostics")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="replay event logs and export results")
    common(p_run)
    outputs(p_run)
    p_run.add_argument("--events", nargs="+", required=True, help="event log files")
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser("serve", help="listen for live events over TCP")
    common(p_serve)
    outputs(p_serve)
    p_serve.add_argument("--port", type=int, required=True, help="TCP port (0 picks a free one)")
    p_serve.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                         help="export results every N applied events")
    p_serve.add_argument("--stop-after", type=int, default=0, metavar="N",
                         help="shut down after N applied events (for scripted runs)")
    p_serve.set_defaults(func=cmd_serve)

    p_results = sub.add_parser("results", help="re-export results from a journal")
    common(p_results)
    outputs(p_results)
    p_results.add_argument("--journal", required=True, help="journal file from a previous run/serve")
    p_results.set_defaults(func=cmd_results)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _Failure as exc:
        if str(exc):
            print(f"error: {exc}", file=sys.stderr)
        return exc.status
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
