"""Command-line surface: check, run, serve, results.

Exit codes: 0 success, 1 language error (lex/parse/semantic, plus events
aimed at unknown measuring places), 2 I/O or data-file error.
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
    DuplicateRfidError,
    DuplicateRunnerIdError,
    UnknownMeasuringPlaceError,
    UnknownVariableError,
    apply_event,
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


def _language(dialect: str):
    return easytime_base() if dialect == "easytime" else easytime_pp()


def _read_source(path: str) -> str:
    # latin-1 decodes any byte; tokenize rejects non-ASCII with a position
    with open(path, encoding="latin-1") as handle:
        return handle.read()


def _print_front_error(path: str, exc: LexError | ParseError) -> None:
    code = "LexError" if isinstance(exc, LexError) else "ParseError"
    diag = Diagnostic(ERROR, code, exc.message, exc.line, exc.column)
    print(diag.render(path))


def _compile(path: str, dialect: str):
    """Parse and analyze; returns (ast, state) or None after printing why."""
    try:
        source = _read_source(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None, EXIT_IO
    lang = _language(dialect)
    try:
        ast = parse_source(source, lang)
    except (LexError, ParseError) as exc:
        _print_front_error(path, exc)
        return None, EXIT_LANG
    state, diags = analyze(ast)
    for diag in diags:
        print(diag.render(path))
    if has_errors(diags):
        return None, EXIT_LANG
    return (ast, state), EXIT_OK


def cmd_check(args) -> int:
    compiled, status = _compile(args.program, args.dialect)
    return status


def _load_roster(path: str):
    try:
        return load_runners(path), EXIT_OK
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None, EXIT_IO
    except UnicodeDecodeError:
        print(f"error: {path}: roster must be ASCII", file=sys.stderr)
        return None, EXIT_IO
    except (MalformedRowError, DuplicateRfidError, DuplicateRunnerIdError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("EASYTIME_OUT", "."))


def _export_results(race, args, out_dir: Path) -> int:
    try:
        tables = race_results(race, rank_var=args.rank, group_by=args.group)
    except UnknownVariableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LANG
    try:
        write_results(tables, out_dir)
    except OSError as exc:
        print(f"error: cannot write results: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _start(args, event_paths):
    """Compile, load the roster and replay the event files in timestamp order.

    Returns ``((ast, race), EXIT_OK)``, or ``(None, status)`` after printing why.
    """
    compiled, status = _compile(args.program, args.dialect)
    if compiled is None:
        return None, status
    ast, state = compiled
    roster, status = _load_roster(args.runners)
    if roster is None:
        return None, status

    events = []
    for path in event_paths:
        try:
            events.extend(read_event_log(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
            return None, EXIT_IO
        except UnicodeDecodeError:
            print(f"error: {path}: event log must be ASCII", file=sys.stderr)
            return None, EXIT_IO
        except MalformedEventError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return None, EXIT_IO
    events.sort(key=lambda e: e.timestamp_ms)

    race = init_race(state, roster)
    for warning in race.warnings:
        print(f"warning: {warning.message}", file=sys.stderr)
    try:
        race = replay(race, ast, events)
    except UnknownMeasuringPlaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_LANG
    return (ast, race), EXIT_OK


def cmd_run(args) -> int:
    started, status = _start(args, args.events)
    if started is None:
        return status
    _, race = started
    out_dir = _out_dir(args)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_event_log((entry.event for entry in race.log), out_dir / JOURNAL_NAME)
    except OSError as exc:
        print(f"error: cannot write journal: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    return _export_results(race, args, out_dir)


def cmd_results(args) -> int:
    started, status = _start(args, [args.journal])
    if started is None:
        return status
    return _export_results(started[1], args, _out_dir(args))


def cmd_serve(args) -> int:
    out_dir = _out_dir(args)
    journal_path = out_dir / JOURNAL_NAME
    # a restart resumes the journal a previous serve left behind
    started, status = _start(args, [journal_path] if journal_path.exists() else [])
    if started is None:
        return status
    ast, race = started
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        journal = open(journal_path, "a", encoding="ascii")
    except OSError as exc:
        print(f"error: cannot open journal: {exc.strerror}", file=sys.stderr)
        return EXIT_IO

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
            _export_results(race, args, out_dir)
        if applied == args.stop_after:
            done.set()

    with journal:
        try:
            listener = listen_auto(args.port, sink)
        except OSError as exc:
            print(f"error: cannot bind port {args.port}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
        # SIGTERM acts as Ctrl-C; a handler calling done.set() can deadlock done.wait()
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(f"listening on port {listener.port}", flush=True)
        with listener, contextlib.suppress(KeyboardInterrupt):
            done.wait()
    return _export_results(race, args, out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="easytime", description="EasyTime race-timing compiler and runtime")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="program source file (.ez)")
        p.add_argument("--dialect", choices=DIALECTS, default="easytime++")

    def outputs(p):
        p.add_argument("--runners", required=True, help="roster CSV")
        p.add_argument("--rank", default=None, help="variable to rank by")
        p.add_argument("--group", choices=("category", "gender", "category-gender"), default=None)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
