"""Command-line surface: check, run, serve, results.

``run``, ``results`` and ``serve`` start through ``_start``, which steps the race it
builds in place, keeping no log; ``run`` journals what it read.  A journal's torn last
line is warned of and left out; ``serve`` also cuts it off.  ``run``, ``results``
and each ``serve`` snapshot export through ``_export_results``, which writes one
group's file at a time from ready-made lines, two or more groups from two processes;
ungrouped, ``results.csv`` is always written, with only its header for an empty roster.
A write that fails in the export's child fails the command as one of its own does.

Exit codes: 0 success, 1 language error (lex/parse/semantic, an unknown
``--rank`` variable, events aimed at unknown measuring places), 2 I/O or
data-file error (a ``runtime.InputError`` raised reading a roster or event file),
also for a standard output whose reader has gone.
A failing step raises ``_Failure`` with its exit code and message, through ``_io_failure``
for an ``OSError``; ``main`` alone prints ``error: <message>`` and returns the code.  A
``serve`` snapshot export is the one failure that does not end a command: serving goes on.

Each command loads the layers it runs: ``check`` the compiler (``langdef``,
``diagnostics``, ``frontend``, ``semantics``) and ``runtime``, whose groupings and
errors this module names; ``run`` and ``results`` add ``agents_io`` with ``csv``;
``serve`` adds the listener and its socket modules too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import signal
import sys

from .diagnostics import Diagnostic, ERROR, has_errors
from .frontend import LexError, ParseError, parse_source
from .langdef import easytime_base, easytime_pp
from .runtime import (
    GROUPINGS,
    InputError,
    UnknownMeasuringPlaceError,
    UnknownVariableError,
    _event_order,
    check_rank_var,
    init_race,
    place_statements,
    run_statements,
    step_events,
)
from .semantics import analyze

EXIT_OK = 0
EXIT_LANG = 1
EXIT_IO = 2

DIALECTS = {"easytime": easytime_base, "easytime++": easytime_pp}  # name -> its language
JOURNAL_NAME = "journal.log"


class _Failure(Exception):
    """Ends the command with exit code ``status``; ``main`` prints a non-empty message."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message)
        self.status = status


def _read_source(path: str) -> str:
    # latin-1 decodes any byte; tokenize rejects non-ASCII with a position
    with open(path, encoding="latin-1") as handle:
        return handle.read()


@contextlib.contextmanager
def _io_failure(doing: str):
    """An ``OSError`` in the block ends the command with exit 2: ``<doing>: <the reason>``."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_IO, f"{doing}: {exc.strerror}")


def _read(path, reader):
    """``reader(path)``; file and data errors become exit-2 failures naming ``path``."""
    with _io_failure(f"cannot read {path}"):
        try:
            return reader(path)
        except InputError as exc:
            raise _Failure(EXIT_IO, f"{path}: {exc}")


def _compile(path: str, dialect: str):
    """Parse and analyze, printing diagnostics; returns (ast, state)."""
    source = _read(path, _read_source)
    try:
        ast = parse_source(source, DIALECTS[dialect]())
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


def _out_dir(args) -> str:
    return args.out or os.environ.get("EASYTIME_OUT") or os.curdir


def _export_results(race, args, out_dir: str) -> None:
    from .agents_io import _export_race

    with _io_failure("cannot write results"):
        _export_race(race, out_dir, args.rank, args.group)


def _start(args, event_paths, read_events):
    """Compile, load the roster, check ``--rank``, step the events of ``read_events(path)``
    for each path, by timestamp; returns the program, the race and the events stepped."""
    from .agents_io import load_runners

    ast, state = _compile(args.program, args.dialect)
    race = _read(args.runners, lambda path: init_race(state, load_runners(path)))
    try:
        check_rank_var(race.var_names, args.rank)
    except UnknownVariableError as exc:
        raise _Failure(EXIT_LANG, str(exc))

    events = []
    for path in event_paths:
        events.extend(_read(path, read_events))
    events.sort(key=_event_order)

    # one write: a large roster can warn thousands of times, and stderr is line-buffered
    sys.stderr.write("".join(f"warning: {warning.message}\n" for warning in race.warnings))
    # the race is this command's own: it is stepped in place, and skipped-dec warnings dropped
    try:
        for _ in step_events(race, ast, events, []):
            pass
    except UnknownMeasuringPlaceError as exc:
        raise _Failure(EXIT_LANG, str(exc))
    return ast, race, events


def cmd_run(args) -> None:
    from .agents_io import read_event_log, write_event_log

    _, race, events = _start(args, args.events, read_event_log)
    out_dir = _out_dir(args)
    with _io_failure("cannot write journal"):
        os.makedirs(out_dir, exist_ok=True)
        write_event_log(events, os.path.join(out_dir, JOURNAL_NAME))
    del events  # journaled, so the export holds only the race
    _export_results(race, args, out_dir)


def _journal_events(path) -> tuple[list, bytes]:
    """``read_journal(path)``, warning of the torn last line it left out."""
    from .agents_io import read_journal

    events, torn = read_journal(path)
    if torn:
        print(f"warning: {path}: dropped {len(torn)} bytes of a torn last line:"
              f" {torn.decode('latin-1')!r}", file=sys.stderr)
    return events, torn


def cmd_results(args) -> None:
    _, race, _ = _start(args, [args.journal], lambda path: _journal_events(path)[0])
    _export_results(race, args, _out_dir(args))


def _resume_journal(path) -> list:
    """The events of the journal a previous ``serve`` left at ``path``, which is cut back
    to its last newline, so the next append starts a line of its own."""
    events, torn = _journal_events(path)
    if torn:
        with _io_failure("cannot repair journal"):
            os.truncate(path, os.path.getsize(path) - len(torn))
    return events


def cmd_serve(args) -> None:
    from .agents_io import format_event
    from .listener import AutoAgentListener  # the socket modules load for serve alone

    out_dir = _out_dir(args)
    journal_path = os.path.join(out_dir, JOURNAL_NAME)
    # a restart resumes the journal a previous serve left behind
    resumed = [journal_path] if os.path.exists(journal_path) else []
    ast, race, _ = _start(args, resumed, _resume_journal)
    with _io_failure("cannot open journal"):
        os.makedirs(out_dir, exist_ok=True)
        journal = open(journal_path, "a", encoding="ascii")

    applied = 0
    statements = place_statements(ast)

    # runs on the main thread, in the listener's loop; the listener acks only after it returns
    def sink(event):
        nonlocal applied
        stmts = statements(event)  # run's rule; the listener answers its refusal with ERR
        journal.write(format_event(event) + "\n")
        journal.flush()
        # only once journaled, so live state never runs ahead of the journal; serve owns the
        # race _start returned and steps its per_runner map directly, keeping no log or warnings
        run_statements(stmts, race.per_runner, event, [])
        applied += 1
        if args.snapshot_every and applied % args.snapshot_every == 0:
            try:
                _export_results(race, args, out_dir)
            except _Failure as exc:  # a failed snapshot is reported, the race goes on
                print(f"error: {exc}", file=sys.stderr)
        if applied == args.stop_after:
            listener.stop()

    with journal:
        with _io_failure(f"cannot bind port {args.port}"):
            listener = AutoAgentListener(args.port, sink)
        # a signal ends the loop between events, never inside the sink, and cannot cut the
        # export short; set before the banner, so a signal right after it still exports
        handlers = [(signum, signal.signal(signum, lambda *_: listener.stop()))
                    for signum in (signal.SIGINT, signal.SIGTERM)]
        try:  # leaving the listener's block frees the port, also if the banner fails
            with listener:
                print(f"listening on port {listener.port}", flush=True)
                listener.serve()
                _export_results(race, args, out_dir)
        finally:  # an in-process caller gets its own handlers back
            for signum, handler in handlers:
                signal.signal(signum, handler)


def _int_in(values: range, what: str):
    """An argparse type accepting an integer in ``values``; argparse exits 2 on any other."""
    def convert(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) in values:
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at the width ``shutil.get_terminal_size`` gives: ``COLUMNS`` if
    it is a positive integer, else the width of ``sys.__stdout__``'s terminal, else 80.
    argparse builds one per argument, and its own default loads ``shutil``."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="easytime",
                                     description="EasyTime race-timing compiler and runtime",
                                     formatter_class=_help_formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_help_formatter)

    def common(p):
        p.add_argument("program", help="program source file (.ez)")
        p.add_argument("--dialect", choices=DIALECTS, default="easytime++")

    def outputs(p):
        p.add_argument("--runners", required=True, help="roster CSV")
        p.add_argument("--rank", default=None, help="variable to rank by")
        p.add_argument("--group", choices=GROUPINGS, default=None)
        p.add_argument("--out", default=None, help="output directory (default $EASYTIME_OUT or .)")

    p_check = add_parser("check", help="compile a program and report diagnostics")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_run = add_parser("run", help="replay event logs and export results")
    common(p_run)
    outputs(p_run)
    p_run.add_argument("--events", nargs="+", required=True, help="event log files")
    p_run.set_defaults(func=cmd_run)

    p_serve = add_parser("serve", help="listen for live events over TCP")
    common(p_serve)
    outputs(p_serve)
    count = _int_in(range(sys.maxsize), "an integer >= 0")
    p_serve.add_argument("--port", type=_int_in(range(65536), "a port from 0 to 65535"),
                         required=True, help="TCP port (0 picks a free one)")
    p_serve.add_argument("--snapshot-every", type=count, default=0, metavar="N",
                         help="export results every N applied events")
    p_serve.add_argument("--stop-after", type=count, default=0, metavar="N",
                         help="shut down after N applied events (for scripted runs)")
    p_serve.set_defaults(func=cmd_serve)

    p_results = add_parser("results", help="re-export results from a journal")
    common(p_results)
    outputs(p_results)
    p_results.add_argument("--journal", required=True, help="journal file from a previous run/serve")
    p_results.set_defaults(func=cmd_results)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            args.func(args)
        finally:  # flush here, not at exit, so a closed stdout fails below; no-op if stdout is None
            print(end="", flush=True)
    except _Failure as exc:
        if str(exc):
            print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except BrokenPipeError as exc:  # stdout's reader has gone
        if sys.stdout is sys.__stdout__:  # flushed again at exit: to devnull, so that passes
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
