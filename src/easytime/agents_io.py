"""Event sources and persistence.

Manual agents and replay logs are files of event lines; automatic agents
push the same lines over TCP.  ``split_lines`` is the one rule for where a line
ends, and ``parse_event_line`` the one rule for a line
``mp,rfid,timestamp_ms[,payload]``, on every transport.  ``read_journal`` reads
a file of them as ``read_event_log`` does, less a torn last line.  Rosters and
results are CSV.  ``load_runners`` checks a roster by column, a block of lines at a
time, and reads it again row by row with the csv module if a block holds a quote or
fails a check, so the row loop names every fault.  ``write_results`` writes result tables
with the csv module; ``_export_race``, the export of ``run``, ``results`` and
``serve``, writes the same bytes from ready-made lines, one group's at a time, without
building the tables, and writes the first half of two or more groups from a forked
child where ``os.fork`` exists and no other thread runs, on CPUs other than this
process's where the OS lets it place them; what the child did not write, this process
writes.  The TCP listener lives in ``listener``, which ``serve`` and
``listen_auto`` import when they start listening, so only they load the socket modules.
It serves many connections on one thread and hands events to its sink one at a time,
in arrival order: ``serve`` runs it on the main thread, ``listen_auto`` on a thread of
its own.
A malformed roster row or event line raises a ``runtime.InputError`` subclass.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import signal
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, repeat

from .runtime import (GENDERS, RUNNER_COLUMNS, Event, InputError, ResultTable, Runner,
                      _event_order, _groups, _ranked_groups)

ROSTER_HEADER = list(Runner._fields)
_HEADER_LINE = ",".join(ROSTER_HEADER)
_GENDERS = {gender: gender for gender in GENDERS}  # runners share one string per gender

# characters of a roster checked at a time by column, before the rest of their last line
BLOCK_CHARS = 16384

# longest unterminated line a client may send; real event lines are < 100 bytes
MAX_LINE_BYTES = 4096


class MalformedRowError(InputError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}", reason)
        self.line = line


class MalformedEventError(InputError):
    def __init__(self, reason: str, line: int | None = None):
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}{reason}", reason)
        self.line = line


def load_runners(path: str | os.PathLike) -> list[Runner]:
    """Read and validate a roster CSV, refusing a line with a NUL or a non-ASCII byte
    as csv reads it; ``init_race`` checks ids and rfids are unique.

    A roster that holds no ``"`` is checked a block of whole lines at a time, by column
    (``_block_runners``).  If a block holds a quote or fails a check, ``_read_rows`` reads
    the whole file again, one csv record at a time, and raises every error, so either
    path gives the same runners and the same errors."""
    runners: list[Runner] = []
    # latin-1 gives one character per byte, so a non-ASCII byte is seen on its line
    with open(path, newline="", encoding="latin-1") as handle:
        if handle.readline().rstrip("\r\n") == _HEADER_LINE:
            while text := handle.read(BLOCK_CHARS):
                text += handle.readline()  # a block ends on a line end, a "\r\n" not cut in two
                # a quoted field may span lines, blocks included
                if '"' in text or (block := _block_runners(text)) is None:
                    break
                runners += block
            else:
                return runners
        handle.seek(0)
        return _read_rows(handle)


def _block_runners(text: str) -> list[Runner] | None:
    """The runners of ``text``, whole quote-free lines after the header, or None if a
    line is not a plain valid row: ``_read_rows`` then reads the roster and names the fault."""
    if "\0" in text or not text.isascii() or len(text) > csv.field_size_limit():
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    body = text[:-1] if text.endswith("\n") else text
    rows = body.count("\n") + 1
    # each line after the first starts its id field with "\n", which int() strips: the
    # lines have six fields each exactly when every "\n" lands in the id column
    fields = body.replace("\n", ",\n").split(",")
    width = len(ROSTER_HEADER)
    raw_ids = fields[0::width]
    if len(fields) != width * rows or "".join(raw_ids).count("\n") != rows - 1:
        return None
    rfids = list(map(str.strip, fields[1::width]))  # stripped as an event line's rfid is
    raw_genders = fields[4::width]
    if "" in rfids or not _GENDERS.keys() >= set(raw_genders):
        return None
    try:
        ids = list(map(int, raw_ids))
        categories = list(map(int, fields[5::width]))
    except ValueError:
        return None
    if min(categories) < 0:
        return None
    return list(map(tuple.__new__, repeat(Runner), zip(
        ids, rfids, fields[2::width], fields[3::width], map(_GENDERS.__getitem__, raw_genders),
        categories)))


def _read_rows(lines: Iterable[str]) -> list[Runner]:
    """The runners of the csv records in ``lines``, a roster's lines from its header on."""
    runners: list[Runner] = []
    reader = csv.reader(_ascii_lines(lines))
    try:
        if next(reader, None) != ROSTER_HEADER:
            raise MalformedRowError(1, f"header must be {_HEADER_LINE}")
        end = reader.line_num  # a quoted field may span lines: name where a record starts
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(ROSTER_HEADER):
                raise MalformedRowError(lineno, f"expected {len(ROSTER_HEADER)} fields, got {len(row)}")
            raw_id, rfid, last_name, first_name, raw_gender, raw_category = row
            try:
                runner_id = int(raw_id)
            except ValueError:
                raise MalformedRowError(lineno, f"id {raw_id!r} is not an integer") from None
            if not (rfid := rfid.strip()):  # stripped as an event line's rfid is
                raise MalformedRowError(lineno, "empty rfid")
            if (gender := _GENDERS.get(raw_gender)) is None:
                raise MalformedRowError(
                    lineno, f"gender must be one of {'/'.join(GENDERS)}, got {raw_gender!r}")
            try:
                category = int(raw_category)
            except ValueError:
                raise MalformedRowError(lineno, f"category {raw_category!r} is not an integer") from None
            if category < 0:
                raise MalformedRowError(lineno, f"category must be >= 0, got {category}")
            runners.append(Runner(runner_id, rfid, last_name, first_name, gender, category))
    except csv.Error as exc:  # a field past the csv module's size limit
        raise MalformedRowError(reader.line_num, str(exc)) from None
    return runners


def _ascii_lines(lines: Iterable[str]) -> Iterator[str]:
    """``lines``, refusing one with a NUL (which csv refuses only before Python 3.11)
    or a non-ASCII character."""
    for lineno, line in enumerate(lines, start=1):
        if "\0" in line:
            raise MalformedRowError(lineno, "line contains NUL")
        if not line.isascii():
            raise MalformedRowError(lineno, "line must be ASCII")
        yield line


def parse_event_line(line: str) -> Event | None:
    """The event of one ``mp,rfid,timestamp_ms[,payload]`` line, fields stripped, or
    None for a blank or ``#`` line.  Files, journals and the wire read a byte as one
    character, and a line holding a non-ASCII one is refused, comment or not."""
    if not line.isascii():
        raise MalformedEventError("line must be ASCII")
    if not (line := line.strip()) or line.startswith("#"):
        return None
    fields = [f.strip() for f in line.split(",")]
    if len(fields) == 1:
        raise MalformedEventError("missing rfid")
    if len(fields) == 2:
        raise MalformedEventError("missing timestamp")
    if len(fields) > 4:
        raise MalformedEventError(f"too many fields ({len(fields)})")
    raw_mp, rfid, raw_ts = fields[0], fields[1], fields[2]
    try:
        mp_id = int(raw_mp)
    except ValueError:
        raise MalformedEventError(f"mp {raw_mp!r} is not an integer") from None
    if not rfid:
        raise MalformedEventError("empty rfid")
    try:
        timestamp_ms = int(raw_ts)
    except ValueError:
        raise MalformedEventError(f"timestamp {raw_ts!r} is not an integer") from None
    if timestamp_ms < 0:
        raise MalformedEventError(f"timestamp must be >= 0, got {timestamp_ms}")
    payload: int | None = None
    if len(fields) == 4:
        try:
            payload = int(fields[3])
        except ValueError:
            raise MalformedEventError(f"payload {fields[3]!r} is not an integer") from None
        if payload < 0:
            raise MalformedEventError(f"payload must be >= 0, got {payload}")
    return Event(mp_id, rfid, timestamp_ms, payload)


def format_event(event: Event) -> str:
    line = f"{event.mp_id},{event.rfid},{event.timestamp_ms}"
    if event.payload is not None:
        line += f",{event.payload}"
    return line


def split_lines(data: bytes) -> tuple[Iterable[str], bytes]:
    """``data``'s whole lines, each ended by ``\\n``, ``\\r`` or ``\\r\\n`` as in text mode and read
    one byte to a character, and the unterminated rest; a ``\\r\\n`` cut between two calls
    ends a line, then a blank one.  The lines are read one at a time."""
    end = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
    return io.StringIO(data[:end].decode("latin-1"), newline=None), data[end:]


def _parse_events(lines: Iterable[str]) -> list[Event]:
    """The events of ``lines``, sorted by timestamp."""
    events: list[Event] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            if (event := parse_event_line(line)) is not None:
                events.append(event)
        except MalformedEventError as exc:
            raise MalformedEventError(exc.reason, line=lineno) from None
    events.sort(key=_event_order)
    return events


def read_event_log(path: str | os.PathLike) -> list[Event]:
    """Events from a file, sorted by timestamp with stable ties; blank lines and lines
    starting with ``#`` are skipped."""
    with open(path, "rb") as handle:
        lines, rest = split_lines(handle.read())
    return _parse_events(chain(lines, [rest.decode("latin-1")]))  # the rest is a last line


def read_journal(path: str | os.PathLike) -> tuple[list[Event], bytes]:
    """``read_event_log`` of a journal up to its last line end, and the torn bytes after it,
    which a crash in the middle of a write leaves and which were never acknowledged."""
    with open(path, "rb") as handle:
        lines, torn = split_lines(handle.read())
    return _parse_events(lines), torn


def write_event_log(events, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as handle:
        for event in events:
            handle.write(format_event(event) + "\n")


def listen_auto(port: int, sink):
    """An ``AutoAgentListener`` serving on a thread of its own (``start()``); raises OSError
    if the port cannot be bound (OverflowError past 65535)."""
    from .listener import AutoAgentListener  # the socket and thread modules load only here

    return AutoAgentListener(port, sink).start()


def _result_paths(out_dir: str | os.PathLike, label: str, pid: int) -> tuple[str, str]:
    """The results file of the group ``label`` ("" for the ungrouped one) under ``out_dir``,
    and the part file that process ``pid`` writes it to; two processes may share out_dir."""
    name = f"results_{label}.csv" if label else "results.csv"
    return os.path.join(out_dir, name), os.path.join(out_dir, f".{name}.{pid}.part")


def _write_whole(out_dir: str | os.PathLike, label: str, write) -> str:
    """Write the results file of the group ``label`` under ``out_dir`` by ``write(handle)``,
    and return its path.  The file is written to a part file that then replaces it whole,
    so a reader never sees part of one; a failed write removes the part file and leaves
    the old file as it was."""
    path, part = _result_paths(out_dir, label, os.getpid())
    try:
        with open(part, "w", newline="", encoding="ascii") as handle:
            write(handle)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise
    return path


def write_results(tables: Iterable[ResultTable], out_dir: str | os.PathLike) -> list[str]:
    """One CSV per table under ``out_dir``, and their paths; undefined values
    become empty cells.  Each file is replaced whole, so a reader never sees part of one."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for table in tables:
        def write(handle, table=table):
            writer = csv.writer(handle)
            writer.writerow(table.columns)
            writer.writerows(table.rows)  # csv writes None as an empty cell
        written.append(_write_whole(out_dir, table.label, write))
    return written


def _quoted(field: str) -> str:
    """``field`` as csv's minimal rule writes it."""
    if any(char in field for char in (",", '"', "\r", "\n")):
        return '"' + field.replace('"', '""') + '"'
    return field


def _export_race(race, out_dir: str | os.PathLike, rank_var: str | None = None,
                 group_by: str | None = None) -> list[str]:
    """The files of ``write_results(race_results(race, rank_var, group_by), out_dir)``,
    byte for byte, and their paths in group order; the export of ``run``, ``results``
    and each ``serve`` snapshot.

    ``rank_var`` and ``group_by`` are checked before anything is written.  Two or more
    groups are split into two runs of about equal row counts, where ``os.fork`` exists
    and no other thread runs: a forked child writes the first run, this process the
    rest, and it waits for the child before it returns or raises.  If the child fails,
    or a signal stops it, this process writes its groups too, as it writes all of them
    if the fork fails.  Where ``os.sched_setaffinity`` exists and two or more CPUs are
    allowed, the child runs on those other than the one this process ran on when it
    forked, unless the OS refuses; this process's own CPUs are never changed.
    """
    groups = _groups(race, rank_var, group_by)
    os.makedirs(out_dir, exist_ok=True)
    export = functools.partial(_export_groups, race, out_dir, rank_var)
    if len(groups) < 2 or not hasattr(os, "fork") or _other_threads():
        return export(groups)
    rows = list(accumulate(len(runners) for _, runners in groups))
    cut = min(range(1, len(groups)), key=lambda end: abs(2 * rows[end - 1] - rows[-1]))
    first, rest = groups[:cut], groups[cut:]
    # with load balancing off (cpuset.sched_load_balance 0) a task stays on the CPU it started
    # on, so the child would share this process's: it moves to the others.  Pinning this
    # process instead would move it too, onto a CPU that another process may be using
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    here = _running_cpu() if len(cpus) > 1 else None
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        return export(groups)
    if pid == 0:  # exit without flushing what the parent buffered: 0 once written, else 1
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            if here is not None:
                with contextlib.suppress(OSError):  # refused, the child writes where it is
                    os.sched_setaffinity(0, cpus - {here})
            export(first)
            code = 0
        finally:
            os._exit(code)
    try:
        written = export(rest)
    finally:
        if code := _reap(pid):  # a signal may have cut the child short of removing a part file
            for label, _ in first:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_result_paths(out_dir, label, pid)[1])
    if code:
        return export(first) + written
    return [_result_paths(out_dir, label, pid)[0] for label, _ in first] + written


def _other_threads() -> bool:
    """Whether a thread besides this one runs, asked without loading ``threading``:
    forking then would copy locks that those threads may hold."""
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def _running_cpu() -> int | None:
    """The CPU this process runs on, from Linux's ``/proc/self/stat``; None where that
    cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, from the 3rd on
    except (OSError, IndexError, ValueError):
        return None


def _reap(pid: int) -> int:
    """The exit code of the child ``pid`` once it has ended, negative for the signal that
    ended it; an exception a signal handler raises meanwhile is raised once it has."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        raise
    except BaseException:
        _reap(pid)
        raise


def _export_groups(race, out_dir: str | os.PathLike, rank_var: str | None, groups) -> list[str]:
    """Write the results file of each of ``groups`` (from ``_groups``), one at a time, and
    return their paths.

    Each file is written from ready-made lines, without building its table.  Runners who
    never raced share their category's starting dict, so a group formats the cells of
    each distinct dict once.  Values are ints or None.  A group's lines are first built
    with no quoting, and built again by csv's minimal rule only if a field holds a
    character that it quotes for: the line ends and commas of the joined text then
    outnumber those of the lines.
    """
    names = race.var_names
    header = ",".join(RUNNER_COLUMNS + names) + "\r\n"
    commas = header.count(",")
    written: list[str] = []
    for label, runners, ranked in _ranked_groups(race.per_runner, groups, rank_var):
        text = _group_text(race.per_runner, names, header, runners, ranked, quoting=False)
        lines = len(runners) + 1
        if ('"' in text or text.count("\r") != lines or text.count("\n") != lines
                or text.count(",") != lines * commas):
            text = _group_text(race.per_runner, names, header, runners, ranked, quoting=True)
        written.append(_write_whole(out_dir, label, lambda handle: handle.write(text)))
    return written


def _group_text(per_runner, names, header: str, runners, ranked: int, quoting: bool) -> str:
    """A group's file: ``header``, then a line per runner, names quoted if ``quoting``."""
    # id(variables) -> their cells: each dict is held by per_runner, so no id is reused
    # while this lives, and one kept for the whole export would hold the cells of every
    # runner who raced until its end
    cells_of: dict[int, str] = {}
    lines = [header]
    for place, runner in enumerate(runners, 1):
        variables = per_runner[runner.rfid]
        if (cells := cells_of.get(id(variables))) is None:
            cells = cells_of[id(variables)] = "".join([
                "," if (value := variables[name]) is None else f",{value}" for name in names])
        runner_id, _, last_name, first_name, gender, category = runner
        if quoting:
            last_name, first_name = _quoted(last_name), _quoted(first_name)
        rank = place if place <= ranked else ""
        lines.append(f"{rank},{runner_id},{last_name},{first_name},{gender},{category}{cells}\r\n")
    return "".join(lines)
