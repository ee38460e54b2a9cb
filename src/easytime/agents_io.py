"""Event sources and persistence.

Manual agents and replay logs are files of event lines; automatic agents
push the same lines over TCP.  One line is ``mp,rfid,timestamp_ms[,payload]``.
Rosters and results are CSV.  The listener may serve many connections on
one thread and hands events to its sink one at a time, in arrival order.
"""

from __future__ import annotations

import csv
import io
import logging
import selectors
import socket
import threading
from pathlib import Path

from .runtime import GENDERS, Event, ResultTable, Runner

logger = logging.getLogger(__name__)

ROSTER_HEADER = ["id", "rfid", "last_name", "first_name", "gender", "category"]

# longest unterminated line a client may send; real event lines are < 100 bytes
MAX_LINE_BYTES = 4096


class MalformedRowError(Exception):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MalformedEventError(Exception):
    def __init__(self, reason: str, line: int | None = None):
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}{reason}")
        self.line = line
        self.reason = reason


def load_runners(path: str | Path) -> list[Runner]:
    """Read and validate a roster CSV; ``init_race`` checks ids and rfids are unique."""
    genders = {gender: gender for gender in GENDERS}  # runners share one string per gender
    runners: list[Runner] = []
    with open(path, newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ROSTER_HEADER:
            raise MalformedRowError(1, f"header must be {','.join(ROSTER_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ROSTER_HEADER):
                raise MalformedRowError(lineno, f"expected {len(ROSTER_HEADER)} fields, got {len(row)}")
            raw_id, rfid, last_name, first_name, raw_gender, raw_category = row
            try:
                runner_id = int(raw_id)
            except ValueError:
                raise MalformedRowError(lineno, f"id {raw_id!r} is not an integer") from None
            if not rfid:
                raise MalformedRowError(lineno, "empty rfid")
            if (gender := genders.get(raw_gender)) is None:
                raise MalformedRowError(
                    lineno, f"gender must be one of {'/'.join(GENDERS)}, got {raw_gender!r}")
            try:
                category = int(raw_category)
            except ValueError:
                raise MalformedRowError(lineno, f"category {raw_category!r} is not an integer") from None
            if category < 0:
                raise MalformedRowError(lineno, f"category must be >= 0, got {category}")
            runners.append(Runner(runner_id, rfid, last_name, first_name, gender, category))
    return runners


def parse_event_line(line: str) -> Event:
    """Parse one ``mp,rfid,timestamp_ms[,payload]`` line."""
    fields = [f.strip() for f in line.strip().split(",")]
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


def read_event_log(path: str | Path, size: int = -1) -> list[Event]:
    """Events from a file, or from its first ``size`` bytes (all of it if ``size`` is -1),
    sorted by timestamp with stable ties.

    Blank lines and lines starting with ``#`` are skipped.
    """
    events: list[Event] = []
    with open(path, "rb") as handle:
        data = handle.read(size)
    # newline=None splits lines as a file opened in text mode would
    for lineno, line in enumerate(io.StringIO(data.decode("ascii"), newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            events.append(parse_event_line(stripped))
        except MalformedEventError as exc:
            raise MalformedEventError(exc.reason, line=lineno) from None
    events.sort(key=lambda e: e.timestamp_ms)  # sort() is stable
    return events


def write_event_log(events, path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        for event in events:
            handle.write(format_event(event) + "\n")


class AutoAgentListener:
    """TCP line-protocol server standing in for automatic measuring devices.

    One thread runs a selector loop over all connections and calls the sink
    in arrival order.  A line is answered ``OK`` after the sink returns, or
    ``ERR <reason>`` if it is malformed or the sink raises; the connection
    stays open.  A client whose unterminated line exceeds ``MAX_LINE_BYTES``,
    or who leaves replies unread until the kernel takes no more, is cut off.
    """

    def __init__(self, port: int, sink):
        self._sink = sink
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._server.bind(("0.0.0.0", port))
        except BaseException:  # OSError, or OverflowError for a port out of range
            self._server.close()
            raise
        self._server.listen()
        self._server.setblocking(False)
        self.port = self._server.getsockname()[1]
        # stop() writes a byte to _wake_w to end the loop's select()
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, name="easytime-listener", daemon=True)
        self._thread.start()
        logger.info("listening on port %d", self.port)

    def _loop(self) -> None:
        try:
            while True:
                for key, _ in self._selector.select():
                    if key.fileobj is self._wake_r:
                        return
                    if key.fileobj is self._server:
                        self._accept()
                    else:
                        self._read(key.fileobj, key.data)
        finally:
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._selector.close()
            self._wake_w.close()

    def _accept(self) -> None:
        try:
            conn, addr = self._server.accept()
        except OSError:  # the client gave up before we got to it
            return
        logger.debug("connection from %s", addr)
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, bytearray())

    def _read(self, conn: socket.socket, buffer: bytearray) -> None:
        try:
            chunk = conn.recv(65536)
        except OSError:
            chunk = b""
        buffer += chunk
        end = buffer.rfind(b"\n") + 1
        out = "".join(self._handle(raw) for raw in buffer[:end].split(b"\n") if raw.strip())
        del buffer[:end]
        try:
            # never wait on a client that leaves its replies unread: drop it
            sent = conn.send(out.encode("ascii", errors="replace")) if out else 0
        except OSError:
            sent = 0
        if not chunk or sent < len(out) or len(buffer) > MAX_LINE_BYTES:
            self._selector.unregister(conn)
            conn.close()

    def _handle(self, raw: bytearray) -> str:
        try:
            event = parse_event_line(raw.decode("ascii", errors="replace"))
        except MalformedEventError as exc:
            return f"ERR {exc.reason}\n"
        try:
            self._sink(event)
        except Exception as exc:
            logger.exception("event sink failed")
            return f"ERR {' '.join(str(exc).split())}\n"
        return "OK\n"

    def stop(self) -> None:
        """Close the server and every connection; lines not yet read get no reply.

        Every ``OK`` already sent was for an event the sink returned from.
        """
        try:
            self._wake_w.send(b"\0")
        except OSError:  # the loop has already ended and closed it
            pass
        self._thread.join()

    def __enter__(self) -> "AutoAgentListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def listen_auto(port: int, sink) -> AutoAgentListener:
    """Start the listener; raises OSError if the port cannot be bound (OverflowError past 65535)."""
    return AutoAgentListener(port, sink)


def write_results(tables: list[ResultTable], out_dir: str | Path) -> list[Path]:
    """One CSV per table under ``out_dir``; undefined values become empty cells."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for table in tables:
        name = f"results_{table.label}.csv" if table.label else "results.csv"
        path = out / name
        with open(path, "w", newline="", encoding="ascii") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.columns)
            writer.writerows(table.rows)  # csv writes None as an empty cell
        written.append(path)
    return written
