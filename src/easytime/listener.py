"""TCP listener for automatic agents, loaded by ``serve`` and ``agents_io.listen_auto``.

Its sockets close in one place, ``_release``: as ``serve`` ends, or on leaving a ``with``
block if ``serve`` never started.  ``threading`` loads only for ``start``'s thread, which
the ``serve`` command never uses, and ``logging`` only to log a failed sink: a record below
WARNING is made only if it is loaded, since logging's last resort would drop it anyway.
"""

from __future__ import annotations

import _thread
import contextlib
import errno
import select
import selectors
import socket
import sys
import time

from .agents_io import MAX_LINE_BYTES, parse_event_line, split_lines
from .runtime import InputError

ACCEPT_RETRY_S = 0.1  # out of descriptors with no connection to close, the wait between accepts


class AutoAgentListener:
    """TCP line-protocol server standing in for automatic measuring devices.

    ``serve`` runs a selector loop over all connections on the calling thread and calls
    the sink in arrival order until ``stop``.  Lines are framed by ``split_lines`` and read
    by ``parse_event_line``, as in event files: a blank or ``#`` line gets no reply, and any
    other is answered ``OK`` after the sink returns, or ``ERR <reason>`` if it is malformed
    or the sink raises; the connection stays open.  A sink refuses an event by raising a
    ``runtime.InputError``; other exceptions are logged too.  A line longer than
    ``MAX_LINE_BYTES``, ended or not, cuts its client off once the lines before it are
    answered, as does leaving replies unread until the kernel takes no more.  Out of
    descriptors, the connection idle longest is closed to make room for a new one; with
    none open, the accept is retried every ``ACCEPT_RETRY_S`` seconds.
    """

    def __init__(self, port: int, sink):
        self._sink = sink
        with contextlib.ExitStack() as opened:  # closes all if start-up fails, out of fds say
            self._server = opened.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind(("0.0.0.0", port))  # OverflowError for a port out of range
            self._server.listen()
            self._server.setblocking(False)
            self.port = self._server.getsockname()[1]
            self._wake_r, self._wake_w = map(opened.enter_context, socket.socketpair())
            self._selector = opened.enter_context(selectors.DefaultSelector())
            self._selector.register(self._server, selectors.EVENT_READ)
            self._selector.register(self._wake_r, selectors.EVENT_READ)
            opened.pop_all()  # started: _release closes them from here on
        self._stopping = False  # set by stop(), which then closes _wake_w to wake the loop
        self._serving = False  # set by serve(), which then releases every socket itself
        self._released = False
        self._thread = None
        _log("info", "listening on port %d", self.port)

    def serve(self) -> None:
        """Serve on the calling thread until ``stop``, then close every socket."""
        self._serving = True
        try:
            while not self._stopping:
                for key, _ in self._selector.select():
                    if self._stopping:  # set before _wake_r turns readable
                        break
                    if key.fileobj is self._server:
                        self._accept()
                        break  # it may close a connection later in this batch; select() again
                    self._read(key.fileobj, key.data)
        finally:
            self._release()

    def _release(self) -> None:
        """Close every registered socket, the selector and ``_wake_w``; again, do nothing."""
        if not self._released:
            self._released = True
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._selector.close()
            self._wake_w.close()

    def _accept(self) -> None:
        try:
            conn, addr = self._server.accept()
        except OSError as exc:  # descriptors ran out, or the client gave up before we got to it
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                # a client that opens connections and sends nothing must not lock out the mats
                conns = [key for key in self._selector.get_map().values() if key.data]
                if conns:
                    self._close(min(conns, key=lambda key: key.data[1]).fileobj)
                else:  # the server stays readable, so wait, not spin; stop() ends the wait
                    select.select([self._wake_r], [], [], ACCEPT_RETRY_S)
            return
        _log("debug", "connection from %s", addr)
        conn.setblocking(False)
        # a connection's data: its unterminated rest, and the monotonic time of its last read
        self._selector.register(conn, selectors.EVENT_READ, [b"", time.monotonic()])

    def _read(self, conn: socket.socket, data: list) -> None:
        try:
            chunk = conn.recv(65536)
        except BlockingIOError:  # select(2) may report a socket readable whose read blocks
            return
        except OSError:
            chunk = b""
        lines, data[0] = split_lines(data[0] + chunk)
        data[1] = time.monotonic()
        out, too_long = "", False
        for line in lines:  # a line past MAX_LINE_BYTES, ended or not, cuts the client off
            if self._stopping or (too_long := len(line) > MAX_LINE_BYTES + 1):  # + its "\n"
                break
            out += self._handle(line)
        try:
            # never wait on a client that leaves its replies unread: drop it
            sent = conn.send(out.encode("ascii", errors="replace")) if out else 0
        except OSError:
            sent = 0
        if not chunk or sent < len(out) or too_long or len(data[0]) > MAX_LINE_BYTES:
            self._close(conn)

    def _close(self, conn: socket.socket) -> None:
        self._selector.unregister(conn)
        conn.close()

    def _handle(self, line: str) -> str:
        try:
            if (event := parse_event_line(line)) is None:
                return ""  # a blank or comment line
            self._sink(event)
        except InputError as exc:  # a line that does not parse, or a refused event
            return f"ERR {exc.reason}\n"
        except Exception as exc:
            import logging

            logging.getLogger(__name__).exception("event sink failed")
            return f"ERR {' '.join(str(exc).split())}\n"
        return "OK\n"

    def start(self) -> "AutoAgentListener":
        """Run ``serve`` on a daemon thread of its own, which ``stop()`` then waits for."""
        import threading

        self._thread = threading.Thread(target=self.serve, name="easytime-listener", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """End ``serve`` between events; later lines reach no sink and get no reply.  Safe
        from the sink, a signal handler or another thread; from another, returns once
        ``start()``'s thread has closed every socket.  Every ``OK`` sent was for an event
        the sink returned from.  Closes ``_wake_w`` alone; ``_release`` closes the rest."""
        self._stopping = True
        self._wake_w.close()  # _wake_r reads end of file, which ends the loop's select()
        if self._thread is not None and self._thread.ident != _thread.get_ident():
            self._thread.join()

    def __enter__(self) -> "AutoAgentListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        if not self._serving:  # a serve() under way, on any thread, closes them as it ends
            self._release()


def _log(level: str, message: str, *args) -> None:
    """Log a record below WARNING at ``level``, if ``logging`` is loaded."""
    if (logging := sys.modules.get("logging")) is not None:
        getattr(logging.getLogger(__name__), level)(message, *args)
