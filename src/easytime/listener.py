"""TCP listener for automatic agents, loaded by ``agents_io.listen_auto``."""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import threading

from .agents_io import MAX_LINE_BYTES, MalformedEventError, parse_event_line

logger = logging.getLogger(__name__)


class AutoAgentListener:
    """TCP line-protocol server standing in for automatic measuring devices.

    One thread runs a selector loop over all connections and calls the sink
    in arrival order.  Lines are read by ``parse_event_line``, as in event
    files: a blank or ``#`` line gets no reply, and any other is answered
    ``OK`` after the sink returns, or ``ERR <reason>`` if it is malformed or
    the sink raises; the connection stays open.  A sink refuses an event by
    raising ``MalformedEventError``; other exceptions are logged too.  A client
    whose unterminated line exceeds ``MAX_LINE_BYTES``, or who leaves replies
    unread until the kernel takes no more, is cut off.  Out of descriptors, new
    clients wait until one closes.
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
            self._server.close()  # not in the map while descriptors ran out
            self._selector.close()
            self._wake_w.close()

    def _accept(self) -> None:
        try:
            conn, addr = self._server.accept()
        except OSError as exc:  # descriptors ran out, or the client gave up before we got to it
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                # the server stays readable, so watching it would spin the loop
                self._selector.unregister(self._server)
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
        out = "".join(map(self._handle, buffer[:end].split(b"\n")))
        del buffer[:end]
        try:
            # never wait on a client that leaves its replies unread: drop it
            sent = conn.send(out.encode("ascii", errors="replace")) if out else 0
        except OSError:
            sent = 0
        if not chunk or sent < len(out) or len(buffer) > MAX_LINE_BYTES:
            self._selector.unregister(conn)
            conn.close()
            if self._server not in self._selector.get_map():  # a descriptor is free again
                self._selector.register(self._server, selectors.EVENT_READ)

    def _handle(self, raw: bytearray) -> str:
        try:
            if (event := parse_event_line(raw.decode("latin-1"))) is None:
                return ""  # a blank or comment line
            self._sink(event)
        except MalformedEventError as exc:  # a line that does not parse, or a refused event
            return f"ERR {exc.reason}\n"
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
