from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from easytime.agents_io import (
    MAX_LINE_BYTES,
    MalformedEventError,
    MalformedRowError,
    format_event,
    listen_auto,
    load_runners,
    parse_event_line,
    read_event_log,
    write_event_log,
    write_results,
)
from easytime.runtime import Event, ResultTable, Runner


# --- roster -----------------------------------------------------------

def test_load_runners_parses_fixture(fixtures):
    runners = load_runners(fixtures / "rosters" / "cyclocross.csv")
    assert len(runners) == 6
    assert runners[0] == Runner(1, "CC001", "Novak", "Ana", "female", 1)
    assert runners[5] == Runner(6, "CC006", "Oblak", "Jan", "male", 3)


def write_roster(tmp_path, body: str):
    path = tmp_path / "roster.csv"
    path.write_text("id,rfid,last_name,first_name,gender,category\n" + body)
    return path


def test_load_runners_rejects_wrong_header(tmp_path):
    path = tmp_path / "roster.csv"
    path.write_text("id,rfid,surname,first_name,gender,category\n")
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert err.value.line == 1


def test_load_runners_rejects_bad_gender(tmp_path):
    path = write_roster(tmp_path, "7,TAG007,Novak,Ana,x,2\n")
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert err.value.line == 2
    assert "gender" in err.value.reason


def test_load_runners_rejects_bad_numbers(tmp_path):
    with pytest.raises(MalformedRowError):
        load_runners(write_roster(tmp_path, "x,TAG007,Novak,Ana,female,2\n"))
    with pytest.raises(MalformedRowError):
        load_runners(write_roster(tmp_path, "7,TAG007,Novak,Ana,female,old\n"))
    with pytest.raises(MalformedRowError):
        load_runners(write_roster(tmp_path, "7,TAG007,Novak,Ana,female,-1\n"))


def test_load_runners_rejects_wrong_field_count(tmp_path):
    path = write_roster(tmp_path, "7,TAG007,Novak,Ana,female\n")
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert err.value.line == 2


# --- event lines ------------------------------------------------------

def test_parse_event_line_forms():
    assert parse_event_line("1,TAG007,5000") == Event(1, "TAG007", 5000)
    assert parse_event_line("1,TAG007,5000,2") == Event(1, "TAG007", 5000, payload=2)
    assert parse_event_line(" 1 , TAG007 , 5000 ") == Event(1, "TAG007", 5000)


def test_parse_event_line_missing_timestamp():
    with pytest.raises(MalformedEventError) as err:
        parse_event_line("3,TAG007")
    assert err.value.reason == "missing timestamp"


@pytest.mark.parametrize(
    "line",
    ["3", "3,TAG007,5000,2,9", "x,TAG007,5000", "3,,5000", "3,TAG007,soon", "3,TAG007,-5", "3,TAG007,5000,x"],
)
def test_parse_event_line_rejects_garbage(line):
    with pytest.raises(MalformedEventError):
        parse_event_line(line)


def test_event_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        event = Event(
            rng.randint(1, 9),
            f"TAG{rng.randint(0, 999):03d}",
            rng.randint(0, 10**7),
            rng.choice((None, rng.randint(0, 99))),
        )
        assert parse_event_line(format_event(event)) == event


def test_read_event_log_sorts_and_skips(tmp_path):
    path = tmp_path / "events.log"
    path.write_text(
        "# comment\n"
        "1,TAG001,5000\n"
        "\n"
        "1,TAG002,3000\n"
        "2,TAG001,5000\n"
    )
    events = read_event_log(path)
    assert [e.timestamp_ms for e in events] == [3000, 5000, 5000]
    # stable: the two t=5000 lines keep file order
    assert [e.mp_id for e in events[1:]] == [1, 2]


def test_read_event_log_reports_line_number(tmp_path):
    path = tmp_path / "events.log"
    path.write_text("1,TAG001,5000\n\nbroken line\n")
    with pytest.raises(MalformedEventError) as err:
        read_event_log(path)
    assert err.value.line == 3


def test_write_event_log_round_trip(tmp_path):
    events = [Event(1, "A", 10), Event(2, "B", 20, payload=3)]
    path = tmp_path / "out.log"
    write_event_log(events, path)
    assert read_event_log(path) == events


# --- listener ---------------------------------------------------------

class Collector:
    def __init__(self):
        self.events: list[Event] = []
        self.lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        with self.lock:
            self.events.append(event)

    def wait_for(self, count: int, timeout: float = 5.0) -> list[Event]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.events) >= count:
                    return list(self.events)
            time.sleep(0.01)
        raise AssertionError(f"sink saw {len(self.events)} events, wanted {count}")


def connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    return sock, sock.makefile("rw", encoding="ascii", newline="\n")


def test_listener_acknowledges_and_delivers():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        sock, chat = connect(listener.port)
        chat.write("3,TAG007,61000\n")
        chat.flush()
        assert chat.readline().strip() == "OK"
        sock.close()
        assert sink.wait_for(1) == [Event(3, "TAG007", 61000)]


def test_listener_rejects_malformed_line_and_keeps_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        sock, chat = connect(listener.port)
        chat.write("3,TAG007\n")
        chat.flush()
        assert chat.readline().strip() == "ERR missing timestamp"
        chat.write("3,TAG007,61000\n")
        chat.flush()
        assert chat.readline().strip() == "OK"
        sock.close()
        assert sink.wait_for(1) == [Event(3, "TAG007", 61000)]
    assert len(sink.events) == 1


def test_listener_interleaved_connections_deliver_everything():
    sink = Collector()
    sent: list[Event] = []
    with listen_auto(0, sink) as listener:
        def client(tag: str, base: int):
            sock, chat = connect(listener.port)
            for i in range(100):
                event = Event(1 + i % 4, tag, base + i)
                with lock:
                    sent.append(event)
                chat.write(format_event(event) + "\n")
                chat.flush()
                assert chat.readline().strip() == "OK"
            sock.close()

        lock = threading.Lock()
        threads = [
            threading.Thread(target=client, args=("AAA", 1000)),
            threading.Thread(target=client, args=("BBB", 2000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        received = sink.wait_for(200)
    assert sorted(received, key=str) == sorted(sent, key=str)
    # per-connection order is preserved even when interleaved
    assert [e for e in received if e.rfid == "AAA"] == [e for e in sent if e.rfid == "AAA"]
    assert [e for e in received if e.rfid == "BBB"] == [e for e in sent if e.rfid == "BBB"]


def test_listener_port_in_use():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with pytest.raises(OSError):
            listen_auto(listener.port, sink)


def test_listener_answers_non_ascii_line_and_keeps_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        sock, chat = connect(listener.port)
        sock.sendall(b"\xff,TAG007,1000\n")
        assert chat.readline().strip() == "ERR mp '?' is not an integer"
        chat.write("3,TAG007,61000\n")
        chat.flush()
        assert chat.readline().strip() == "OK"
        sock.close()


def test_listener_replies_err_when_sink_raises_and_keeps_connection():
    seen: list[Event] = []

    def sink(event: Event) -> None:
        if event.rfid == "BAD":
            raise ValueError("no such\nrunner")
        seen.append(event)

    with listen_auto(0, sink) as listener:
        sock, chat = connect(listener.port)
        chat.write("3,BAD,1000\n")
        chat.flush()
        assert chat.readline().strip() == "ERR no such runner"
        chat.write("3,TAG007,61000\n")
        chat.flush()
        assert chat.readline().strip() == "OK"  # sent only after the sink returned
        assert seen == [Event(3, "TAG007", 61000)]
        sock.close()


def test_listener_cuts_off_overlong_line_only_for_that_client():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        greedy, _ = connect(listener.port)
        sock, chat = connect(listener.port)
        greedy.sendall(b"3,TAG007," + b"9" * MAX_LINE_BYTES)  # never terminated
        try:
            closed = greedy.recv(1) == b""
        except ConnectionResetError:
            closed = True
        assert closed
        for ts in (1000, 2000):
            chat.write(f"3,TAG007,{ts}\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
        greedy.close()
        sock.close()
    assert sink.events == [Event(3, "TAG007", 1000), Event(3, "TAG007", 2000)]


def test_listener_adds_no_thread_per_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        clients = []
        for i in range(20):
            sock, chat = connect(listener.port)
            clients.append(sock)
            chat.write(f"1,TAG{i:03},{i}\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
            if i == 0:
                with_one = threading.active_count()
        assert threading.active_count() == with_one
        for sock in clients:
            sock.close()
    assert len(sink.events) == 20


# --- results files ----------------------------------------------------

def sample_table(label: str) -> ResultTable:
    columns = ("rank", "id", "last_name", "first_name", "gender", "category", "RUN")
    rows = ((1, 1, "Novak", "Ana", "female", 1, 5000), (None, 2, "Kovac", "Maja", "female", 2, None))
    return ResultTable(label, columns, rows, "RUN")


def test_write_results_single_table(tmp_path):
    paths = write_results([sample_table("")], tmp_path)
    assert [p.name for p in paths] == ["results.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "rank,id,last_name,first_name,gender,category,RUN"
    assert lines[1] == "1,1,Novak,Ana,female,1,5000"
    assert lines[2] == ",2,Kovac,Maja,female,2,"  # undefined cells stay empty


def test_write_results_one_file_per_group(tmp_path):
    labels = [f"cat{c}_{g}" for c in (1, 2, 3) for g in ("female", "male")]
    paths = write_results([sample_table(label) for label in labels], tmp_path)
    assert sorted(p.name for p in paths) == sorted(f"results_{label}.csv" for label in labels)
    assert len(paths) == 6
