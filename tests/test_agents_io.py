from __future__ import annotations

import contextlib
import csv
import errno
import gc
import io
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading

import pytest

from conftest import SRC, Collector, assert_no_child_left, fail_writes_in_a_child, peak_bytes
from easytime import agents_io
from easytime.agents_io import (
    MAX_LINE_BYTES,
    MalformedEventError,
    MalformedRowError,
    _export_race,
    format_event,
    listen_auto,
    load_runners,
    parse_event_line,
    read_event_log,
    read_journal,
    write_event_log,
    write_results,
)
from easytime.listener import AutoAgentListener
from easytime.frontend import MeasuringPlace, Predicate, ProgramAst, Statement, VarDecl
from easytime.runtime import (
    GENDERS,
    GROUPINGS,
    Event,
    ResultTable,
    Runner,
    UnknownVariableError,
    init_race,
    place_statements,
    race_results,
    step_events,
)
from easytime.semantics import decl_sequence


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
    assert str(err.value) == "line 1: header must be id,rfid,last_name,first_name,gender,category"


def test_load_runners_rejects_empty_file(tmp_path):
    path = tmp_path / "roster.csv"
    path.write_text("")
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert str(err.value) == "line 1: header must be id,rfid,last_name,first_name,gender,category"


def test_load_runners_counts_blank_lines_in_error_line_numbers(tmp_path):
    path = write_roster(tmp_path, "1,TAG001,Novak,Ana,female,1\n\n2,TAG002,Kovac,Maja,female\n")
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert str(err.value) == "line 4: expected 6 fields, got 5"


def test_load_runners_skips_blank_lines_and_shares_gender_strings(tmp_path):
    path = write_roster(tmp_path, "1,TAG001,Novak,Ana,female,1\n\n2,TAG002,Horvat,Ivo,male,0\n")
    runners = load_runners(path)
    assert runners == [Runner(1, "TAG001", "Novak", "Ana", "female", 1),
                       Runner(2, "TAG002", "Horvat", "Ivo", "male", 0)]
    assert runners[0].gender is GENDERS[0] and runners[1].gender is GENDERS[1]


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


def test_load_runners_names_the_line_a_record_starts_on(tmp_path):
    # a quoted field may span lines; a later error still names its physical line
    body = '1,T1,"Novak\nJr",Ana,female,1\n2,T2,Kovac,Maja,alien,1\n'
    with pytest.raises(MalformedRowError) as err:
        load_runners(write_roster(tmp_path, body))
    assert str(err.value) == "line 4: gender must be one of female/male, got 'alien'"
    path = write_roster(tmp_path, body.replace("alien", "female"))
    assert load_runners(path)[0] == Runner(1, "T1", "Novak\nJr", "Ana", "female", 1)


def test_load_runners_strips_the_rfid_as_event_lines_do(tmp_path):
    path = write_roster(tmp_path, "1, TAG001 ,Novak,Ana,female,1\n")
    assert load_runners(path) == [Runner(1, "TAG001", "Novak", "Ana", "female", 1)]
    with pytest.raises(MalformedRowError) as err:
        load_runners(write_roster(tmp_path, "1, \t ,Novak,Ana,female,1\n"))
    assert str(err.value) == "line 2: empty rfid"


@pytest.mark.parametrize("data, line, reason", [
    (b"id,rfid,last_name,first_name,gender,category\r\n1,TAG001,Novak,Ana,female,1\r\n"
     b"2,TAG002,Horv\xc3\xa1t,Ivo,male,1\r\n", 3, "line must be ASCII"),
    (b"id,rfid,last_name,first_name,gender,category\n\n1,TAG001,A\0,B,female,1\n\xff\n",
     3, "line contains NUL"),
], ids=["field-crlf", "nul-after-blank"])
def test_load_runners_refuses_a_line_with_a_nul_or_non_ascii_byte(tmp_path, data, line, reason):
    path = tmp_path / "roster.csv"
    path.write_bytes(data)
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert (err.value.line, err.value.reason) == (line, reason)


@pytest.mark.parametrize("text, line", [
    ("id,rfid," + "x" * 200_000 + "\n", 1),
    ("id,rfid,last_name,first_name,gender,category\n1,TAG001,Novak,Ana,female,1\n"
     "2,TAG002," + "x" * 200_000 + ",Maja,female,2\n", 3),
], ids=["header", "record"])
def test_load_runners_rejects_a_field_past_the_csv_size_limit(tmp_path, text, line):
    path = tmp_path / "roster.csv"
    path.write_text(text)
    with pytest.raises(MalformedRowError) as err:
        load_runners(path)
    assert str(err.value) == f"line {line}: field larger than field limit (131072)"


# --- the roster's two paths -------------------------------------------

HEADER = "id,rfid,last_name,first_name,gender,category"

# what a roster line may be: a row, a blank line, or a row with one fault; "long" is a
# field past the size limit the property test sets
ROW_KINDS = ("plain",) * 12 + (
    "padded rfid", "blank", "quoted", "quoted comma", "quoted newline", "five fields", "seven fields",
    "bad id", "empty rfid", "bad gender", "bad category", "negative category", "nul",
    "non-ascii", "long", "five then seven")


def roster_line(rng: random.Random, rid: int, kind: str) -> str:
    """One line of ``kind``, without its line end."""
    if kind == "blank":
        return ""
    if kind == "five then seven":  # each field lands in a valid column if lines are not counted
        return f"{rid},T{rid},Novak,Ana,female\n{rid},3,x,y,female,male,4"
    fields = [str(rid), f"T{rid}", rng.choice(("Novak", "Kova c", "")), rng.choice(("Ana", " Ivo")),
              rng.choice(GENDERS), str(rng.randint(0, 3))]
    if kind == "padded rfid":
        fields[1] = f" T{rid}\t"
    elif kind == "quoted":  # six fields by column too, but csv drops the quotes
        column = rng.choice((1, 2, 3))
        fields[column] = f'"{fields[column]}"'
    elif kind == "quoted comma":
        fields[2] = '"Novak, Jr"'
    elif kind == "quoted newline":
        fields[3] = '"Ana\r\nMarija"'
    elif kind == "five fields":
        del fields[3]
    elif kind == "seven fields":
        fields.append("x")
    elif kind == "bad id":
        fields[0] = rng.choice(("x", "", "1.5"))
    elif kind == "empty rfid":
        fields[1] = rng.choice(("", " \t "))
    elif kind == "bad gender":
        fields[4] = rng.choice(("x", "Female", ""))
    elif kind == "bad category":
        fields[5] = rng.choice(("old", ""))
    elif kind == "negative category":
        fields[5] = "-1"
    elif kind == "nul":
        fields[2] += "\0"
    elif kind == "non-ascii":
        fields[3] += "\xe1"
    elif kind == "long":
        fields[2] = "x" * 120
    return ",".join(fields)


def random_roster(rng: random.Random) -> tuple[str, set[str]]:
    """A roster's text, one character per byte, and the kinds of lines it holds."""
    ends = rng.choice((["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]))
    header = rng.choice((HEADER,) * 14 + (
        "", HEADER + " ", HEADER.replace("last_name", "surname"), '"id",rfid,last_name,first_name,'
        "gender,category", "\n" + HEADER, HEADER + ",x"))
    odd = rng.choice((0.0, 0.0, 0.03, 0.15))  # the share of lines of another kind
    kinds = [rng.choice(ROW_KINDS) if rng.random() < odd else "plain"
             for _ in range(rng.choice((0, rng.randint(1, 40))))]
    lines = [header] + [roster_line(rng, rid, kind) for rid, kind in enumerate(kinds, 1)]
    text = "".join(line + rng.choice(ends) for line in lines)
    if rng.random() < 0.2:  # no line end after the last line
        text = text.rstrip("\r\n")
    seen = {kind for kind in kinds if kind != "plain"} | {"-".join(map(repr, ends))}
    if header != HEADER:
        seen.add("header variant")
    return text, seen


def outcome(read, *args):
    """What ``read(*args)`` gives: its runners as plain tuples with their types and gender
    strings, or its error's type, message and line."""
    try:
        runners = read(*args)
    except MalformedRowError as exc:
        return type(exc), str(exc), exc.line
    assert all(runner.gender is GENDERS[GENDERS.index(runner.gender)] for runner in runners)
    return [(type(runner), *runner) for runner in runners]


def read_by_rows(path):
    """The row loop alone over the whole file, header included."""
    with open(path, newline="", encoding="latin-1") as handle:
        return agents_io._read_rows(handle)


def test_property_the_column_path_reads_what_the_row_loop_reads(tmp_path, monkeypatch):
    rng = random.Random(2610)
    path = tmp_path / "roster.csv"
    seen, column_read = set(), 0
    limit = csv.field_size_limit()
    try:
        for _ in range(400):
            text, kinds = random_roster(rng)
            seen |= kinds
            path.write_bytes(text.encode("latin-1"))
            # small blocks cut the roster, and its "\r\n"s, at many places
            monkeypatch.setattr(agents_io, "BLOCK_CHARS", rng.choice((1, 5, 30, 64, 200, 16384)))
            # a "long" field passes the smaller limit, so the size check is reached
            csv.field_size_limit(rng.choice((100, limit, limit)))
            assert outcome(load_runners, path) == outcome(read_by_rows, path), text
            # the column path alone, on the lines after the header
            header = io.StringIO(text, newline="").readline()
            body = text[len(header):] if header.rstrip("\r\n") == HEADER else ""
            if body and '"' not in body and (block := agents_io._block_runners(body)) is not None:
                column_read += 1
                assert block == agents_io._read_rows(io.StringIO(text, newline="")), body
    finally:
        csv.field_size_limit(limit)
    assert column_read > 50
    assert seen >= set(ROW_KINDS) - {"plain"} | {"header variant", "'\\n'", "'\\r\\n'", "'\\r'",
                                                   "'\\n'-'\\r\\n'-'\\r'"}, seen


def test_the_column_path_counts_fields_per_line_not_per_block():
    # five fields then seven: each of the twelve fits its column if lines are not counted
    assert agents_io._block_runners("1,T1,Novak,Ana,female\n1,3,x,y,female,male,4\n") is None


def crlf_roster_cut_at_a_block(rows: int) -> str:
    """A CRLF roster of ``rows`` rows whose first block read ends between a CR and its LF."""
    lines = [f"{rid},MR{rid:06d},Kovac,Zan,{GENDERS[rid % 2]},{rid % 9}\r\n"
             for rid in range(1, rows + 1)]
    body = "".join(lines)
    pad = agents_io.BLOCK_CHARS - 1 - body.rindex("\r", 0, agents_io.BLOCK_CHARS)
    lines[0] = lines[0].replace("Kovac", "Kovac" + "x" * pad)
    assert "".join(lines)[agents_io.BLOCK_CHARS - 1] == "\r"
    return HEADER + "\r\n" + "".join(lines)


def test_a_quote_free_roster_of_many_blocks_never_reaches_the_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "roster.csv"
    text = crlf_roster_cut_at_a_block(2_000)
    assert len(text) > 3 * agents_io.BLOCK_CHARS
    path.write_bytes(text.encode("ascii"))
    expected = read_by_rows(path)

    def refuse(*args):
        raise AssertionError("the row loop was reached")
    with monkeypatch.context() as patch:
        patch.setattr(agents_io, "_read_rows", refuse)
        assert load_runners(path) == expected
    assert len(expected) == 2_000 and expected[0].last_name.startswith("Kovacx")
    # a fault after the cut is named on its line, as the row loop names it
    faulty = text.replace("MR001999,Kovac,Zan,male", "MR001999,Kovac,Zan,alien")
    path.write_bytes(faulty.encode("ascii"))
    assert outcome(load_runners, path) == outcome(read_by_rows, path) == (
        MalformedRowError, "line 2000: gender must be one of female/male, got 'alien'", 2000)


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


def test_read_event_log_and_read_journal_split_lines_as_text_mode(tmp_path):
    path = tmp_path / "events.log"
    data = b"1,A,5000\r\n1,B,3000\r2,A,6000\nbroken"
    events = [Event(1, "B", 3000), Event(1, "A", 5000), Event(2, "A", 6000)]
    path.write_bytes(data)
    assert read_journal(path) == (events, b"broken")
    with pytest.raises(MalformedEventError) as err:
        read_event_log(path)
    assert err.value.line == 4
    path.write_bytes(data[:data.rindex(b"\n") + 1])
    assert read_event_log(path) == events
    assert read_journal(path) == (events, b"")
    path.write_bytes(b"1,A,5000\n\xc3\xa9\n")
    for read in (read_event_log, read_journal):
        with pytest.raises(MalformedEventError) as err:
            read(path)
        assert str(err.value) == "line 2: line must be ASCII"
    path.write_bytes(b"1,A,5000\n\xc3\xa9")  # a torn tail is left out undecoded
    assert read_journal(path) == ([Event(1, "A", 5000)], b"\xc3\xa9")


def test_write_event_log_round_trip(tmp_path):
    events = [Event(1, "A", 10), Event(2, "B", 20, payload=3)]
    path = tmp_path / "out.log"
    write_event_log(events, path)
    assert read_event_log(path) == events


# --- listener ---------------------------------------------------------

@contextlib.contextmanager
def connect(port: int):
    """A client socket and a text file over it; both are closed on leaving, also when
    an assertion fails, since a leaked socket fails a later test's warning filter."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        with sock.makefile("rw", encoding="ascii", newline="\n") as chat:
            yield sock, chat


def test_listener_acknowledges_and_delivers():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            chat.write("3,TAG007,61000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
        assert sink.wait_for(1, timeout=5.0) == [Event(3, "TAG007", 61000)]


def test_listener_rejects_malformed_line_and_keeps_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            chat.write("3,TAG007\n")
            chat.flush()
            assert chat.readline().strip() == "ERR missing timestamp"
            chat.write("3,TAG007,61000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
        assert sink.wait_for(1, timeout=5.0) == [Event(3, "TAG007", 61000)]
    assert len(sink.events) == 1


def test_listener_interleaved_connections_deliver_everything():
    sink = Collector()
    sent: list[Event] = []
    with listen_auto(0, sink) as listener:
        def client(tag: str, base: int):
            with connect(listener.port) as (sock, chat):
                for i in range(100):
                    event = Event(1 + i % 4, tag, base + i)
                    with lock:
                        sent.append(event)
                    chat.write(format_event(event) + "\n")
                    chat.flush()
                    assert chat.readline().strip() == "OK"

        lock = threading.Lock()
        threads = [
            threading.Thread(target=client, args=("AAA", 1000)),
            threading.Thread(target=client, args=("BBB", 2000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        received = sink.wait_for(200, timeout=5.0)
    assert sorted(received, key=str) == sorted(sent, key=str)
    # per-connection order is preserved even when interleaved
    assert [e for e in received if e.rfid == "AAA"] == [e for e in sent if e.rfid == "AAA"]
    assert [e for e in received if e.rfid == "BBB"] == [e for e in sent if e.rfid == "BBB"]


def test_listener_ends_a_reset_connection_and_serves_the_next(caplog):
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            chat.write("3,TAG007,1000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
            # no linger: the close sends a reset, so the listener's next recv raises
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        with connect(listener.port) as (sock, chat):
            chat.write("3,TAG008,2000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
    assert sink.events == [Event(3, "TAG007", 1000), Event(3, "TAG008", 2000)]
    assert not [record for record in caplog.records if record.levelname == "ERROR"]


def test_listener_port_in_use():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with pytest.raises(OSError):
            listen_auto(listener.port, sink)


def test_listener_closes_its_socket_when_bind_rejects_the_port():
    # a leaked socket fails the suite through the ResourceWarning filter
    with pytest.raises(OverflowError):
        listen_auto(70000, Collector())
    gc.collect()


def out_of_descriptors(*args):
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("target", ["socket.socketpair", "selectors.DefaultSelector"])
def test_listener_closes_what_it_opened_when_start_up_fails(monkeypatch, target):
    # a leaked socket fails the suite through the ResourceWarning filter
    monkeypatch.setattr(f"easytime.listener.{target}", out_of_descriptors)
    with pytest.raises(OSError):
        listen_auto(0, Collector())
    gc.collect()


def test_listener_keeps_a_connection_reported_readable_with_nothing_to_read():
    # select(2) may report a socket readable whose read still blocks, as after a bad checksum
    with AutoAgentListener(0, Collector()) as listener:
        with connect(listener.port) as (sock, chat):
            listener._accept()
            (key,) = [key for key in listener._selector.get_map().values() if key.data]
            listener._read(key.fileobj, key.data)  # nothing sent, so recv would block
            assert key in listener._selector.get_map().values()
            listener.start()
            chat.write("3,TAG007,61000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"


def test_leaving_a_with_block_closes_a_listener_that_never_served():
    # a leaked socket fails the suite through the ResourceWarning filter
    with AutoAgentListener(0, Collector()):
        pass
    gc.collect()


def test_a_listener_closed_unserved_serves_no_more_and_closes_nothing_twice():
    with AutoAgentListener(0, Collector()) as listener:
        pass
    assert [sock.fileno() for sock in (listener._server, listener._wake_r, listener._wake_w)] \
        == [-1, -1, -1]
    listener.serve()  # stopped and closed: returns at once


def test_listener_answers_non_ascii_line_and_keeps_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            sock.sendall(b"\xff,TAG007,1000\n")
            assert chat.readline().strip() == "ERR line must be ASCII"
            chat.write("3,TAG007,61000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"


def test_listener_refuses_a_non_ascii_field_before_the_sink(caplog):
    # the line would parse, but a journal, ASCII by contract, could not hold it
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            sock.sendall(b"1,BI001\xe9,5000\n")
            assert chat.readline().strip() == "ERR line must be ASCII"
            chat.write("1,BI001,5000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
    assert sink.events == [Event(1, "BI001", 5000)]
    assert not [record for record in caplog.records if record.levelname == "ERROR"]


def wire_replies(port: int, data: bytes) -> list[str]:
    """The listener's replies to ``data``, sent on one connection that then stops sending."""
    with connect(port) as (sock, chat):
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)  # the listener answers every whole line, then closes
        return chat.read().splitlines()


@pytest.mark.parametrize("line, meaning", [
    (b"3,TAG007,61000\n", Event(3, "TAG007", 61000)),
    (b" 3 , TAG007 , 61000 , 2 \r\n", Event(3, "TAG007", 61000, payload=2)),
    (b"\n", None),
    (b" \t\r\n", None),
    (b"# 3,TAG007,61000\n", None),
    (b"3,TAG007\n", "missing timestamp"),
    (b"3,TAG\xc3\xa9,61000\n", "line must be ASCII"),
    (b"\xff,TAG007,1000\n", "line must be ASCII"),
    (b"# caf\xc3\xa9\n", "line must be ASCII"),
    (b"\xa03,TAG007,61000\n", "line must be ASCII"),
    (b"\x1c3,TAG007,61000\x1c\n", Event(3, "TAG007", 61000)),
    (b"\x1c\n", None),
    (b"1,A,5\r2,A,6\n", [Event(1, "A", 5), Event(2, "A", 6)]),
    (b"3,TAG007,61000,-1\n", "payload must be >= 0, got -1"),
], ids=["valid", "crlf-spaced-payload", "blank", "whitespace", "comment", "malformed",
        "utf8-field", "latin1-field", "utf8-comment", "nbsp", "x1c-around", "x1c-only",
        "bare-cr", "negative-payload"])
def test_a_line_means_the_same_in_a_file_and_on_the_wire(tmp_path, line, meaning):
    # an Event (or each of a list) is answered OK and reaches the sink, a reason is
    # answered ERR, and a skipped line (None) gets no reply and reaches no sink
    refused = isinstance(meaning, str)
    events = meaning if isinstance(meaning, list) else [meaning] if meaning and not refused else []
    replies = [f"ERR {meaning}"] if refused else ["OK"] * len(events)
    path = tmp_path / "events.log"
    path.write_bytes(line)
    if refused:
        with pytest.raises(MalformedEventError) as err:
            read_event_log(path)
        assert (err.value.line, err.value.reason) == (1, meaning)
    else:
        assert read_event_log(path) == events
    sink = Collector()
    with listen_auto(0, sink) as listener:
        assert wire_replies(listener.port, line) == replies
    assert sink.events == events


def test_listener_reads_a_crlf_cut_between_two_reads_as_a_line_end_and_a_blank_line():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            sock.sendall(b"1,A,5\r")
            assert chat.readline() == "OK\n"
            sock.sendall(b"\n2,A,6\n")  # the blank line before this one gets no reply
            assert chat.readline() == "OK\n"
    assert sink.events == [Event(1, "A", 5), Event(2, "A", 6)]


def test_listener_stopped_by_its_sink_answers_no_later_line():
    # lines read with the one whose sink call stops the listener reach no sink
    def sink(event: Event) -> None:
        seen.append(event)
        if len(seen) == 2:
            listener.stop()

    seen: list[Event] = []
    listener = AutoAgentListener(0, sink)
    with connect(listener.port) as (sock, chat):
        sock.sendall(b"".join(b"1,A,%d\n" % ts for ts in range(5)))
        listener.serve()  # returns once the sink has stopped it
        assert chat.read() == "OK\nOK\n"
    assert seen == [Event(1, "A", 0), Event(1, "A", 1)]


def test_listener_replies_err_when_sink_raises_and_keeps_connection():
    seen: list[Event] = []

    def sink(event: Event) -> None:
        if event.rfid == "BAD":
            raise ValueError("no such\nrunner")
        seen.append(event)

    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, chat):
            chat.write("3,BAD,1000\n")
            chat.flush()
            assert chat.readline().strip() == "ERR no such runner"
            chat.write("3,TAG007,61000\n")
            chat.flush()
            assert chat.readline().strip() == "OK"  # sent only after the sink returned
            assert seen == [Event(3, "TAG007", 61000)]


def test_listener_cuts_off_overlong_line_only_for_that_client():
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (greedy, _), connect(listener.port) as (sock, chat):
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
    assert sink.events == [Event(3, "TAG007", 1000), Event(3, "TAG007", 2000)]


def test_listener_answers_input_refused_by_its_sink_with_its_reason(caplog):
    def sink(event: Event) -> None:
        place_statements(ProgramAst((), (), ()))(event)  # a program with no places

    with listen_auto(0, sink) as listener:
        assert wire_replies(listener.port, b"9,TAG007,1000\n") == ["ERR no measuring place 9"]
    assert not [record for record in caplog.records if record.levelname == "ERROR"]


OVERLONG = b"1,A," + b"1" * 4996 + b"\n"  # 5,000 bytes before its newline


@pytest.mark.parametrize("first, second", [
    (b"1,A,5\n" + OVERLONG + b"1,A,6\n", b""),
    (b"1,A,5\n" + OVERLONG[:3000], OVERLONG[3000:] + b"1,A,6\n"),
], ids=["one-write", "newline-in-a-second-write"])
def test_listener_cuts_off_an_overlong_line_however_its_bytes_were_split(first, second):
    # the line before it is answered; it and the line after it reach no sink
    sink = Collector()
    with listen_auto(0, sink) as listener:
        with connect(listener.port) as (sock, _):
            sock.sendall(first)
            assert sock.recv(16) == b"OK\n"
            # closed with bytes unread, the connection may be reset
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                sock.sendall(second)  # once the listener has read the first write
                assert sock.recv(16) == b""
    assert sink.events == [Event(1, "A", 5)]


def test_listener_adds_no_thread_per_connection():
    sink = Collector()
    with listen_auto(0, sink) as listener, contextlib.ExitStack() as clients:
        for i in range(20):
            sock, chat = clients.enter_context(connect(listener.port))
            chat.write(f"1,TAG{i:03},{i}\n")
            chat.flush()
            assert chat.readline().strip() == "OK"
            if i == 0:
                with_one = threading.active_count()
        assert threading.active_count() == with_one
    assert len(sink.events) == 20


# a child with 64 descriptors that uses them all up while its listener has no connection
# open; client A connects then, client B once they are free again, and each must get its OK
OUT_OF_DESCRIPTORS = r"""
import errno, os, resource, socket, time
from easytime.agents_io import listen_auto

resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))

def exhaust():
    held = []
    try:
        while True:
            held.append(os.open(os.devnull, os.O_RDONLY))
    except OSError as exc:
        assert exc.errno == errno.EMFILE, exc
    return held

def client(port, line):
    sock = socket.socket()
    sock.settimeout(2.0)
    sock.connect(("127.0.0.1", port))
    sock.sendall(line)
    return sock

seen = []
listener = listen_auto(0, seen.append)
held = exhaust()
os.close(held.pop())  # room for client A's socket, and none to accept it with
a = client(listener.port, b"1,A,1000\n")
time.sleep(0.2)
cpu = time.process_time()
time.sleep(1.0)
spent = time.process_time() - cpu
assert spent < 0.3, f"{spent:.2f} s of CPU over 1 s short of descriptors"
for fd in held:
    os.close(fd)
b = client(listener.port, b"1,B,2000\n")
assert (a.recv(16), b.recv(16)) == (b"OK\n", b"OK\n")  # each within its 2 s timeout
assert sorted(event.rfid for event in seen) == ["A", "B"]
for sock in (a, b):  # the listener reads our end of file and closes its own end first
    sock.shutdown(socket.SHUT_WR)
    assert sock.recv(16) == b""
    sock.close()

held = exhaust()  # again, now with no connection open to close
os.close(held.pop())
c = client(listener.port, b"1,C,3000\n")
time.sleep(0.3)
start = time.monotonic()
listener.stop()
took = time.monotonic() - start
assert took < 0.5, f"stop() took {took:.2f} s while short of descriptors"
assert len(seen) == 2
"""


@pytest.mark.skipif(os.name != "posix", reason="sets RLIMIT_NOFILE")
def test_listener_out_of_descriptors_with_no_connection_open_serves_once_one_is_free():
    child = subprocess.run(
        [sys.executable, "-c", OUT_OF_DESCRIPTORS],
        capture_output=True, text=True, cwd=SRC, timeout=30,
    )
    assert child.returncode == 0, child.stderr


# --- results files ----------------------------------------------------

def sample_table(label: str) -> ResultTable:
    columns = ("rank", "id", "last_name", "first_name", "gender", "category", "RUN")
    rows = ((1, 1, "Novak", "Ana", "female", 1, 5000), (None, 2, "Kovac", "Maja", "female", 2, None))
    return ResultTable(label, columns, rows, "RUN")


def test_write_results_single_table(tmp_path):
    paths = write_results([sample_table("")], tmp_path)
    assert [os.path.basename(p) for p in paths] == ["results.csv"]
    with open(paths[0]) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "rank,id,last_name,first_name,gender,category,RUN"
    assert lines[1] == "1,1,Novak,Ana,female,1,5000"
    assert lines[2] == ",2,Kovac,Maja,female,2,"  # undefined cells stay empty


def test_write_results_keeps_the_old_table_when_a_write_fails(tmp_path):
    write_results([sample_table("")], tmp_path)
    before = (tmp_path / "results.csv").read_bytes()

    def rows_until_the_disk_fills():
        yield sample_table("").rows[0]
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_results([sample_table("")._replace(rows=rows_until_the_disk_fills())], tmp_path)
    assert (tmp_path / "results.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_write_results_one_file_per_group(tmp_path):
    labels = [f"cat{c}_{g}" for c in (1, 2, 3) for g in ("female", "male")]
    paths = write_results([sample_table(label) for label in labels], tmp_path)
    assert sorted(map(os.path.basename, paths)) == sorted(f"results_{label}.csv" for label in labels)
    assert len(paths) == 6


# --- the export -------------------------------------------------------

# the characters csv's minimal rule quotes a field for, a space and a letter
NAME_CHARS = ',"\r\n a'


def random_race(rng: random.Random):
    """A program of 0, 1 or many variables of every kind, and its race over a random
    roster, in which some runners may have names that need quoting."""
    decls = []
    for i in range(rng.choice((0, 1, 1, 2, 5))):
        kind = rng.choice(("plain", "categorized", "dynamic"))
        if kind == "plain":
            decls.append(VarDecl(f"V{i}", kind, value=rng.randint(0, 2)))
        elif kind == "categorized":  # categories 0 to 2, so a runner may have no arm
            arms = tuple((c, rng.randint(0, 2)) for c in sorted(rng.sample(range(3), rng.randint(1, 2))))
            decls.append(VarDecl(f"V{i}", kind, arms=arms))
        else:
            decls.append(VarDecl(f"V{i}", kind))
    places = []
    if decls:
        for mp_id in (1, 2, 3):
            stmts = tuple(
                Statement(Predicate("true") if rng.random() < 0.6
                          else Predicate("equals", var=rng.choice(decls).name, value=rng.randint(-1, 2)),
                          rng.choice(("upd", "dec", "dec")), rng.choice(decls).name)
                for _ in range(rng.randint(1, 3)))
            places.append(MeasuringPlace(mp_id, 1, stmts))
    ast = ProgramAst((), tuple(decls), tuple(places))
    odd = rng.choice((0.0, 0.0, 0.3))  # the share of names with a character to quote for

    def name() -> str:
        if rng.random() < odd:
            return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 4)))
        return rng.choice(("Novak", " Ana", "Ivo ", "", "Maja"))
    ids = rng.sample(range(1, 60), rng.choice((0, rng.randint(1, 14))))  # out of id order
    roster = [Runner(rid, f"R{rid}", name(), name(), rng.choice(GENDERS), rng.randint(0, 2))
              for rid in ids]
    return ast, init_race(decl_sequence(list(decls), {}), roster)


def step_random_events(rng: random.Random, ast, race) -> set[str]:
    """Step up to 20 random events on ``race``, some for rfids not on the roster, and
    return the rfids of the runners they reached; the others keep their category's
    starting dict."""
    if not ast.places:
        return set()
    rfids = [runner.rfid for runner in race.roster] + ["STRAY"]
    events = [Event(rng.randint(1, 3), rng.choice(rfids), rng.randint(0, 30),
                    rng.choice((None, None, rng.randint(0, 5))))
              for _ in range(rng.randint(0, 20))]
    return {event.rfid for event, fired in step_events(race, ast, events, []) if fired is not None}


def files_of(out_dir) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}


def assert_export_equals_the_reference(race, rank_var, group_by, out_dir, reference_dir):
    paths = _export_race(race, out_dir, rank_var, group_by)
    expected = write_results(race_results(race, rank_var, group_by), reference_dir)
    assert paths == [os.path.join(out_dir, os.path.basename(path)) for path in expected]
    assert files_of(out_dir) == files_of(reference_dir), (rank_var, group_by)


def what_a_race_holds(ast, race, raced: set[str]) -> set:
    """The cases of the export's property test that ``race``, where the runners of
    ``raced`` were reached by events, covers."""
    names = "".join(runner.last_name + runner.first_name for runner in race.roster)
    values = [value for variables in race.per_runner.values() for value in variables.values()]
    return {
        min(len(ast.decls), 2),  # 2 stands for many
        "quoted" if any(char in names for char in ',"\r\n') else "unquoted",
        *(("negative",) if any(value is not None and value < 0 for value in values) else ()),
        *(("empty roster",) if not race.roster else ()),
        # runners who raced have dicts of their own, beside a category's shared one
        *(("raced and not",) if 0 < len(raced) < len(race.roster) else ()),
    }


def test_property_the_export_writes_the_files_of_write_results(tmp_path, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rng = random.Random(2404)
    seen = set()
    for n in range(80):
        ast, race = random_race(rng)
        seen |= what_a_race_holds(ast, race, step_random_events(rng, ast, race))
        if len({(runner.category, runner.gender) for runner in race.roster}) >= 2:
            seen.add("split")  # category-gender, at least, gives the export two groups
        kinds = {decl.name: decl.kind for decl in ast.decls}
        for rank_var in (None, *race.var_names):
            seen.add(kinds.get(rank_var, "no rank"))
            for group_by in (None, *GROUPINGS):
                out = tmp_path / f"{n}-{rank_var}-{group_by}"
                assert_export_equals_the_reference(race, rank_var, group_by, out / "export",
                                                   out / "reference")
    assert seen == {0, 1, 2, "quoted", "unquoted", "negative", "empty roster", "raced and not",
                    "no rank", "plain", "categorized", "dynamic", "split"}, seen
    assert forks  # the exports of two or more groups were split with a child


def test_property_each_serve_snapshot_writes_the_files_of_write_results(tmp_path):
    # as serve does: export, step events, export into the same directory again, so a
    # cache that outlived an export would write the cells of a freed dict
    rng = random.Random(2405)
    for n in range(30):
        ast, race = random_race(rng)
        rank_var = rng.choice((None, *race.var_names))
        group_by = rng.choice((None, *GROUPINGS))
        for snapshot in range(4):
            step_random_events(rng, ast, race)
            assert_export_equals_the_reference(race, rank_var, group_by, tmp_path / f"served{n}",
                                               tmp_path / f"{n}-{snapshot}")


def test_export_of_an_empty_roster_writes_a_header_only_table_ungrouped(tmp_path):
    race = init_race(decl_sequence([VarDecl("T", "dynamic")], {}), [])
    assert _export_race(race, tmp_path, "T") == [os.path.join(tmp_path, "results.csv")]
    assert (tmp_path / "results.csv").read_bytes() == b"rank,id,last_name,first_name,gender,category,T\r\n"
    assert _export_race(race, tmp_path / "grouped", "T", "category") == []


def test_export_checks_rank_and_grouping_before_writing(tmp_path):
    race = init_race(decl_sequence([VarDecl("T", "dynamic")], {}),
                     [Runner(1, "R1", "Novak", "Ana", "female", 1)])
    with pytest.raises(UnknownVariableError):
        _export_race(race, tmp_path / "out", rank_var="NOPE")
    with pytest.raises(ValueError):
        _export_race(race, tmp_path / "out", group_by="shoe-size")
    assert not (tmp_path / "out").exists()


def test_export_keeps_the_old_table_when_a_write_fails(tmp_path, monkeypatch):
    race = init_race(decl_sequence([VarDecl("T", "dynamic")], {}),
                     [Runner(1, "R1", "Novak", "Ana", "female", 1)])
    _export_race(race, tmp_path, "T")
    before = (tmp_path / "results.csv").read_bytes()
    race.per_runner["R1"] = {"T": 5000}

    def open_on_a_full_disk(*args, **kwargs):
        handle = open(*args, **kwargs)  # the part file is made, then the write fails

        def write(text):
            raise OSError(28, "No space left on device")
        handle.write = write
        return handle
    monkeypatch.setattr(agents_io, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        _export_race(race, tmp_path, "T")
    assert (tmp_path / "results.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_export_holds_one_group_at_a_time(tmp_path):
    state = decl_sequence([VarDecl("T", "dynamic"), VarDecl("N", "plain", value=1)], {})
    roster = [Runner(i, f"R{i}", f"Last{i % 50}", f"First{i % 40}", GENDERS[i % 2], i // 2 % 10)
              for i in range(20_000)]
    race = init_race(state, roster)
    for rfid in list(race.per_runner)[::2]:
        race.per_runner[rfid] = {"T": hash(rfid) % 1000, "N": 1}

    exported = peak_bytes(lambda: _export_race(race, tmp_path, "T", "category-gender"))
    assert len(os.listdir(tmp_path)) == 20
    whole = peak_bytes(lambda: race_results(race, "T", "category-gender"))
    assert exported < whole / 3, (exported, whole)


def grouped_race(runners: int = 40):
    """A race of 40 runners in six category-gender groups, half of whom raced."""
    state = decl_sequence([VarDecl("T", "dynamic")], {})
    race = init_race(state, [Runner(i, f"R{i}", f"Last{i}", f"First{i}", GENDERS[i % 2], i % 3)
                             for i in range(runners)])
    for rfid in list(race.per_runner)[::2]:
        race.per_runner[rfid] = {"T": hash(rfid) % 100}
    return race


@pytest.mark.parametrize("failure", ["interrupted", "a bug", "a full disk"])
def test_the_groups_of_a_child_that_failed_otherwise_are_written_in_process(
        tmp_path, monkeypatch, failure):
    # a terminal's ^C reaches the child too; serve goes on, and its snapshot must be whole
    parent, write_whole = os.getpid(), agents_io._write_whole

    def write_then_fail(out_dir, label, write):
        if os.getpid() == parent:
            return write_whole(out_dir, label, write)

        def fail(handle):  # the part file is made first
            if failure == "interrupted":
                os.kill(os.getpid(), signal.SIGINT)
            raise ValueError(label)
        return write_whole(out_dir, label, fail)
    if failure == "a full disk":
        fail_writes_in_a_child(monkeypatch, "cat0_female")  # the first group: the child's
    else:
        monkeypatch.setattr(agents_io, "_write_whole", write_then_fail)
    codes, reap = [], agents_io._reap
    monkeypatch.setattr(agents_io, "_reap", lambda pid: codes.append(reap(pid)) or codes[-1])
    assert_export_equals_the_reference(grouped_race(), "T", "category-gender",
                                       tmp_path / "export", tmp_path / "reference")
    assert_no_child_left()
    # SIGINT's default action ends the child; any failure of its own exits 1
    assert codes == [-signal.SIGINT if failure == "interrupted" else 1]


def test_export_reports_a_write_that_fails_in_both_processes(tmp_path, monkeypatch):
    race = grouped_race()
    _export_race(race, tmp_path, "T", "category-gender")
    assert_no_child_left()
    before = files_of(tmp_path)
    for rfid in race.per_runner:
        race.per_runner[rfid] = {"T": 1}
    fail_writes_in_a_child(monkeypatch, "cat0_female", also_here=True)
    with pytest.raises(OSError) as raised:
        _export_race(race, tmp_path, "T", "category-gender")
    assert_no_child_left()
    assert (raised.value.errno, raised.value.strerror) == (errno.ENOSPC, "No space left on device")
    assert (tmp_path / "results_cat0_female.csv").read_bytes() == before["results_cat0_female.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted(before)  # no part file is left


def test_an_interrupt_in_both_processes_is_raised_once_the_child_is_gone(tmp_path, monkeypatch):
    # a terminal's ^C reaches the export's child too
    parent, write_whole = os.getpid(), agents_io._write_whole

    def interrupted(out_dir, label, write):
        def fail(handle):  # the part file is made first
            if os.getpid() == parent:
                raise KeyboardInterrupt
            os.kill(os.getpid(), signal.SIGINT)
        return write_whole(out_dir, label, fail)
    monkeypatch.setattr(agents_io, "_write_whole", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _export_race(grouped_race(), tmp_path, "T", "category-gender")
    assert_no_child_left()
    assert os.listdir(tmp_path) == []  # neither process left a part file


def test_a_failed_fork_exports_in_process(tmp_path, monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(os, "fork", fork)
    assert_export_equals_the_reference(grouped_race(), "T", "category-gender", tmp_path / "export",
                                       tmp_path / "reference")


def test_export_runs_in_process_while_another_thread_runs(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)
    race = grouped_race()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert_export_equals_the_reference(race, "T", "category-gender", tmp_path / "export",
                                           tmp_path / "reference")
    finally:
        release.set()
        thread.join()
    with pytest.raises(AssertionError, match="forked"):  # alone, it would fork
        _export_race(race, tmp_path / "export", "T", "category-gender")


def log_placements(monkeypatch, log, place) -> None:
    """Make ``os.sched_setaffinity(pid, cpus)`` append ``<this pid> <cpus>`` to the file
    ``log``, which a forked child's lines reach too, then call ``place(pid, cpus)``."""
    def logged(pid, cpus):
        with open(log, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {' '.join(map(str, sorted(cpus)))}\n")
        place(pid, cpus)
    monkeypatch.setattr(os, "sched_setaffinity", logged)


def placements(log) -> dict[int, list[set[int]]]:
    """The CPU masks each process set, in order, as ``log_placements`` logged them."""
    placed: dict[int, list[set[int]]] = {}
    for line in log.read_text("ascii").splitlines():
        pid, *cpus = map(int, line.split())
        placed.setdefault(pid, []).append(set(cpus))
    return placed


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the child is placed only where two or more CPUs are allowed")
def test_the_export_child_runs_on_the_cpus_its_parent_did_not(tmp_path, monkeypatch):
    cpus = os.sched_getaffinity(0)
    log = tmp_path / "placements"
    log_placements(monkeypatch, log, os.sched_setaffinity)
    at_fork, running_cpu = [], agents_io._running_cpu
    monkeypatch.setattr(agents_io, "_running_cpu", lambda: at_fork.append(running_cpu()) or at_fork[-1])
    assert_export_equals_the_reference(grouped_race(), "T", "category-gender", tmp_path / "export",
                                       tmp_path / "reference")
    assert_no_child_left()
    (here,) = at_fork
    ((pid, placed),) = placements(log).items()  # the child's alone: this process keeps its CPUs
    assert pid != os.getpid() and placed == [cpus - {here}] and here in cpus


@pytest.mark.parametrize("host", ["one CPU", "placement refused", "no sched_setaffinity", "no /proc"])
def test_an_export_whose_child_cannot_be_placed_still_forks(tmp_path, monkeypatch, host):
    log = tmp_path / "placements"
    if host == "no sched_setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def refuse(pid, cpus):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        log_placements(monkeypatch, log, refuse if host == "placement refused" else os.sched_setaffinity)
    if host == "no /proc":  # as where it is not mounted
        def open_without_proc(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            return open(path, *args, **kwargs)
        monkeypatch.setattr(agents_io, "open", open_without_proc, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one CPU" else {0, 1},
                        raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert_export_equals_the_reference(grouped_race(), "T", "category-gender", tmp_path / "export",
                                       tmp_path / "reference")
    assert_no_child_left()
    assert forks == [1]
    placed = placements(log) if log.exists() else {}
    if host == "placement refused":  # the child tried, then wrote where it was
        ((pid, _),) = placed.items()
        assert pid != os.getpid()
    else:  # with one CPU, or not knowing its own, the export tries no placement
        assert placed == {}
