from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, SRC, assert_no_child_left, fail_writes_in_a_child, program_source
from easytime import cli
from easytime import listener as listener_module
from easytime.agents_io import load_runners, parse_event_line, read_journal, write_results
from easytime.cli import _resume_journal, build_parser, main
from easytime.frontend import parse_source
from easytime.langdef import easytime_pp
from easytime.runtime import Event, init_race, race_results, replay
from easytime.semantics import analyze

PROGRAMS = FIXTURES / "programs"
ROSTERS = FIXTURES / "rosters"
EVENTS = FIXTURES / "events"


def run_cli(*args: str) -> int:
    return main([str(a) for a in args])


# --- check ------------------------------------------------------------

def test_check_base_program_under_base_dialect(capsys):
    assert run_cli("check", PROGRAMS / "ironman.ez", "--dialect", "easytime") == 0
    assert capsys.readouterr().out == ""


def test_check_extension_program_under_default_dialect():
    assert run_cli("check", PROGRAMS / "biathlon.ez") == 0


def test_check_extension_program_under_base_dialect_fails(capsys):
    assert run_cli("check", PROGRAMS / "biathlon.ez", "--dialect", "easytime") == 1
    out = capsys.readouterr().out
    assert "error[ParseError]" in out
    assert "dynamicvar" in out
    assert out.startswith(str(PROGRAMS / "biathlon.ez") + ":5:1:")


def test_check_semantic_error(tmp_path, capsys):
    bad = tmp_path / "bad.ez"
    bad.write_text("var X := 1;\nmp[1] -> agnt[9] { (true) -> upd X; }\n")
    assert run_cli("check", bad) == 1
    assert "UnknownAgent" in capsys.readouterr().out


def test_check_missing_file(capsys):
    assert run_cli("check", "nowhere.ez") == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_warnings_do_not_fail(tmp_path, capsys):
    source = tmp_path / "warn.ez"
    source.write_text("var X := 1;\nvar Y := 2;\nmp[1] -> agnt[1] { (true) -> upd X; }\n")
    # agent 1 is undeclared -> error; declare it to keep only the warning
    source.write_text('1 manual "m.dat";\nvar X := 1;\nvar Y := 2;\nmp[1] -> agnt[1] { (true) -> upd X; }\n')
    assert run_cli("check", source) == 0
    assert "warning[UnusedVariable]" in capsys.readouterr().out


# --- run --------------------------------------------------------------

def test_run_cyclocross_grouped_by_category(tmp_path):
    out = tmp_path / "out"
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", ROSTERS / "cyclocross.csv",
        "--events", EVENTS / "cyclocross.log",
        "--rank", "BIKE", "--group", "category", "--out", out,
    )
    assert status == 0
    names = sorted(p.name for p in out.glob("results*.csv"))
    assert names == ["results_cat1.csv", "results_cat2.csv", "results_cat3.csv"]
    cat1 = (out / "results_cat1.csv").read_text().splitlines()
    assert cat1[0] == "rank,id,last_name,first_name,gender,category,BIKE,ROUND1"
    assert cat1[1] == "1,1,Novak,Ana,female,1,400,0"
    assert cat1[2] == "2,2,Horvat,Ivo,male,1,410,0"


def test_run_writes_sorted_journal(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "run", PROGRAMS / "ironman.ez", "--dialect", "easytime",
        "--runners", ROSTERS / "ironman.csv",
        "--events", EVENTS / "ironman.log",
        "--out", out,
    )
    lines = (out / "journal.log").read_text().splitlines()
    assert len(lines) == 34
    stamps = [int(line.split(",")[2]) for line in lines]
    assert stamps == sorted(stamps)


def test_run_merges_multiple_event_files(tmp_path):
    first = tmp_path / "a.log"
    second = tmp_path / "b.log"
    first.write_text("1,BI001,5000,2\n3,BI001,20000\n3,BI001,30000\n")
    second.write_text("3,BI001,25000\n3,BI001,35000\n")
    out = tmp_path / "out"
    status = run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", first, second, "--out", out,
    )
    assert status == 0
    stamps = [int(l.split(",")[2]) for l in (out / "journal.log").read_text().splitlines()]
    assert stamps == [5000, 20000, 25000, 30000, 35000]


def test_run_empty_event_log_keeps_initial_values(tmp_path):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    out = tmp_path / "out"
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", ROSTERS / "cyclocross.csv",
        "--events", empty, "--out", out,
    )
    assert status == 0
    assert (out / "journal.log").read_text() == ""
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[1] == ",1,Novak,Ana,female,1,0,4"
    assert rows[6] == ",6,Oblak,Jan,male,3,0,9"


def test_run_and_results_of_an_empty_roster_replace_an_earlier_table(tmp_path):
    roster = tmp_path / "roster.csv"
    roster.write_text("id,rfid,last_name,first_name,gender,category\n")
    empty = tmp_path / "empty.log"
    empty.write_text("")
    header = b"rank,id,last_name,first_name,gender,category,ROUND,RUN,PENALTY\r\n"
    out, again = tmp_path / "out", tmp_path / "again"
    for directory in (out, again):  # an earlier race's table in the same directory
        directory.mkdir()
        (directory / "results.csv").write_bytes(header + b"1,1,Novak,Ana,female,1,0,5000,\r\n")
    common = (PROGRAMS / "biathlon.ez", "--runners", roster, "--rank", "RUN")
    assert run_cli("run", *common, "--events", empty, "--out", out) == 0
    assert run_cli("results", *common, "--journal", out / "journal.log", "--out", again) == 0
    for directory in (out, again):
        assert (directory / "results.csv").read_bytes() == header


def test_run_unknown_mp_names_event_index(tmp_path, capsys):
    log = tmp_path / "events.log"
    log.write_text("1,CC001,100\n9,CC001,200\n")
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", ROSTERS / "cyclocross.csv",
        "--events", log, "--out", tmp_path / "out",
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "event 1" in err
    assert "9" in err


def test_run_malformed_roster(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("id,rfid,last_name,first_name,gender,category\n1,T1,A,B,alien,1\n")
    log = tmp_path / "events.log"
    log.write_text("")
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", roster, "--events", log, "--out", tmp_path / "out",
    )
    assert status == 2
    assert "gender" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [
    ("run", ("--events", EVENTS / "cyclocross.log")),
    ("results", ("--journal", EVENTS / "cyclocross.log")),
    ("serve", ("--port", "0")),
], ids=["run", "results", "serve"])
def test_a_roster_field_past_the_csv_size_limit_is_a_roster_error(tmp_path, capsys, command, source):
    roster = tmp_path / "roster.csv"
    roster.write_text("id,rfid,last_name,first_name,gender,category\n"
                      "1,CC001,Novak,Ana,female,1\n2,CC002," + "x" * 200_000 + ",Ivo,male,1\n")
    status = run_cli(command, PROGRAMS / "cyclocross.ez", "--runners", roster, *source,
                     "--out", tmp_path / "out")
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {roster}: line 3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("rows_before", [0, 5000], ids=["first-row", "past-64k"])
def test_a_nul_byte_in_a_roster_field_is_a_roster_error(tmp_path, capsys, rows_before):
    # the csv module refuses a NUL byte itself only before Python 3.11
    roster = tmp_path / "roster.csv"
    rows = "".join(f"{i},T{i},A,B,female,1\n" for i in range(2, rows_before + 2))
    roster.write_text("id,rfid,last_name,first_name,gender,category\n" + rows
                      + "1,T1,A\x00,B,female,1\n", encoding="ascii")
    status = run_cli("run", PROGRAMS / "cyclocross.ez", "--runners", roster,
                     "--events", EVENTS / "cyclocross.log", "--out", tmp_path / "out")
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {roster}: line {rows_before + 2}: line contains NUL\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("head, line", [(b"\xef\xbb\xbf", 1), (b"", 3)], ids=["bom", "field"])
def test_a_non_ascii_byte_in_a_roster_names_its_line(tmp_path, capsys, head, line):
    roster = tmp_path / "roster.csv"
    roster.write_bytes(head + b"id,rfid,last_name,first_name,gender,category\n"
                       b"1,BI001,Novak,Ana,female,1\n2,BI002,Horv\xc3\xa1t,Ivo,male,1\n")
    status = run_cli("run", PROGRAMS / "biathlon.ez", "--runners", roster,
                     "--events", EVENTS / "biathlon.log", "--out", tmp_path / "out")
    assert status == 2
    assert capsys.readouterr().err == f"error: {roster}: line {line}: line must be ASCII\n"


@pytest.mark.parametrize("command, source", [
    ("run", "--events"), ("results", "--journal"), ("serve", None),
], ids=["run", "results", "serve-restart"])
def test_a_non_ascii_byte_in_an_event_file_names_its_line(tmp_path, capsys, command, source):
    out = tmp_path / "out"
    out.mkdir()
    events = out / "journal.log"  # where a serve restart finds it
    data = b"1,BI001,1000,60\n# caf\xc3\xa9\n2,BI001,2000\n"
    events.write_bytes(data)
    sources = (source, events) if source else ("--port", "0")
    status = run_cli(command, PROGRAMS / "biathlon.ez", "--runners", ROSTERS / "biathlon.csv",
                     *sources, "--out", out)
    assert status == 2
    assert capsys.readouterr().err == f"error: {events}: line 2: line must be ASCII\n"
    assert events.read_bytes() == data
    assert not (out / "results.csv").exists()


def test_a_roster_rfid_with_surrounding_whitespace_matches_its_events(tmp_path):
    roster = tmp_path / "roster.csv"
    roster.write_text("id,rfid,last_name,first_name,gender,category\n"
                      "1, BI001,Novak,Ana,female,1\n2,BI002 ,Horvat,Ivo,male,1\n")
    events = tmp_path / "events.log"
    events.write_text("1,BI001,5000\n")
    assert run_cli("run", PROGRAMS / "biathlon.ez", "--runners", roster,
                   "--events", events, "--out", tmp_path / "out") == 0
    assert bi001_penalty(tmp_path / "out" / "results.csv") == "5000"


def test_a_roster_rfid_and_the_same_rfid_spaced_are_a_duplicate(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("id,rfid,last_name,first_name,gender,category\n"
                      "1,BI001,Novak,Ana,female,1\n2, BI001,Horvat,Ivo,male,1\n")
    status = run_cli("run", PROGRAMS / "biathlon.ez", "--runners", roster,
                     "--events", EVENTS / "biathlon.log", "--out", tmp_path / "out")
    assert status == 2
    assert capsys.readouterr().err == f"error: {roster}: rfid BI001 appears twice in roster\n"


@pytest.mark.parametrize("command, source, message", [
    ("run", ("--events", EVENTS / "biathlon.log"), "cannot write journal: File exists"),
    ("results", ("--journal", EVENTS / "biathlon.log"), "cannot write results: File exists"),
    ("serve", ("--port", "0"), "cannot open journal: File exists"),
], ids=["run", "results", "serve"])
def test_an_out_path_that_is_a_file_is_an_io_error(tmp_path, capsys, command, source, message):
    out = tmp_path / "out"
    out.write_text("kept\n")
    status = run_cli(command, PROGRAMS / "biathlon.ez", "--runners", ROSTERS / "biathlon.csv",
                     *source, "--out", out)
    assert status == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")  # serve fails before it binds
    assert out.read_text() == "kept\n"


def test_run_reports_a_write_that_fails_in_the_export_child(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    run = ("run", PROGRAMS / "biathlon.ez", "--runners", ROSTERS / "biathlon.csv", "--rank", "RUN",
           "--group", "gender", "--out", out, "--events")
    assert run_cli(*run, EVENTS / "biathlon.log") == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    no_events = tmp_path / "none.log"
    no_events.write_text("")
    fail_writes_in_a_child(monkeypatch, "female")  # of two groups, the child writes the first
    assert run_cli(*run, no_events) == 2
    assert capsys.readouterr().err == "error: cannot write results: No space left on device\n"
    assert_no_child_left()
    assert (out / "results_female.csv").read_bytes() == before["results_female.csv"]
    assert (out / "results_male.csv").read_bytes() != before["results_male.csv"]  # the parent's
    assert sorted(path.name for path in out.iterdir()) == sorted(before)  # no part file is left


def test_run_unknown_rank_variable(tmp_path, capsys):
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", ROSTERS / "cyclocross.csv",
        "--events", EVENTS / "cyclocross.log",
        "--rank", "NOPE", "--out", tmp_path / "out",
    )
    assert status == 1
    assert "NOPE" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the replay and the journal


def test_run_duplicate_roster_rfid(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text(
        "id,rfid,last_name,first_name,gender,category\n"
        "1,CC001,Novak,Ana,female,1\n2,CC001,Horvat,Ivo,male,1\n"
    )
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", roster,
        "--events", EVENTS / "cyclocross.log", "--out", tmp_path / "out",
    )
    assert status == 2
    assert capsys.readouterr().err == f"error: {roster}: rfid CC001 appears twice in roster\n"


def test_run_warns_of_each_missing_arm_in_roster_then_variable_order(tmp_path, capsys):
    program = tmp_path / "arms.ez"
    program.write_text(
        "2 auto 192.168.225.100;\n"
        "var A := { (category==1) -> 4 };\n"
        "var B := { (category==2) -> 6 };\n"
        "mp[1] -> agnt[2] {\n  (true) -> dec A;\n  (true) -> dec B;\n}\n")
    roster = tmp_path / "roster.csv"
    roster.write_text(
        "id,rfid,last_name,first_name,gender,category\n"
        "1,R1,Novak,Ana,female,1\n2,R2,Horvat,Ivo,male,3\n3,R3,Kovac,Maja,female,2\n")
    log = tmp_path / "events.log"
    log.write_text("1,R1,1000\n")
    status = run_cli("run", program, "--runners", roster, "--events", log,
                     "--out", tmp_path / "out")
    assert status == 0
    assert capsys.readouterr().err == (
        "warning: runner 1 (R1): no value for category 1 in B\n"
        "warning: runner 2 (R2): no value for category 3 in A\n"
        "warning: runner 2 (R2): no value for category 3 in B\n"
        "warning: runner 3 (R3): no value for category 2 in A\n")


def test_run_uses_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EASYTIME_OUT", str(tmp_path / "env_out"))
    status = run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", EVENTS / "biathlon.log",
    )
    assert status == 0
    assert (tmp_path / "env_out" / "results.csv").exists()
    assert (tmp_path / "env_out" / "journal.log").exists()


def test_run_unmatched_rfid_is_kept_in_journal(tmp_path):
    log = tmp_path / "events.log"
    log.write_text("1,GHOST,100\n1,CC001,200\n")
    out = tmp_path / "out"
    status = run_cli(
        "run", PROGRAMS / "cyclocross.ez",
        "--runners", ROSTERS / "cyclocross.csv",
        "--events", log, "--out", out,
    )
    assert status == 0
    assert (out / "journal.log").read_text().splitlines() == ["1,GHOST,100", "1,CC001,200"]


# --- results ----------------------------------------------------------

def test_results_reexports_from_journal(tmp_path):
    first = tmp_path / "first"
    run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", EVENTS / "biathlon.log",
        "--rank", "RUN", "--out", first,
    )
    second = tmp_path / "second"
    status = run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", first / "journal.log",
        "--rank", "RUN", "--out", second,
    )
    assert status == 0
    assert (second / "results.csv").read_bytes() == (first / "results.csv").read_bytes()
    assert not (second / "journal.log").exists()


def test_run_and_results_step_their_race_without_a_log(tmp_path, monkeypatch):
    # the CLI steps the race it owns in place; only replay and apply_event log events
    def no_log_entries(*args, **kwargs):
        raise AssertionError("a LogEntry was built")

    monkeypatch.setattr("easytime.runtime.LogEntry", no_log_entries)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", EVENTS / "biathlon.log", "--rank", "RUN", "--out", first,
    ) == 0
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", first / "journal.log", "--rank", "RUN", "--out", second,
    ) == 0
    assert (second / "results.csv").read_bytes() == (first / "results.csv").read_bytes()


def bi001_penalty(results: Path) -> str:
    with results.open(newline="") as handle:
        return next(row["PENALTY"] for row in csv.DictReader(handle) if row["id"] == "1")


# a crash after "2,BI001,2000" was written but before its newline: that event was never acked
TORN_JOURNAL = b"1,BI001,1000,60\n2,BI001,2000"


def test_results_skips_a_torn_journal_line_and_leaves_the_file(tmp_path, capsys):
    journal = tmp_path / "journal.log"
    journal.write_bytes(TORN_JOURNAL)
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", journal, "--rank", "RUN", "--out", tmp_path / "out",
    ) == 0
    assert capsys.readouterr().err == (
        f"warning: {journal}: dropped 12 bytes of a torn last line: '2,BI001,2000'\n")
    assert journal.read_bytes() == TORN_JOURNAL
    assert bi001_penalty(tmp_path / "out" / "results.csv") == "60"


def test_results_skips_a_torn_line_that_is_not_an_event(tmp_path, capsys):
    journal = tmp_path / "journal.log"
    journal.write_bytes(b"1,BI001,1000,60\n2,BI0")
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", journal, "--rank", "RUN", "--out", tmp_path / "out",
    ) == 0
    assert "dropped 5 bytes of a torn last line: '2,BI0'" in capsys.readouterr().err
    assert bi001_penalty(tmp_path / "out" / "results.csv") == "60"


def test_run_reads_an_event_file_without_a_final_newline(tmp_path, capsys):
    # manual event files may end without a newline, so only journals have torn lines
    events = tmp_path / "events.log"
    events.write_bytes(TORN_JOURNAL)
    assert run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", events, "--rank", "RUN", "--out", tmp_path / "out",
    ) == 0
    assert "torn" not in capsys.readouterr().err
    assert bi001_penalty(tmp_path / "out" / "results.csv") == "59"


# --- serve ------------------------------------------------------------

def serve_command(out: Path, *args: str) -> list[str]:
    return [
        sys.executable, "-m", "easytime.cli",
        "serve", str(PROGRAMS / "biathlon.ez"),
        "--runners", str(ROSTERS / "biathlon.csv"),
        "--out", str(out), *[str(a) for a in args],
    ]


@pytest.fixture
def start_serve(tmp_path):
    """Start ``serve`` into ``tmp_path/served``; returns the process and its port.

    Every child started is killed and reaped at teardown, so a test that
    fails before its own ``communicate()`` leaves no server running.
    """
    started: list[subprocess.Popen] = []

    def start(*extra: str, code: str | None = None, **popen) -> tuple[subprocess.Popen, int]:
        command = serve_command(tmp_path / "served", "--port", "0", "--rank", "RUN", *extra)
        if code is not None:  # the same arguments, given to a script that calls the CLI
            command[1:3] = ["-c", code]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=SRC,
            **popen,
        )
        started.append(proc)
        banner = proc.stdout.readline()
        assert banner.startswith("listening on port "), banner
        return proc, int(banner.rsplit(" ", 1)[1])

    yield start
    for proc in started:
        proc.kill()
        proc.communicate()


def push_lines(port: int, lines: list[str], journal: Path | None = None) -> list[str]:
    """Send lines one at a time; with ``journal``, check each ``OK`` came after the write."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        chat = sock.makefile("rw", encoding="ascii", newline="\n")
        for line in lines:
            chat.write(line + "\n")
            chat.flush()
            replies.append(chat.readline().strip())
            if journal is not None and replies[-1] == "OK":
                assert journal.read_text().endswith(line + "\n")
        chat.close()
    return replies


def biathlon_lines() -> list[str]:
    return [
        line.strip()
        for line in (EVENTS / "biathlon.log").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def test_serve_matches_run(tmp_path, start_serve):
    lines = biathlon_lines()
    proc, port = start_serve("--stop-after", str(len(lines)))
    served = tmp_path / "served"
    replies = push_lines(port, lines, served / "journal.log")
    assert replies == ["OK"] * len(lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0

    ran = tmp_path / "ran"
    run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", EVENTS / "biathlon.log",
        "--rank", "RUN", "--out", ran,
    )
    assert (served / "results.csv").read_bytes() == (ran / "results.csv").read_bytes()
    assert (served / "journal.log").read_bytes() == (ran / "journal.log").read_bytes()


def test_serve_with_one_runner_of_a_category_raced_matches_run(tmp_path, start_serve):
    # both biathlon runners are in category 1; BI002 never crosses a mat, so keeps the
    # starting values BI001 shared until BI001's first event
    lines = [line for line in biathlon_lines() if ",BI001," in line]
    proc, port = start_serve("--stop-after", str(len(lines)))
    assert push_lines(port, lines) == ["OK"] * len(lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0

    log = tmp_path / "events.log"
    log.write_text("".join(line + "\n" for line in lines))
    ran = tmp_path / "ran"
    assert run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", log, "--rank", "RUN", "--out", ran,
    ) == 0
    served = (tmp_path / "served" / "results.csv").read_bytes()
    assert served == (ran / "results.csv").read_bytes()
    assert b"\r\n1,2,Horvat,Ivo,male,1,4,0,\r\n" in served  # BI002 at the starting values


def test_serve_restart_cuts_a_torn_journal_line(tmp_path, start_serve):
    # a crash mid-write leaves a last line without its newline; it was never acked
    journal = tmp_path / "served" / "journal.log"
    journal.parent.mkdir()
    journal.write_bytes(b"1,BI001,1000,60\n2,BI001,2")
    proc, port = start_serve("--stop-after", "1")
    assert push_lines(port, ["2,BI002,3000"], journal) == ["OK"]
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert journal.read_text() == "1,BI001,1000,60\n2,BI002,3000\n"
    assert err == f"warning: {journal}: dropped 9 bytes of a torn last line: '2,BI001,2'\n"

    rerun = tmp_path / "rerun"
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", journal, "--rank", "RUN", "--out", rerun,
    ) == 0
    assert (rerun / "results.csv").read_bytes() == (tmp_path / "served" / "results.csv").read_bytes()


def test_serve_restart_and_results_agree_on_a_torn_journal(tmp_path, start_serve):
    journal = tmp_path / "served" / "journal.log"
    journal.parent.mkdir()
    journal.write_bytes(TORN_JOURNAL)
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", journal, "--rank", "RUN", "--out", tmp_path / "results",
    ) == 0
    proc, port = start_serve("--stop-after", "1")
    assert push_lines(port, ["3,BI002,3000"], journal) == ["OK"]
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert err == f"warning: {journal}: dropped 12 bytes of a torn last line: '2,BI001,2000'\n"
    assert bi001_penalty(tmp_path / "results" / "results.csv") == "60"
    assert bi001_penalty(tmp_path / "served" / "results.csv") == "60"


@pytest.mark.parametrize("kept, torn", [
    (b"", b""), (b"1,A,1\n", b""), (b"", b"1,A"), (b"1,A,1\n\n", b"2"),
    # journals and tails longer than 4096 bytes
    pytest.param(b"1,A,1\n" * 1000, b"y" * 5000, id="long-journal-long-tail"),
    (b"1,A,1\n", b"z" * 9000),
])
def test_cut_torn_tail_keeps_the_journal_up_to_its_last_newline(tmp_path, capsys, kept, torn):
    journal = tmp_path / "journal.log"
    journal.write_bytes(kept + torn)
    events = [Event(1, "A", 1)] * kept.count(b"1,A,1")
    assert read_journal(journal) == (events, torn)
    assert journal.read_bytes() == kept + torn  # reading leaves the file as it is
    assert _resume_journal(journal) == events  # serve's restart cuts the tail off
    assert journal.read_bytes() == kept
    err = capsys.readouterr().err
    assert err == (f"warning: {journal}: dropped {len(torn)} bytes of a torn last line:"
                   f" {torn.decode()!r}\n" if torn else "")


def test_serve_restart_after_kill_keeps_every_acked_event(tmp_path, start_serve):
    lines = biathlon_lines()
    journal = tmp_path / "served" / "journal.log"
    proc, port = start_serve()
    assert push_lines(port, lines[:6], journal) == ["OK"] * 6
    proc.kill()
    proc.communicate(timeout=10)

    proc, port = start_serve("--stop-after", str(len(lines) - 6))
    assert push_lines(port, lines[6:], journal) == ["OK"] * (len(lines) - 6)
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert journal.read_text().splitlines() == lines

    ran = tmp_path / "ran"
    run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", EVENTS / "biathlon.log",
        "--rank", "RUN", "--out", ran,
    )
    assert (tmp_path / "served" / "results.csv").read_bytes() == (ran / "results.csv").read_bytes()


def test_serve_journal_rerun_is_byte_identical(tmp_path, start_serve):
    lines = biathlon_lines()
    proc, port = start_serve("--stop-after", str(len(lines)))
    push_lines(port, lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    served = tmp_path / "served"

    rerun = tmp_path / "rerun"
    status = run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", served / "journal.log",
        "--rank", "RUN", "--out", rerun,
    )
    assert status == 0
    assert (rerun / "results.csv").read_bytes() == (served / "results.csv").read_bytes()
    assert (rerun / "journal.log").read_bytes() == (served / "journal.log").read_bytes()


def test_serve_skips_unknown_mp_and_keeps_going(tmp_path, start_serve):
    proc, port = start_serve("--stop-after", "2")
    replies = push_lines(port, ["9,BI001,100", "1,BI001,5000,2", "3,BI001,20000"])
    # refused as run refuses it: neither journaled nor applied
    assert replies == ["ERR no measuring place 9", "OK", "OK"]
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert err == ""  # a refusal logs no traceback
    served = tmp_path / "served"
    assert (served / "journal.log").read_text().splitlines() == ["1,BI001,5000,2", "3,BI001,20000"]

    rerun = tmp_path / "rerun"
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", served / "journal.log", "--rank", "RUN", "--out", rerun,
    ) == 0
    assert (rerun / "results.csv").read_bytes() == (served / "results.csv").read_bytes()


def test_serve_journals_every_line_it_acks(tmp_path, start_serve):
    lines = ["bad", "1,BI001,5000,2", "9,BI001,6000", "1,GHOST,7000", "3,BI002,-1",
             "3,BI001,20000"]
    proc, port = start_serve("--stop-after", "3")
    replies = push_lines(port, lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert replies == ["ERR missing rfid", "OK", "ERR no measuring place 9", "OK",
                       "ERR timestamp must be >= 0, got -1", "OK"]
    journal = (tmp_path / "served" / "journal.log").read_text().splitlines()
    assert journal == [line for line, reply in zip(lines, replies) if reply == "OK"]


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time that process ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()  # the name in parentheses may hold spaces
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def limit_descriptors():
    """Run in a ``serve`` child only: room for about a dozen connections."""
    import resource

    resource.setrlimit(resource.RLIMIT_NOFILE, (24, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads CPU time from /proc")
def test_serve_out_of_descriptors_waits_for_a_free_one_without_spinning(tmp_path, start_serve):
    proc, port = start_serve(preexec_fn=limit_descriptors)
    clients = [socket.create_connection(("127.0.0.1", port), timeout=5.0) for _ in range(30)]
    try:
        # the listener accepts what it can; out of descriptors, it closes the connection
        # idle longest to accept the next one, until the backlog is empty
        time.sleep(0.5)
        idle_from = cpu_seconds(proc.pid)
        time.sleep(2.0)
        assert cpu_seconds(proc.pid) - idle_from < 0.5
        waiting = clients[-1]  # connected last, so the last one left open
        waiting.sendall(b"1,BI001,1000,60\n")
        assert waiting.recv(16) == b"OK\n"  # while the other clients stay open and idle
    finally:
        for sock in clients:
            sock.close()


def test_serve_an_idle_client_holding_every_descriptor_cannot_lock_out_a_mat(tmp_path, start_serve):
    proc, port = start_serve(preexec_fn=limit_descriptors)
    # a hog opens more connections than the listener has descriptors for, and sends nothing
    hog = [socket.create_connection(("127.0.0.1", port), timeout=5.0) for _ in range(30)]
    try:
        time.sleep(0.5)
        assert push_lines(port, ["1,BI001,1000,60", "2,BI001,2000"]) == ["OK", "OK"]
    finally:
        for sock in hog:
            sock.close()


def test_serve_zero_events(tmp_path, start_serve):
    proc, _port = start_serve()
    time.sleep(0.3)
    proc.terminate()  # SIGTERM triggers the clean-shutdown path
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    served = tmp_path / "served"
    assert (served / "journal.log").read_text() == ""
    rows = (served / "results.csv").read_text().splitlines()
    assert len(rows) == 3  # header + both runners at initial values


# a child that sends itself SIGTERM the moment it has printed the banner
SIGTERM_AFTER_BANNER = """
import builtins, os, signal, sys
from easytime.cli import main

real_print = builtins.print

def print_then_terminate(*args, **kwargs):
    real_print(*args, **kwargs)
    if args and str(args[0]).startswith("listening on port "):
        os.kill(os.getpid(), signal.SIGTERM)

builtins.print = print_then_terminate
sys.exit(main(sys.argv[1:]))
"""


def test_serve_sigterm_right_after_the_banner_still_exports(tmp_path):
    command = serve_command(tmp_path / "served", "--port", "0", "--rank", "RUN")
    child = subprocess.run(
        [sys.executable, "-c", SIGTERM_AFTER_BANNER, *command[3:]],
        capture_output=True, text=True, cwd=SRC, timeout=30,
    )
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr
    assert child.stdout.startswith("listening on port ")
    assert len((tmp_path / "served" / "results.csv").read_text().splitlines()) == 3


def replies_until_closed(sock: socket.socket) -> list[str]:
    """The reply lines ``sock`` reads until the server closes the connection."""
    data = b""
    with contextlib.suppress(ConnectionResetError):  # closed with our lines still unread
        while chunk := sock.recv(4096):
            data += chunk
    return data.decode("ascii").splitlines()


def assert_results_replay_the_journal(served: Path, out: Path) -> None:
    """``served/results.csv`` is what ``easytime results`` exports from ``served/journal.log``."""
    assert run_cli(
        "results", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--journal", served / "journal.log", "--rank", "RUN", "--out", out,
    ) == 0
    assert (out / "results.csv").read_bytes() == (served / "results.csv").read_bytes()


def test_serve_stop_after_applies_exactly_n_of_the_lines_read_with_the_nth(tmp_path, start_serve):
    lines = biathlon_lines()
    proc, port = start_serve("--stop-after", "2")
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall("".join(line + "\n" for line in lines).encode("ascii"))
        replies = replies_until_closed(sock)
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0, err
    assert replies == ["OK", "OK"]  # the later lines reach no sink and get no reply
    served = tmp_path / "served"
    assert (served / "journal.log").read_text().splitlines() == lines[:2]
    assert_results_replay_the_journal(served, tmp_path / "rerun")


def test_serve_sigint_ends_serving_and_exports(tmp_path, start_serve):
    lines = biathlon_lines()
    proc, port = start_serve()
    served = tmp_path / "served"
    assert push_lines(port, lines[:4], served / "journal.log") == ["OK"] * 4
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert err == ""
    assert (served / "journal.log").read_text().splitlines() == lines[:4]
    assert_results_replay_the_journal(served, tmp_path / "rerun")


def test_serve_in_process_puts_back_the_signal_handlers_it_found(tmp_path, monkeypatch):
    before = [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)]
    banner_r, banner_w = os.pipe()
    with open(banner_r, encoding="ascii") as banner, open(banner_w, "w", encoding="ascii") as out:
        monkeypatch.setattr(sys, "stdout", out)  # the client reads the port from the banner

        def client():
            port = int(banner.readline().rsplit(" ", 1)[1])
            replies.extend(push_lines(port, ["1,BI001,1000,60"]))

        replies: list[str] = []
        sender = threading.Thread(target=client)
        sender.start()
        try:
            assert main(serve_command(tmp_path / "served", "--port", "0", "--stop-after", "1")[3:]) == 0
        finally:
            sender.join(timeout=10)
    assert replies == ["OK"]
    assert [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)] == before


class BrokenPipeOut(io.StringIO):
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_serve_in_process_frees_its_port_when_the_banner_cannot_be_written(
        tmp_path, monkeypatch, capsys):
    before = [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)]
    built = []

    class Listener(listener_module.AutoAgentListener):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(listener_module, "AutoAgentListener", Listener)
    monkeypatch.setattr(sys, "stdout", BrokenPipeOut())
    assert main(serve_command(tmp_path / "served", "--port", "0")[3:]) == 2
    assert capsys.readouterr().err == "error: cannot write standard output: Broken pipe\n"
    (listener,) = built
    assert listener._server.fileno() == -1
    with socket.socket() as probe:  # the port is free again
        probe.bind(("0.0.0.0", listener.port))
    assert [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)] == before


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["check", "serve"])
def test_a_closed_stdout_is_an_io_error(tmp_path, command, buffered):
    # stdout's reader is gone before check prints its warning or serve its banner; the
    # failure is one error line and exit 2, whether print writes at once or at a flush
    with socket.socket() as probe:
        probe.bind(("0.0.0.0", 0))
        port = probe.getsockname()[1]
    source = tmp_path / "warn.ez"
    source.write_text('1 manual "m.dat";\nvar X := 1;\nvar Y := 2;\nmp[1] -> agnt[1] { (true) -> upd X; }\n')
    argv = (serve_command(tmp_path / "served", "--port", port) if command == "serve"
            else [sys.executable, "-m", "easytime.cli", "check", str(source)])
    if not buffered:
        argv.insert(1, "-u")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              cwd=SRC, env=env, timeout=20)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) \
        == (2, f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n")
    with socket.socket() as probe:  # serve's port is free again
        probe.bind(("0.0.0.0", port))


def test_serve_that_cannot_cut_a_torn_journal_line_is_an_io_error(tmp_path, capsys, monkeypatch):
    journal = tmp_path / "served" / "journal.log"
    journal.parent.mkdir()
    journal.write_bytes(b"1,BI001,1000,60\n2,BI001,2")

    def refuse(path, length):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS))

    monkeypatch.setattr(cli.os, "truncate", refuse)
    assert main(serve_command(tmp_path / "served", "--port", "0")[3:]) == 2
    assert capsys.readouterr() == (
        "", f"warning: {journal}: dropped 9 bytes of a torn last line: '2,BI001,2'\n"
            f"error: cannot repair journal: {os.strerror(errno.EROFS)}\n")
    assert journal.read_bytes() == b"1,BI001,1000,60\n2,BI001,2"


# a child whose sink runs BEFORE_STEP after each journal write, just before the step
WRAPPED_STEP = """
import os, signal, sys, threading
from easytime import cli

step = cli.run_statements

def before_then_step(*args):
    BEFORE_STEP
    return step(*args)

cli.run_statements = before_then_step
sys.exit(cli.main(sys.argv[1:]))
"""


def test_serve_sigterm_inside_the_sink_still_applies_the_journaled_event(tmp_path, start_serve):
    # a signal ends serving between events: never with an event journaled but not applied
    code = WRAPPED_STEP.replace("BEFORE_STEP", "os.kill(os.getpid(), signal.SIGTERM)")
    proc, port = start_serve(code=code)
    assert push_lines(port, ["1,BI001,1000,60"]) == ["OK"]
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0, err
    served = tmp_path / "served"
    assert (served / "journal.log").read_text() == "1,BI001,1000,60\n"
    assert_results_replay_the_journal(served, tmp_path / "rerun")


def test_serve_runs_its_sink_on_the_main_thread_alone(tmp_path, start_serve):
    code = WRAPPED_STEP.replace("BEFORE_STEP", "print(threading.active_count(),"
                                " threading.current_thread() is threading.main_thread(),"
                                " file=sys.stderr)")
    proc, port = start_serve("--stop-after", "2", code=code)
    assert push_lines(port, ["1,BI001,1000,60", "2,BI001,2000"]) == ["OK", "OK"]
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert err.splitlines() == ["1 True", "1 True"]


def test_serve_port_in_use(tmp_path, start_serve):
    proc, port = start_serve()
    second = subprocess.run(
        serve_command(tmp_path / "other", "--port", port),
        capture_output=True,
        text=True,
        cwd=SRC,
        timeout=10,
    )
    assert second.returncode == 2
    assert "cannot bind" in second.stderr
    proc.terminate()
    proc.communicate(timeout=10)


@pytest.mark.parametrize("option, value", [
    ("--port", "70000"), ("--port", "-1"), ("--port", "http"),
    ("--snapshot-every", "-1"), ("--stop-after", "-1"),
])
def test_serve_rejects_out_of_range_numbers_while_parsing_arguments(capsys, option, value):
    # main parses its arguments before it reads, replays or binds anything;
    # calling the parser alone keeps a regression here from starting a server
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["serve", "p.ez", "--runners", "r.csv", "--port", "0", option, value])
    assert exit_.value.code == 2
    assert f"argument {option}: expected " in capsys.readouterr().err


def test_serve_unknown_rank_fails_before_listening(tmp_path):
    res = subprocess.run(
        serve_command(tmp_path / "served", "--port", "0", "--rank", "NOPE", "--snapshot-every", "1"),
        capture_output=True,
        text=True,
        cwd=SRC,
        timeout=10,
    )
    assert res.returncode == 1
    assert "listening on port" not in res.stdout
    assert res.stderr == "error: no program variable named NOPE\n"


def replayed_results_csv(lines: list[str], out: Path) -> bytes:
    """``results.csv`` from ``race_results(replay(...))`` over ``lines`` in the order given."""
    ast = parse_source(program_source("biathlon"), easytime_pp())
    state, _ = analyze(ast)
    race = init_race(state, load_runners(ROSTERS / "biathlon.csv"))
    race = replay(race, ast, [parse_event_line(line) for line in lines])
    write_results(race_results(race, rank_var="RUN"), out)
    return (out / "results.csv").read_bytes()


def test_serve_snapshots_periodically(tmp_path, start_serve):
    lines = biathlon_lines()
    proc, port = start_serve("--stop-after", str(len(lines)), "--snapshot-every", "3")
    served = tmp_path / "served"
    for n, line in enumerate(lines, 1):
        assert push_lines(port, [line]) == ["OK"]
        # the snapshot is written before the OK, and the next one only after our next line
        if n % 3 == 0:
            expected = replayed_results_csv(lines[:n], tmp_path / f"replayed{n}")
            assert (served / "results.csv").read_bytes() == expected, n
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    assert (served / "results.csv").read_bytes() == replayed_results_csv(lines, tmp_path / "final")


def test_serve_journals_unmatched_rfids_like_run(tmp_path, start_serve):
    lines = biathlon_lines()
    # rfids not on the roster, in timestamp order among the real ones, so run keeps the order
    lines[1:1] = ["1,GHOST,5500,3"]
    lines[6:6] = ["3,NOBODY,19000"]
    lines.append("3,GHOST,60000")
    proc, port = start_serve("--stop-after", str(len(lines)))
    served = tmp_path / "served"
    assert push_lines(port, lines, served / "journal.log") == ["OK"] * len(lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0

    log = tmp_path / "events.log"
    log.write_text("".join(line + "\n" for line in lines))
    ran = tmp_path / "ran"
    status = run_cli(
        "run", PROGRAMS / "biathlon.ez",
        "--runners", ROSTERS / "biathlon.csv",
        "--events", log, "--rank", "RUN", "--out", ran,
    )
    assert status == 0
    assert (served / "journal.log").read_bytes() == (ran / "journal.log").read_bytes()
    assert (served / "results.csv").read_bytes() == (ran / "results.csv").read_bytes()


# --- help -------------------------------------------------------------
# The CLI gives argparse's formatter the width shutil.get_terminal_size would, without
# loading shutil; what it prints must be what argparse's own default prints.

def no_terminal(fd):
    raise OSError("not a terminal")


def terminal_of(columns: int):
    return lambda fd: os.terminal_size((columns, 24))


def assert_printed_as_argparse_would(monkeypatch, capsys, argv: list[str], terminal=None) -> None:
    """``main(argv)`` prints what it prints with argparse's own formatter, which reads the
    terminal through ``terminal`` if one is given."""
    def printed():
        with pytest.raises(SystemExit):
            main(argv)
        return capsys.readouterr()

    own = printed()
    assert "usage: easytime" in own.out + own.err
    monkeypatch.setattr(cli, "_help_formatter", argparse.HelpFormatter)
    if terminal is not None:
        monkeypatch.setattr(os, "get_terminal_size", terminal)
    assert printed() == own


@pytest.mark.parametrize("columns, terminal, reference", [
    pytest.param("40", no_terminal, None, id="COLUMNS=40"),
    pytest.param("80", no_terminal, None, id="COLUMNS=80"),
    pytest.param("200", no_terminal, None, id="COLUMNS=200"),
    pytest.param(None, no_terminal, None, id="no-terminal"),
    pytest.param(None, terminal_of(57), None, id="terminal-57"),
    # read as no terminal, as shutil reads it since Python 3.11; 3.10's gives argparse -2
    pytest.param(None, terminal_of(0), no_terminal, id="terminal-0"),
    pytest.param("44", terminal_of(120), None, id="COLUMNS=44-terminal-120"),
    pytest.param("0", terminal_of(63), None, id="COLUMNS=0-terminal-63"),
    pytest.param("-3", no_terminal, None, id="COLUMNS=-3"),
    pytest.param("wide", no_terminal, None, id="COLUMNS=wide"),
])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["run", "--help"],
                                  ["serve", "--help"], ["results", "--help"],
                                  ["serve", "p.ez", "--port", "0"], ["nope"]], ids=" ".join)
def test_help_and_usage_match_argparse_at_every_width(monkeypatch, capsys, argv, columns,
                                                      terminal, reference):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(os, "get_terminal_size", terminal)
    assert_printed_as_argparse_would(monkeypatch, capsys, argv, reference)


@pytest.mark.parametrize("stdout", [None, io.StringIO()], ids=["none", "no-descriptor"])
def test_help_matches_argparse_without_a_stdout_to_ask(monkeypatch, capsys, stdout):
    monkeypatch.delenv("COLUMNS", raising=False)
    monkeypatch.setattr(sys, "__stdout__", stdout)
    assert_printed_as_argparse_would(monkeypatch, capsys, ["serve", "--help"])
