from __future__ import annotations

import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES
from easytime.cli import main

PROGRAMS = FIXTURES / "programs"
ROSTERS = FIXTURES / "rosters"
EVENTS = FIXTURES / "events"
# `python -m` puts its working directory first on sys.path, so a child
# started there imports this checkout's package
SRC = Path(__file__).resolve().parents[1] / "src"


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


# --- serve ------------------------------------------------------------

def serve_command(out: Path, *args: str) -> list[str]:
    return [
        sys.executable, "-m", "easytime.cli",
        "serve", str(PROGRAMS / "biathlon.ez"),
        "--runners", str(ROSTERS / "biathlon.csv"),
        "--out", str(out), *[str(a) for a in args],
    ]


def start_serve(tmp_path, *extra: str) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        serve_command(tmp_path / "served", "--port", "0", "--rank", "RUN", *extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=SRC,
    )
    banner = proc.stdout.readline()
    assert banner.startswith("listening on port "), banner
    return proc, int(banner.rsplit(" ", 1)[1])


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


def test_serve_matches_run(tmp_path):
    lines = biathlon_lines()
    proc, port = start_serve(tmp_path, "--stop-after", str(len(lines)))
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


def test_serve_restart_after_kill_keeps_every_acked_event(tmp_path):
    lines = biathlon_lines()
    journal = tmp_path / "served" / "journal.log"
    proc, port = start_serve(tmp_path)
    assert push_lines(port, lines[:6], journal) == ["OK"] * 6
    proc.kill()
    proc.communicate(timeout=10)

    proc, port = start_serve(tmp_path, "--stop-after", str(len(lines) - 6))
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


def test_serve_journal_rerun_is_byte_identical(tmp_path):
    lines = biathlon_lines()
    proc, port = start_serve(tmp_path, "--stop-after", str(len(lines)))
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


def test_serve_skips_unknown_mp_and_keeps_going(tmp_path):
    proc, port = start_serve(tmp_path, "--stop-after", "2")
    replies = push_lines(port, ["9,BI001,100", "1,BI001,5000,2", "3,BI001,20000"])
    assert replies == ["OK"] * 3  # protocol accepts the line; the race skips it
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    journal = (tmp_path / "served" / "journal.log").read_text().splitlines()
    assert journal == ["1,BI001,5000,2", "3,BI001,20000"]
    assert "unknown mp[9]" in err


def test_serve_zero_events(tmp_path):
    proc, _port = start_serve(tmp_path)
    time.sleep(0.3)
    proc.terminate()  # SIGTERM triggers the clean-shutdown path
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    served = tmp_path / "served"
    assert (served / "journal.log").read_text() == ""
    rows = (served / "results.csv").read_text().splitlines()
    assert len(rows) == 3  # header + both runners at initial values


def test_serve_port_in_use(tmp_path):
    proc, port = start_serve(tmp_path)
    try:
        second = subprocess.run(
            serve_command(tmp_path / "other", "--port", port),
            capture_output=True,
            text=True,
            cwd=SRC,
            timeout=10,
        )
        assert second.returncode == 2
        assert "cannot bind" in second.stderr
    finally:
        proc.terminate()
        proc.communicate(timeout=10)


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


def test_serve_snapshots_periodically(tmp_path):
    lines = biathlon_lines()
    proc, port = start_serve(tmp_path, "--stop-after", str(len(lines)), "--snapshot-every", "3")
    push_lines(port, lines)
    proc.communicate(timeout=10)
    assert proc.returncode == 0
    # snapshots overwrite in place; final export leaves the file behind
    assert (tmp_path / "served" / "results.csv").exists()
