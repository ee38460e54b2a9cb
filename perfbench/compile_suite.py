"""``compile_suite``: compile generated programs of both dialects, again and again.

Programs run from fixture size up to a few hundred places and declarations.
Each pass compiles the whole suite in process with ``parse_source`` and
``analyze``; then the largest program goes through ``easytime check`` in a
fresh interpreter.  ``langdef``, ``frontend`` and ``semantics`` do nearly all
the work here and the runtime does none.

A probe program with more measuring places than the parser's recursion
allows is compiled once per run.  It is a valid program, so its failure is a
defect of the system; it is reported in ``failed_share`` and on its own line,
and it is kept out of the JSON ``failed`` count, which covers the measured
operations only.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import gen
from common import CHILD_PYTHON, HostSpeed, Report, check_sample, run_child

# (places, declarations) per program; every size is generated in both dialects
SIZES = ((4, 11), (8, 16), (16, 24), (32, 40), (64, 80), (128, 160), (256, 300))
PROBE_SIZE = (520, 40)

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
import easytime
easytime.easytime_pp()
sys.stdout.write(repr(time.perf_counter() - start))
"""


def expected_ast(program: gen.Program):
    from easytime.frontend import (AgentDecl, MeasuringPlace, Predicate, ProgramAst,
                                   Statement, VarDecl)
    agents = tuple(AgentDecl(i, kind, source) for i, kind, source in program.agents)
    decls = tuple(VarDecl(d.name, d.kind, value=d.value,
                          arms=d.arms if d.kind == "categorized" else None)
                  for d in program.decls)
    places = tuple(
        MeasuringPlace(mp, agent, tuple(
            Statement(Predicate("true") if s.pred is None
                      else Predicate("equals", var=s.pred[0], value=s.pred[1]),
                      s.instr, s.target) for s in stmts))
        for mp, agent, stmts in program.places)
    return ProgramAst(agents, decls, places)


def expected_warnings(program: gen.Program) -> set[str]:
    return {f"variable {name} is never used" for name in program.unused}


def make_suite(rng) -> list[tuple[gen.Program, str]]:
    suite = []
    for places, decls in SIZES:
        for dialect in ("easytime", "easytime++"):
            program = gen.random_program(rng, dialect, places, decls)
            suite.append((program, gen.render(program)))
    return suite


def compile_pass(suite, langs) -> tuple[float, list]:
    from easytime import analyze, parse_source
    results = []
    start = time.perf_counter()
    for program, source in suite:
        ast = parse_source(source, langs[program.dialect])
        results.append((ast, analyze(ast)[1]))
    return time.perf_counter() - start, results


def verify(report: Report, suite, results, expected) -> bool:
    ok = True
    for (program, _), (ast, diags), (want_ast, want_warn) in zip(suite, results, expected):
        got_warn = {d.message for d in diags if d.severity == "warning"}
        errors = [d for d in diags if d.severity == "error"]
        ok = report.op(ast == want_ast and got_warn == want_warn and not errors,
                       f"compile of a {len(program.places)}-place {program.dialect} program"
                       f" differs from the generated model") and ok
    return ok


def probe(rng) -> str | None:
    """Compile the over-deep program; returns the failure, or None if it compiled."""
    from easytime import analyze, easytime_pp, parse_source
    program = gen.random_program(rng, "easytime++", *PROBE_SIZE)
    try:
        ast = parse_source(gen.render(program), easytime_pp())
        analyze(ast)
    except RecursionError as exc:
        return f"RecursionError ({exc})"
    return None if ast == expected_ast(program) else "wrong tree"


def run(report: Report, rng, work: Path, seconds: float) -> None:
    from easytime import easytime_base, easytime_pp

    suite = make_suite(rng)
    expected = [(expected_ast(p), expected_warnings(p)) for p, _ in suite]
    largest = max(suite, key=lambda item: len(item[1]))
    (work / "largest.ez").write_text(largest[1], "ascii")
    print(f"compile_suite: {len(suite)} programs, {sum(len(s) for _, s in suite)} bytes;"
          f" largest {len(largest[0].places)} places, {len(largest[0].decls)} declarations",
          flush=True)

    host = HostSpeed()
    setup, setup_raw, checks, rss = [], [], [], []

    def sample_round(with_check: bool):
        before = host.sample()
        res = run_child([*CHILD_PYTHON, "-c", SETUP_SNIPPET], work)
        after = host.sample()
        if report.op(res.code == 0, f"import easytime exited {res.code}: {res.stderr[-300:]!r}"):
            setup_raw.append(float(res.stdout))
            setup.append(host.scale(setup_raw[-1], before, after))
        if with_check:
            check_sample(report, work, ["largest.ez", "--dialect", largest[0].dialect],
                         expected_warnings(largest[0]), checks, rss)

    langs = {"easytime": easytime_base(), "easytime++": easytime_pp()}
    passes, scaled = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # a setup sample before every pass, a check sample before every other one
        sample_round(with_check=len(passes) % 2 == 0)
        before = host.sample()
        elapsed, results = compile_pass(suite, langs)
        after = host.sample()
        if not verify(report, suite, results, expected):
            break
        passes.append(elapsed)
        scaled.append(host.scale(elapsed, before, after))

    probe_failure = probe(rng)
    report.probes += 1
    report.probes_failed += probe_failure is not None
    report.line("probe_deep_program", "compiled" if probe_failure is None else
                f"FAILED {probe_failure}", "",
                f"({PROBE_SIZE[0]} places; a known defect, see NOTES.md)")

    if not (setup and checks and passes):
        return
    report.metric("setup_s", statistics.median(setup), "s")
    report.metric("wall_s", statistics.median(scaled), "s")
    report.metric("peak_rss_mb", statistics.median(rss), "MB")
    report.timing("setup_s", setup, "s", "at reference host speed")
    report.timing("setup_raw_s", setup_raw, "s", "as measured")
    report.timing("compile_s", scaled, "s", "at reference host speed")
    report.timing("compile_raw_s", passes, "s", "as measured")
    report.timing("check_s", checks, "s", "as measured")
    report.timing("peak_rss_mb", rss, "MB")
    report.timing("host_calibration_s", host.samples, "s", f"reference {host.REF_S:g}")
