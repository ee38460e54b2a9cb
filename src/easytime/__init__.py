"""Compiler and race-timing runtime for the EasyTime DSL family."""

from .langdef import (
    LanguageDef,
    LanguageFragment,
    compose_language,
    easytime_base,
    easytime_pp,
    easytime_pp_fragment,
    validate_language,
)
from .frontend import ProgramAst, parse, parse_source, pretty, tokenize
from .semantics import StaticState, analyze, decl_meaning, decl_sequence
from .runtime import (
    Event,
    RaceState,
    Runner,
    apply_event,
    eval_predicate,
    init_race,
    race_results,
    replay,
    result_tables,
)
from .agents_io import listen_auto, load_runners, read_event_log, write_results

__all__ = [
    "LanguageDef",
    "LanguageFragment",
    "compose_language",
    "easytime_base",
    "easytime_pp",
    "easytime_pp_fragment",
    "validate_language",
    "ProgramAst",
    "parse",
    "parse_source",
    "pretty",
    "tokenize",
    "StaticState",
    "analyze",
    "decl_meaning",
    "decl_sequence",
    "Event",
    "RaceState",
    "Runner",
    "apply_event",
    "eval_predicate",
    "init_race",
    "race_results",
    "replay",
    "result_tables",
    "listen_auto",
    "load_runners",
    "read_event_log",
    "write_results",
]
