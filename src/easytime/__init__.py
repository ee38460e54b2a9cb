"""Compiler and race-timing runtime for the EasyTime DSL family.

Each public name loads its layer on first use (PEP 562), so an entry point pays
only for the layers it runs.  ``import easytime`` loads this module alone;
``easytime_pp`` adds ``langdef`` and ``diagnostics``; ``parse_source`` adds
``frontend``; ``analyze`` adds ``semantics``; the race names add ``runtime``; and
the file names add ``agents_io`` with ``csv``.  The socket modules load only when
``listen_auto`` is called.
"""

# layer -> its public names, in the order of __all__
_LAYERS = {
    "langdef": ("LanguageDef", "LanguageFragment", "compose_language", "easytime_base",
                "easytime_pp", "easytime_pp_fragment", "validate_language"),
    "frontend": ("ProgramAst", "parse", "parse_source", "pretty", "tokenize"),
    "semantics": ("analyze", "decl_meaning", "decl_sequence"),
    "runtime": ("Event", "RaceState", "Runner", "apply_event", "eval_predicate", "init_race",
                "race_results", "replay"),
    "agents_io": ("listen_auto", "load_runners", "read_event_log", "write_results"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = ("diagnostics", *_LAYERS)

__all__ = list(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name, name if name in _SUBMODULES else None)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib: a -S interpreter has not loaded importlib's package
    __import__(f"{__name__}.{layer}")  # binds the submodule here
    value = globals()[layer] if name == layer else getattr(globals()[layer], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
