"""Contextual description-logic knowledge bases.

A small engine combining: an ALC-style concept language with tableau
satisfiability and subsumption; context-annotated assertions over a finite
poset of contexts with downward saturation; an imperative update language
with fuel-bounded big-step evaluation; scripted oracle transitions with
record/replay; presheaf sections with gluing and refinement stability; and
agents whose repeated interactions are checked for exact stability.

The whole public API is importable from here, but ``import ctxdl`` loads
none of it: each name, and each submodule name (``ctxdl.oracle``, ...),
imports its module on first use (PEP 562). So a ``ctxdl`` command loads
only the layers it runs: ``ctxdl sat`` never imports the programs,
oracle or agent modules, and imports the sheaf module only for a document
that declares fact universes.
"""

__version__ = "0.1.0"

# Each submodule with the public names it defines, in dependency order.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "errors": (
        "BudgetExceededError",
        "EngineError",
        "EvalAborted",
        "InteractionError",
        "LoadError",
        "OracleError",
        "ParseError",
        "RefinementChainError",
        "ReplayMismatchError",
        "ScriptLookupError",
        "SearchSpaceError",
        "UnknownNameError",
        "UnknownOracleError",
    ),
    "lexer": (),
    "concepts": (
        "And",
        "Atomic",
        "BOT",
        "Bot",
        "ConceptExpr",
        "Exists",
        "Forall",
        "Not",
        "Or",
        "Signature",
        "TOP",
        "Top",
        "nnf",
        "parse_concept",
        "print_concept",
        "subconcepts",
    ),
    "contexts": ("ContextPoset", "Covering", "validate_covering"),
    "reasoner": (
        "FiniteModel",
        "TBox",
        "check_interpretation",
        "find_witness",
        "is_satisfiable",
        "subsumes",
    ),
    "kb": (
        "Assertion",
        "AssertGuard",
        "ConceptAssertion",
        "Guard",
        "GuardAnd",
        "GuardNot",
        "KnowledgeState",
        "RoleAssertion",
        "SubsumeGuard",
        "abox_digest",
        "canonical_abox",
        "guard_sat",
        "parse_assertion",
        "saturate",
    ),
    "sheaf": (
        "Conflict",
        "Fact",
        "Glued",
        "GluingResult",
        "Incompatible",
        "NonUnique",
        "Presheaf",
        "Section",
        "compatible",
        "global_sections",
        "glue",
        "restrict",
        "stable_under_refinement",
    ),
    "kbfile": ("KBDocument", "load_kb", "load_state", "loads", "write_state"),
    "oracle": (
        "OracleQuery",
        "OracleResponse",
        "OracleSpec",
        "ScriptedOracle",
        "load_script",
        "oracle_step",
        "record_session",
        "replay_session",
        "run_session",
    ),
    "programs": (
        "Add",
        "Del",
        "EvalOutcome",
        "FuelExhausted",
        "If",
        "Program",
        "Seq",
        "Skip",
        "Terminated",
        "While",
        "evaluate",
        "evaluate_trace",
        "load_program",
        "parse_guard",
        "parse_program",
        "print_program",
    ),
    "agents": (
        "Agent",
        "FactPattern",
        "LatentStructure",
        "Manifested",
        "SeedPolicy",
        "StabilityReport",
        "interact",
        "load_agent",
        "stability_check",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"ctxdl.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"ctxdl.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
