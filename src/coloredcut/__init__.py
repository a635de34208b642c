"""Maximum colored cut and colorful cut on edge-colored multigraphs."""

import importlib

from .errors import CapExceededError, FormatError, InvariantError
from .graph import (
    ColoredGraph,
    Cut,
    cut_colors,
    is_colorful,
    parse_cut,
    parse_graph,
    serialize_cut,
    serialize_graph,
)
from .kernel import (
    KernelOutcome,
    augment_cut,
    claim1_bound,
    kernelize_colors,
    kernelize_value,
)
from .solve import (
    BRUTE_FORCE_CAP,
    SolveResult,
    brute_force_max,
    colorful_cut_decide,
    decide_max,
    greedy_half_colors,
    solve_via_kernel,
)

__version__ = "0.1.0"

# The hardness constructions and the SAT tools load on first use (PEP 562), so
# the solving subcommands never import them.  `graph`, `kernel` and `solve`
# stay eager: a library caller's first timed call must not pay their import.
# Lookups are not cached here, so `coloredcut.<name>` is whatever the defining
# module holds now, monkeypatched or traced.
_LAZY = {
    **dict.fromkeys(
        (
            "ReductionArtifact",
            "ReductionKind",
            "StructureReport",
            "assignment_to_cut",
            "cut_to_assignment",
            "embed_complete",
            "embed_complete_artifact",
            "make_k4mf_connected",
            "make_oct_one",
            "multigraph_to_simple",
            "nae_to_cliques",
            "parse_provenance",
            "sat_to_multigraph",
            "serialize_provenance",
            "strip_single_polarity",
            "verify_structural",
        ),
        "reductions",
    ),
    **dict.fromkeys(
        (
            "CnfFormula",
            "dpll_solve",
            "nae_satisfies",
            "parse_dimacs",
            "satisfies",
            "serialize_dimacs",
        ),
        "sat",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "BRUTE_FORCE_CAP",
    "CapExceededError",
    "ColoredGraph",
    "Cut",
    "FormatError",
    "InvariantError",
    "KernelOutcome",
    "SolveResult",
    "augment_cut",
    "brute_force_max",
    "claim1_bound",
    "colorful_cut_decide",
    "cut_colors",
    "decide_max",
    "greedy_half_colors",
    "is_colorful",
    "kernelize_colors",
    "kernelize_value",
    "parse_cut",
    "parse_graph",
    "serialize_cut",
    "serialize_graph",
    "solve_via_kernel",
    *_LAZY,
]
