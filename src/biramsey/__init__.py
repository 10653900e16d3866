"""Guaranteed monochromatic cliques and transitive subtournaments.

Two dual instance families: complete graphs whose pairs carry one or both
of two colors, and semicomplete digraphs whose pairs carry one or both
orientations.  The library computes, for both families, the largest
substructure guaranteed by the count m of unicolored / one-way pairs:
exact solvers and exhaustive oracles at desk scale, randomized
permutation lower bounds with exact expectation guarantees, extremal
constructions with solver-checkable certificates, and exact-rational
bound calculators.
"""

from .model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    Instance,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    Witness,
    coloring_to_digraph,
    digraph_to_coloring,
    parse_instance,
    serialize_instance,
)
from .solvers import (
    OracleTable,
    SolveResult,
    brute_force_F,
    brute_force_f,
    max_mono_clique,
    max_transitive_set,
    verify_witness,
)
from .heuristics import (
    TrialStats,
    aks_run,
    caro_wei_run,
    expected_run_size,
)
from .constructions import (
    ConstructionCert,
    ExtremalTournament,
    blowup,
    extremal_tournament,
    lex_clique_packing,
    matching_coloring,
    mixed_coloring,
    mixed_digraph,
    tournament_packing,
)
from .bounds import (
    BoundReport,
    binomial_moment_identity,
    blowup_bound,
    classic_bounds,
    first_moment_bound,
    lll_condition,
    lll_threshold,
    lower_bound_formulas,
    moment_compare,
)

__version__ = "0.1.0"

__all__ = [
    "ArcState",
    "BicoloredGraph",
    "EdgeColor",
    "Instance",
    "MonoCliqueWitness",
    "SemicompleteDigraph",
    "TransitiveWitness",
    "Witness",
    "coloring_to_digraph",
    "digraph_to_coloring",
    "parse_instance",
    "serialize_instance",
    "OracleTable",
    "SolveResult",
    "brute_force_F",
    "brute_force_f",
    "max_mono_clique",
    "max_transitive_set",
    "verify_witness",
    "TrialStats",
    "aks_run",
    "caro_wei_run",
    "expected_run_size",
    "ConstructionCert",
    "ExtremalTournament",
    "blowup",
    "extremal_tournament",
    "lex_clique_packing",
    "matching_coloring",
    "mixed_coloring",
    "mixed_digraph",
    "tournament_packing",
    "BoundReport",
    "binomial_moment_identity",
    "blowup_bound",
    "classic_bounds",
    "first_moment_bound",
    "lll_condition",
    "lll_threshold",
    "lower_bound_formulas",
    "moment_compare",
    "__version__",
]
