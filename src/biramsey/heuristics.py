"""Randomized permutation heuristics with exact expectation guarantees.

Two one-pass selection rules over a uniformly random vertex permutation of
a simple graph:

* keep vertices with no earlier neighbor: the output is an independent
  set, and its expected size is exactly sum(1 / (d_i + 1)).
* keep vertices with at most one earlier neighbor: the output induces a
  forest, and its expected size is exactly sum(2 / (d_i + 1)).

Lifted to the two instance families, the first rule lower-bounds the
guaranteed monochromatic clique (independent set in the minority color's
graph), the second the guaranteed transitive set (a forest of one-way
arcs always has a topological order).

Randomness: trial i draws its permutation from split(seed, i), a spawned
numpy SeedSequence, so parallel trials reproduce serial results exactly.
Best-of-trials scores its trials in numpy blocks on those same permutations,
so its sets and means equal the one-trial-at-a-time rule.
All expectations are exact rationals; guarantee comparisons are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import (
    BicoloredGraph,
    EdgeColor,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    iter_pairs,
)
from .solvers import _ORACLE_BLOCK, _one_way_out_masks, _topological_order

__all__ = [
    "SimpleGraph",
    "TrialStats",
    "ExpectationBound",
    "split_seed",
    "caro_wei_run",
    "aks_run",
    "expectation_caro_wei",
    "expectation_aks",
    "expected_run_size",
    "permutation_average_size",
    "mono_clique_trials",
    "transitive_trials",
    "blue_edge_graph",
    "red_edge_graph",
    "one_way_graph",
    "random_simple_graph",
    "is_independent_set",
    "induces_forest",
]


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1; no loops, no duplicates."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            canon.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets; built on first use and shared by later calls."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))


class ExpectationBound(NamedTuple):
    """Exact expectation of a selection rule plus its degree-regularized
    floor n / (2m/n + 1) (resp. doubled); the floor never exceeds the sum,
    by convexity."""

    sum_value: Fraction
    regularized: Fraction


@dataclass(frozen=True)
class TrialStats:
    trials: int
    mean: Fraction
    guarantee: Fraction
    best_set: tuple[int, ...]


def split_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Independent child stream i of a 64-bit seed; stable across platforms."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _permutation(
    n: int, seed: "int | np.random.SeedSequence | np.random.Generator"
) -> list[int]:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return [int(v) for v in rng.permutation(n)]


def _select_by_earlier_neighbors(
    order: Sequence[int], adjacency: Sequence[AbstractSet[int]], max_earlier: int
) -> tuple[int, ...]:
    seen: set[int] = set()
    selected: list[int] = []
    for v in order:
        if len(adjacency[v] & seen) <= max_earlier:
            selected.append(v)
        seen.add(v)
    return tuple(sorted(selected))


def caro_wei_run(
    graph: SimpleGraph, seed: "int | np.random.SeedSequence | np.random.Generator"
) -> tuple[int, ...]:
    """One trial of the zero-earlier-neighbor rule; always independent."""
    return _select_by_earlier_neighbors(
        _permutation(graph.n, seed), graph.adjacency(), 0
    )


def aks_run(
    graph: SimpleGraph, seed: "int | np.random.SeedSequence | np.random.Generator"
) -> tuple[int, ...]:
    """One trial of the at-most-one-earlier-neighbor rule; always induces a
    forest (a cycle's last vertex in the permutation has two earlier
    neighbors on the cycle)."""
    return _select_by_earlier_neighbors(
        _permutation(graph.n, seed), graph.adjacency(), 1
    )


def _expectation(graph: SimpleGraph, numerator: int) -> ExpectationBound:
    total = sum(Fraction(numerator, d + 1) for d in graph.degrees())
    n, m = graph.n, graph.edge_count
    regularized = Fraction(numerator * n * n, 2 * m + n) if n else Fraction(0)
    return ExpectationBound(total, regularized)


def expectation_caro_wei(graph: SimpleGraph) -> ExpectationBound:
    """Exact E[|output|] of :func:`caro_wei_run`: sum 1/(d_i + 1)."""
    return _expectation(graph, 1)


def expectation_aks(graph: SimpleGraph) -> ExpectationBound:
    """The classical forest-size bound sum 2/(d_i + 1).

    This is E[|output|] of :func:`aks_run` whenever every degree is
    positive, the premise of the underlying bound.  An isolated vertex is
    always kept and contributes 1 to the run size but 2 to this sum; use
    :func:`expected_run_size` for the exact expectation on any graph.
    """
    return _expectation(graph, 2)


def expected_run_size(graph: SimpleGraph, max_earlier: int) -> Fraction:
    """Exact E[|output|] of the earlier-neighbor rule on any graph:
    a vertex is kept iff it lands in the first max_earlier + 1 slots of a
    uniform arrangement of its closed neighborhood, capped at certainty."""
    return sum(
        min(Fraction(1), Fraction(max_earlier + 1, d + 1)) for d in graph.degrees()
    )


def permutation_average_size(graph: SimpleGraph, max_earlier: int) -> Fraction:
    """Average output size over all n! permutations, as an exact rational.

    Independent enumeration route for the closed-form expectations; only
    sensible at small n.
    """
    adjacency = graph.adjacency()
    total = 0
    count = 0
    for perm in permutations(range(graph.n)):
        total += len(_select_by_earlier_neighbors(perm, adjacency, max_earlier))
        count += 1
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# Validity checks (assertable per seed)


def is_independent_set(graph: SimpleGraph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    return not any(u in vs and v in vs for u, v in graph.edges)


def induces_forest(graph: SimpleGraph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    parent = {v: v for v in vs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        if u in vs and v in vs:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


# ---------------------------------------------------------------------------
# Bridges from the instance families to simple graphs


def _single_color_graph(coloring: BicoloredGraph, color: EdgeColor) -> SimpleGraph:
    edges = [
        (u, v)
        for (u, v), s in zip(iter_pairs(coloring.n), coloring.states)
        if s is color
    ]
    return SimpleGraph.from_edges(coloring.n, edges)


def blue_edge_graph(coloring: BicoloredGraph) -> SimpleGraph:
    """Simple graph of the purely blue pairs."""
    return _single_color_graph(coloring, EdgeColor.BLUE)


def red_edge_graph(coloring: BicoloredGraph) -> SimpleGraph:
    """Simple graph of the purely red pairs."""
    return _single_color_graph(coloring, EdgeColor.RED)


def one_way_graph(digraph: SemicompleteDigraph) -> SimpleGraph:
    """Underlying undirected graph of the one-way arcs."""
    return SimpleGraph.from_edges(
        digraph.n, ((min(t, h), max(t, h)) for t, h in digraph.one_way_arcs())
    )


def random_simple_graph(n: int, edge_probability: float, seed: int) -> SimpleGraph:
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u, v in iter_pairs(n) if rng.random() < edge_probability
    ]
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Best-of-trials lower-bound procedures


def _kept_blocks(
    graph: SimpleGraph, trials: int, seed: int, max_earlier: int
) -> Iterator[np.ndarray]:
    """Kept-vertex masks of the earlier-neighbor rule, one block at a time.

    Yields bool arrays of shape (trials in block, n); row r of the block
    starting at trial lo is :func:`_select_by_earlier_neighbors` on the
    permutation drawn from split(seed, lo + r).  A block holds at most
    ``_ORACLE_BLOCK`` trial x edge (or trial x vertex) entries.  Row r of
    the rank matrix holds trial r's position of every vertex; each edge is
    charged to its later endpoint, u + [rank u < rank v] (v - u), and one
    bincount over the row-offset endpoints counts every vertex's earlier
    neighbors.
    """
    n = graph.n
    us, vs = np.array(sorted(graph.edges), dtype=np.intp).reshape(-1, 2).T
    per_block = max(1, _ORACLE_BLOCK // max(1, n, len(us)))
    positions = np.arange(n, dtype=np.int32)
    for lo in range(0, trials, per_block):
        block = range(lo, min(lo + per_block, trials))
        rank = np.empty((len(block), n), dtype=np.int32)
        for row, i in zip(rank, block):
            row[np.random.default_rng(split_seed(seed, i)).permutation(n)] = positions
        later = (rank.take(us, axis=1) < rank.take(vs, axis=1)) * (vs - us)
        later += us
        later += (np.arange(len(block)) * n)[:, None]
        earlier = np.bincount(later.ravel(), minlength=len(block) * n)
        yield earlier.reshape(len(block), n) <= max_earlier


def _best_of_trials(
    graph: SimpleGraph, trials: int, seed: int, max_earlier: int
) -> tuple[tuple[int, ...], Fraction]:
    """Best kept set and mean kept size over ``trials`` seeded trials.

    The best set is the largest, then the lexicographically smallest, the
    same set a serial fold over the trials in order would keep.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    best: tuple[int, ...] = ()
    total = 0
    for kept in _kept_blocks(graph, trials, seed, max_earlier):
        sizes = kept.sum(axis=1)
        total += int(sizes.sum())
        top = int(sizes.max())
        if top >= len(best):
            run = min(tuple(np.flatnonzero(row).tolist()) for row in kept[sizes == top])
            if top > len(best) or run < best:
                best = run
    return best, Fraction(total, trials)


def mono_clique_trials(
    coloring: BicoloredGraph, trials: int, seed: int
) -> tuple[MonoCliqueWitness, TrialStats]:
    """Best-of-trials clique witness plus the run statistics.

    The minority unicolor's edges (ties: blue) form the obstacle graph; an
    independent set there spans a clique in the other color, since every
    non-obstacle pair carries it.
    """
    blue = blue_edge_graph(coloring)
    red = red_edge_graph(coloring)
    if blue.edge_count <= red.edge_count:
        obstacle, witness_color = blue, EdgeColor.RED
    else:
        obstacle, witness_color = red, EdgeColor.BLUE
    best, mean = _best_of_trials(obstacle, trials, seed, 0)
    stats = TrialStats(trials, mean, expected_run_size(obstacle, 0), best)
    return MonoCliqueWitness(best, witness_color), stats


def transitive_trials(
    digraph: SemicompleteDigraph, trials: int, seed: int
) -> tuple[TransitiveWitness, TrialStats]:
    """Best-of-trials transitive witness plus the run statistics.

    A set inducing a forest in the undirected one-way graph induces acyclic
    one-way arcs, so it has a topological order.
    """
    graph = one_way_graph(digraph)
    best, mean = _best_of_trials(graph, trials, seed, 1)
    stats = TrialStats(trials, mean, expected_run_size(graph, 1), best)
    order = _topological_order(best, _one_way_out_masks(digraph))
    return TransitiveWitness(best, order), stats
