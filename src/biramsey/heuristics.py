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
so its sets and means equal the one-trial-at-a-time rule.  It derives the
PCG64 states of split(seed, i) in bulk (SeedSequence's uint32 hash run over
arrays of i) and sets them on one reused Generator; each call checks trial
0's state against ``default_rng(split_seed(seed, 0))``.  Trial indices are
one 32-bit word, so best-of-trials takes fewer than 2^32 trials.
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
    ArcState,
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


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_SEED_CHUNK = 1 << 12  # trials whose streams are derived together


def _uint32_words(x: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (at least one)."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's multiplicative hash; ``const`` advances per call."""

    def hash_word(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash_word


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _pcg64_states(seed: int, first: int, count: int) -> Iterator[tuple[int, int]]:
    """(state, inc) of PCG64 seeded from split_seed(seed, i), for i in
    first .. first + count - 1 (all below 2^32).

    SeedSequence hashes its entropy words (the seed's words padded to the
    pool size, then the spawn-key word i) into a pool of four words and
    expands the pool into PCG64's 128-bit seed and increment.  All of it is
    uint32 arithmetic, here on arrays that run over i.
    """
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(first, first + count, dtype=np.int64).astype(np.uint32))
    hash_word = _hasher(_INIT_A, _MULT_A)
    pool = [hash_word(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_word(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_word(word))
    hash_word = _hasher(_INIT_B, _MULT_B)
    out = [hash_word(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # little-endian word pairs give seed high, seed low, inc high, inc low
    halves = [(out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4)]
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        yield ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """Generators of split(seed, 0), ..., split(seed, trials - 1), in order.

    One Generator is reused: before each yield it is set to the next
    trial's PCG64 state, derived in bulk by :func:`_pcg64_states`, so draw
    from it before advancing.  Trial 0 is built by ``default_rng`` (which
    also rejects a negative seed) and cross-checks the derivation.
    """
    rng = np.random.default_rng(split_seed(seed, 0))
    bit_generator = rng.bit_generator
    for first in range(0, trials, _SEED_CHUNK):
        count = min(_SEED_CHUNK, trials - first)
        for i, (state, inc) in enumerate(_pcg64_states(seed, first, count), first):
            value = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            if i == 0:
                if bit_generator.state != value:
                    raise AssertionError("bulk seed derivation disagrees with split_seed")
            else:
                bit_generator.state = value
            yield rng


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


def _pair_graph(instance: "BicoloredGraph | SemicompleteDigraph", chosen: np.ndarray) -> SimpleGraph:
    """Simple graph of the pairs flagged in ``chosen`` (pair order)."""
    us, vs = np.triu_indices(instance.n, 1)
    keep = np.flatnonzero(chosen)
    return SimpleGraph(instance.n, frozenset(zip(us[keep].tolist(), vs[keep].tolist())))


def _single_color_graph(coloring: BicoloredGraph, color: EdgeColor) -> SimpleGraph:
    return _pair_graph(coloring, coloring.pair_codes == color.code)


def blue_edge_graph(coloring: BicoloredGraph) -> SimpleGraph:
    """Simple graph of the purely blue pairs."""
    return _single_color_graph(coloring, EdgeColor.BLUE)


def red_edge_graph(coloring: BicoloredGraph) -> SimpleGraph:
    """Simple graph of the purely red pairs."""
    return _single_color_graph(coloring, EdgeColor.RED)


def one_way_graph(digraph: SemicompleteDigraph) -> SimpleGraph:
    """Underlying undirected graph of the one-way arcs."""
    return _pair_graph(digraph, digraph.pair_codes != ArcState.BIORIENTED.code)


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
    streams = _trial_generators(seed, trials)
    for lo in range(0, trials, per_block):
        block = range(lo, min(lo + per_block, trials))
        rank = np.empty((len(block), n), dtype=np.int32)
        for row, rng in zip(rank, streams):
            row[rng.permutation(n)] = positions
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
    if trials >= 1 << 32:
        raise ValueError("trials must be below 2^32")
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
