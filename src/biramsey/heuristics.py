"""Randomized permutation heuristics with exact expectation guarantees.

A simple graph on vertices 0..n-1 is a list of n neighbour bitmasks: bit u
of ``graph[v]`` is set iff uv is an edge.  The graphs derived from
instances come from their ``pair_codes`` through the same mask helper as
the exact solvers' adjacency.

Two one-pass selection rules over a uniformly random vertex permutation of
a simple graph:

* keep vertices with no earlier neighbor: the output is an independent
  set, and its expected size is exactly sum(1 / (d_i + 1)).
* keep vertices with at most one earlier neighbor: the output induces a
  forest, and its expected size is exactly sum(min(1, 2 / (d_i + 1))).

Lifted to the two instance families, the first rule lower-bounds the
guaranteed monochromatic clique (independent set in the minority color's
graph), the second the guaranteed transitive set (a forest of one-way
arcs always has a topological order).

Randomness: trial i draws its permutation from split(seed, i), a spawned
numpy SeedSequence, so any split of the trials into blocks gives the same
sets and the same mean.
Best-of-trials scores its trials in numpy blocks on those same permutations,
so its sets and means equal the one-trial-at-a-time rule; prefix bitsets
over the permutation positions count earlier neighbours in n * ceil(n / 64)
uint64 words per trial at any density, and only the trials that tie for
the top size are mapped back to vertices.  It derives the PCG64 states of
split(seed, i) in bulk (numpy's SeedSequence hashes the seed once; mixing in
i and PCG64's 128-bit seeding step run over arrays of i) and writes each in
place into one reused Generator's C state.  Each call checks trial 0's
state against ``default_rng(split_seed(seed, 0))``, reads the order of the
state words in memory off it, and reads trial 1's write back through
``bit_generator.state``.
Trial indices are one 32-bit word, so best-of-trials takes fewer than 2^32
trials.
All expectations are exact rationals; guarantee comparisons are decidable.
"""

from __future__ import annotations

import ctypes
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    _pair_masks,
    pair_count,
)
from .solvers import _ORACLE_BLOCK, _bits, _one_way_out_masks, _topological_order

__all__ = [
    "TrialStats",
    "split_seed",
    "caro_wei_run",
    "aks_run",
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
class TrialStats:
    trials: int
    mean: Fraction
    guarantee: Fraction


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
_MASK64 = (1 << 64) - 1
_SEED_CHUNK = 1 << 12  # trials whose streams are derived together


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


def _pcg64_states(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 states of split_seed(seed, i), for i in first .. first + count - 1
    (all below 2^32), as a (count, 4) uint64 array: state low, state high,
    inc low, inc high.

    numpy's ``SeedSequence(seed).pool`` holds the four words the seed hashes
    into, after 4 * max(4, words) hash steps for a seed of that many 32-bit
    words.  Mixing spawn word i into the pool and expanding it into PCG64's
    128-bit seed and increment run as uint32 arithmetic over arrays of i.
    """
    words = max(_POOL_SIZE, -(-int(seed).bit_length() // 32))
    hash_word = _hasher(_INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32, _MULT_A)
    spawn = np.arange(first, first + count, dtype=np.int64).astype(np.uint32)
    pool = [
        _mix(np.full(count, w, dtype=np.uint32), hash_word(spawn))
        for w in np.random.SeedSequence(seed).pool.tolist()
    ]
    hash_word = _hasher(_INIT_B, _MULT_B)
    out = [hash_word(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # little-endian word pairs give seed high, seed low, inc high, inc low
    return _pcg64_seed_step(*(out[2 * j] | out[2 * j + 1] << 32 for j in range(4)))


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low, cross, mid = a0 * b0, a1 * b0, a0 * b1
    carry = (low >> 32) + (cross & _MASK32) + (mid & _MASK32)
    return a1 * b1 + (cross >> 32) + (mid >> 32) + (carry >> 32)


def _pcg64_seed_step(
    seed_hi: np.ndarray, seed_lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> np.ndarray:
    """PCG64's seeding step on uint64 word pairs: inc = 2 inc + 1 and
    state = (inc + seed) * _PCG_MULT + inc, both mod 2^128; the words of
    state and inc, low first, as the columns of a uint64 array."""
    mult_lo, mult_hi = np.uint64(_PCG_MULT & _MASK64), np.uint64(_PCG_MULT >> 64)
    inc_hi = inc_hi << 1 | inc_lo >> 63
    inc_lo = inc_lo << 1 | 1
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)
    # the product mod 2^128 drops sum_hi * mult_hi and the high halves of
    # the cross terms
    state_hi = _mul_hi(sum_lo, mult_lo) + sum_lo * mult_hi + sum_hi * mult_lo
    state_lo = sum_lo * mult_lo + inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_value(words: np.ndarray) -> dict:
    """``bit_generator.state`` of a PCG64 at the (state, inc) words of
    :func:`_pcg64_states`, with no half draw buffered."""
    state_lo, state_hi, inc_lo, inc_hi = words.tolist()
    return {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


class _PCG64State(ctypes.Structure):
    """numpy's C ``pcg64_state``: a pointer to the four uint64 words of the
    128-bit state and increment, then a buffered half of a 64-bit draw."""

    _fields_ = [
        ("words", ctypes.POINTER(ctypes.c_uint64)),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


def _word_layout(memory: np.ndarray, words: np.ndarray) -> list[int]:
    """Index into ``words`` of each word in ``memory``, which must hold the
    same four distinct words in some order."""
    memory_words, derived = memory.tolist(), words.tolist()
    if sorted(memory_words) != sorted(derived) or len(set(derived)) != len(derived):
        raise AssertionError("PCG64 state memory is not a permutation of its four words")
    return [derived.index(w) for w in memory_words]


def _trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """Generators of split(seed, 0), ..., split(seed, trials - 1), in order.

    One Generator is reused: before each yield the next trial's PCG64 state,
    derived in bulk by :func:`_pcg64_states`, is written into the generator's
    C state, so draw from it before advancing.  Trial 0 is built by
    ``default_rng`` (which also rejects a negative seed); it cross-checks
    the derivation, and the order of the four words in memory is read off
    it.  Every write clears the buffered half draw, and trial 1's write is
    read back through ``bit_generator.state``.
    """
    rng = np.random.default_rng(split_seed(seed, 0))
    bit_generator = rng.bit_generator
    state = _PCG64State.from_address(bit_generator.ctypes.state_address)
    memory = np.ctypeslib.as_array(state.words, shape=(4,))
    for first in range(0, trials, _SEED_CHUNK):
        derived = _pcg64_states(seed, first, min(_SEED_CHUNK, trials - first))
        if first == 0:
            if bit_generator.state != _state_value(derived[0]):
                raise AssertionError("bulk seed derivation disagrees with split_seed")
            layout = _word_layout(memory, derived[0])
        # trial 0's write puts back the words it was read from
        for i, words in enumerate(derived[:, layout], first):
            memory[...] = words
            state.has_uint32 = 0
            state.uinteger = 0
            if i == 1 and bit_generator.state != _state_value(derived[1 - first]):
                raise AssertionError("PCG64 state write does not read back")
            yield rng


def _permutation(
    n: int, seed: "int | np.random.SeedSequence | np.random.Generator"
) -> list[int]:
    return [int(v) for v in np.random.default_rng(seed).permutation(n)]


def _select_by_earlier_neighbors(
    order: Sequence[int], graph: Sequence[int], max_earlier: int
) -> tuple[int, ...]:
    seen = 0
    selected: list[int] = []
    for v in order:
        if (graph[v] & seen).bit_count() <= max_earlier:
            selected.append(v)
        seen |= 1 << v
    return tuple(sorted(selected))


def caro_wei_run(
    graph: Sequence[int], seed: "int | np.random.SeedSequence | np.random.Generator"
) -> tuple[int, ...]:
    """One trial of the zero-earlier-neighbor rule; always independent."""
    return _select_by_earlier_neighbors(_permutation(len(graph), seed), graph, 0)


def aks_run(
    graph: Sequence[int], seed: "int | np.random.SeedSequence | np.random.Generator"
) -> tuple[int, ...]:
    """One trial of the at-most-one-earlier-neighbor rule; always induces a
    forest (a cycle's last vertex in the permutation has two earlier
    neighbors on the cycle)."""
    return _select_by_earlier_neighbors(_permutation(len(graph), seed), graph, 1)


def expected_run_size(graph: Sequence[int], max_earlier: int) -> Fraction:
    """Exact E[|output|] of the earlier-neighbor rule on any graph:
    a vertex is kept iff it lands in the first max_earlier + 1 slots of a
    uniform arrangement of its closed neighborhood, capped at certainty.
    One term per distinct degree."""
    degrees = Counter(mask.bit_count() for mask in graph)
    return sum(
        count * min(Fraction(1), Fraction(max_earlier + 1, d + 1))
        for d, count in degrees.items()
    )


def permutation_average_size(graph: Sequence[int], max_earlier: int) -> Fraction:
    """Average output size over all n! permutations, as an exact rational.

    Independent enumeration route for the closed-form expectations; only
    sensible at small n.
    """
    total = 0
    count = 0
    for perm in permutations(range(len(graph))):
        total += len(_select_by_earlier_neighbors(perm, graph, max_earlier))
        count += 1
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# Validity checks (assertable per seed)


def _vertex_mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def is_independent_set(graph: Sequence[int], vertices: Iterable[int]) -> bool:
    inside = _vertex_mask(vertices)
    return not any(graph[v] & inside for v in _bits(inside))


def induces_forest(graph: Sequence[int], vertices: Iterable[int]) -> bool:
    """Peel every vertex with at most one neighbour left until none is
    left; a cycle's vertices never peel."""
    rest = _vertex_mask(vertices)
    while rest:
        leaves = _vertex_mask(v for v in _bits(rest) if (graph[v] & rest).bit_count() <= 1)
        if not leaves:
            return False
        rest ^= leaves
    return True


# ---------------------------------------------------------------------------
# Bridges from the instance families to simple graphs


def blue_edge_graph(coloring: BicoloredGraph) -> list[int]:
    """Simple graph of the purely blue pairs."""
    blue = coloring.pair_codes == EdgeColor.BLUE.code
    return _pair_masks(coloring.n, blue, blue)


def red_edge_graph(coloring: BicoloredGraph) -> list[int]:
    """Simple graph of the purely red pairs."""
    red = coloring.pair_codes == EdgeColor.RED.code
    return _pair_masks(coloring.n, red, red)


def one_way_graph(digraph: SemicompleteDigraph) -> list[int]:
    """Underlying undirected graph of the one-way arcs."""
    one_way = digraph.pair_codes != ArcState.BIORIENTED.code
    return _pair_masks(digraph.n, one_way, one_way)


def random_simple_graph(n: int, edge_probability: float, seed: int) -> list[int]:
    """G(n, p) with pair (u, v) decided by the next ``rng.random()`` draw,
    pairs in lexicographic order."""
    edges = np.random.default_rng(seed).random(pair_count(n)) < edge_probability
    return _pair_masks(n, edges, edges)


# ---------------------------------------------------------------------------
# Best-of-trials lower-bound procedures


def _planes(masks: Sequence[int]) -> np.ndarray:
    """n bitmasks below 2^n as a (ceil(n / 64), n) uint64 array; column v
    holds masks[v] in little-endian 64-bit words."""
    words = -(-len(masks) // 64)
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, "<u8").reshape(len(masks), words).T


def _kept_blocks(
    graph: Sequence[int], trials: int, seed: int, max_earlier: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Orders and kept positions of the earlier-neighbor rule, one block at
    a time.

    Yields (order, kept) arrays of shape (trials in block, n): row r of the
    block starting at trial lo is the permutation drawn from
    split(seed, lo + r), and kept[r, k] says whether its vertex order[r, k]
    is kept, so the kept vertices of row r are those of
    :func:`_select_by_earlier_neighbors`.  The graph is held as
    words = ceil(n / 64) uint64 planes, and a block as at most
    ``_ORACLE_BLOCK`` trial x vertex x word entries.  OR-accumulating the
    one-bit sets of a trial's order gives each position k the set of
    vertices placed at or before k; the vertex at k is not its own
    neighbour, so that set ANDed with its neighbourhood has a popcount of
    its earlier neighbours.  A trial costs n x words words at any density.
    """
    n = len(graph)
    adjacency = _planes(graph)
    singletons = _planes([1 << v for v in range(n)])
    per_block = max(1, _ORACLE_BLOCK // max(1, adjacency.size))
    streams = _trial_generators(seed, trials)
    for lo in range(0, trials, per_block):
        order = np.tile(np.arange(n), (min(per_block, trials - lo), 1))
        for row, rng in zip(order, streams):
            rng.shuffle(row)  # the same draws as rng.permutation(n)
        seen = np.bitwise_or.accumulate(singletons.take(order, axis=1), axis=2)
        seen &= adjacency.take(order, axis=1)
        earlier = np.bitwise_count(seen).sum(axis=0, dtype=np.min_scalar_type(n))  # counts < n
        yield order, earlier <= max_earlier


def _best_of_trials(
    graph: Sequence[int], trials: int, seed: int, max_earlier: int
) -> tuple[tuple[int, ...], Fraction]:
    """Best kept set and mean kept size over ``trials`` seeded trials.

    The best set is the largest, then the lexicographically smallest, the
    same set a serial fold over the trials in order would keep.  Sizes are
    counted on the kept positions; only the trials that tie for a block's
    top size are mapped back to sorted vertex tuples.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials >= 1 << 32:
        raise ValueError("trials must be below 2^32")
    best: tuple[int, ...] = ()
    total = 0
    for order, kept in _kept_blocks(graph, trials, seed, max_earlier):
        sizes = np.count_nonzero(kept, axis=1)
        total += int(sizes.sum())
        top = int(sizes.max())
        if top >= len(best):
            tied = sizes == top
            # each tied set sorted, its dropped positions as n past the end
            runs = np.sort(np.where(kept[tied], order[tied], len(graph)), axis=1)
            run = min(map(tuple, runs[:, :top].tolist()))
            best = run if top > len(best) else min(best, run)
    return best, Fraction(total, trials)


def mono_clique_trials(
    coloring: BicoloredGraph, trials: int, seed: int
) -> tuple[MonoCliqueWitness, TrialStats]:
    """Best-of-trials clique witness plus the run statistics.

    The minority unicolor's edges (ties: blue) form the obstacle graph; an
    independent set there spans a clique in the other color, since every
    non-obstacle pair carries it.
    """
    codes = coloring.codes
    if codes.count(EdgeColor.BLUE.code) <= codes.count(EdgeColor.RED.code):
        obstacle, witness_color = blue_edge_graph(coloring), EdgeColor.RED
    else:
        obstacle, witness_color = red_edge_graph(coloring), EdgeColor.BLUE
    best, mean = _best_of_trials(obstacle, trials, seed, 0)
    stats = TrialStats(trials, mean, expected_run_size(obstacle, 0))
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
    stats = TrialStats(trials, mean, expected_run_size(graph, 1))
    order = _topological_order(best, _one_way_out_masks(digraph))
    return TransitiveWitness(best, order), stats
