"""Bit-parallel scans over the full tournament space at tiny orders.

A tournament on ``order`` vertices is encoded as a C(order, 2)-bit code:
bit :func:`~biramsey.model.pair_index`(u, v) is 1 when the arc runs
u -> v (ascending) and 0 when it runs v -> u.  Scanning all codes visits
every labeled tournament exactly once.

A code is already the forward pair mask of the worst-case oracle's digraph
encoding (its complement is the backward mask), so the scans are the
m = C(n, 2) case of that oracle: blocks of ``solvers._ORACLE_BLOCK`` codes
go through the oracle's subset dynamic program, which keeps peak memory
flat.  The triangle criterion (a vertex subset spans a transitive
tournament iff none of its triangles is a directed 3-cycle) remains only
for the one-vertex extension to order SCAN_ORDER_CAP + 1.

These scans are an independent route to the same quantities as the
branch-and-bound solvers; the test suite cross-checks the two.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .model import ArcState, SemicompleteDigraph, pair_count, pair_index
from .solvers import _ORACLE_BLOCK, BudgetExceeded, _transitive_sizes

__all__ = [
    "tournament_from_code",
    "tournament_to_code",
    "min_max_transitive_over_tournaments",
    "tt_free_tournament_codes",
    "every_tournament_contains_tt",
    "SCAN_ORDER_CAP",
]

SCAN_ORDER_CAP = 7  # 2^21 codes; order 8 would be 2^28


def tournament_from_code(code: int, order: int) -> SemicompleteDigraph:
    states = []
    for bit in range(pair_count(order)):
        states.append(ArcState.FORWARD if code >> bit & 1 else ArcState.BACKWARD)
    return SemicompleteDigraph(order, tuple(states))


def tournament_to_code(digraph: SemicompleteDigraph) -> int:
    if not digraph.is_tournament():
        raise ValueError("only tournaments have a scan code")
    code = 0
    for bit, s in enumerate(digraph.states):
        if s is ArcState.FORWARD:
            code |= 1 << bit
    return code


def _check_scan_order(order: int) -> None:
    if order > SCAN_ORDER_CAP:
        raise BudgetExceeded(
            f"full scan at order {order} needs 2^{pair_count(order)} codes",
            estimate=1 << pair_count(order),
        )


def _code_blocks(order: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(first code, forward masks, backward masks) of consecutive blocks of
    every tournament code, in the oracle's digraph encoding."""
    total = 1 << pair_count(order)
    dtype = np.min_scalar_type(total - 1)
    full = dtype.type(total - 1)
    for lo in range(0, total, _ORACLE_BLOCK):
        codes = np.arange(lo, min(lo + _ORACLE_BLOCK, total), dtype=dtype)
        yield lo, codes, codes ^ full


def min_max_transitive_over_tournaments(order: int) -> tuple[int, SemicompleteDigraph]:
    """Worst-case transitive value over every tournament of the given order,
    plus the smallest-code tournament attaining it.

    This is the m = C(n, 2) cell of the worst-case table, computed by the
    bit-parallel route rather than per-instance solver calls.
    """
    _check_scan_order(order)
    if order < 3:
        inst = tournament_from_code(0, max(order, 1))
        return order, inst
    best, best_code = order + 1, -1
    for lo, forward, backward in _code_blocks(order):
        sizes = _transitive_sizes(order, forward, backward, best)
        i = int(sizes.argmin())
        if sizes[i] < best:
            best, best_code = int(sizes[i]), lo + i
    return best, tournament_from_code(best_code, order)


def tt_free_tournament_codes(order: int, k: int) -> np.ndarray:
    """Codes of every tournament of the given order with no transitive
    k-subset (labeled, no isomorphism reduction)."""
    _check_scan_order(order)
    if k > order:
        return np.arange(1 << pair_count(order), dtype=np.int64)
    if k <= 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([
        np.flatnonzero(_transitive_sizes(order, forward, backward, k) < k) + lo
        for lo, forward, backward in _code_blocks(order)
    ])


def _subset_is_transitive(code: int, subset: tuple[int, ...], order: int) -> bool:
    for i, j, k in combinations(subset, 3):
        x = code >> pair_index(i, j, order) & 1
        y = code >> pair_index(j, k, order) & 1
        z = code >> pair_index(i, k, order) & 1
        if x == y and x != z:
            return False
    return True


def every_tournament_contains_tt(order: int, k: int) -> bool:
    """Exhaustively decide whether every tournament of the given order has a
    transitive k-subset.

    Orders up to :data:`SCAN_ORDER_CAP` are scanned directly.  Order
    SCAN_ORDER_CAP + 1 uses a one-vertex extension argument: any such
    tournament restricted to its first ``order - 1`` vertices is either
    already covered or one of the (few) TT_k-free smaller tournaments, and
    every arc pattern from a new vertex into each of those is checked.
    This covers all 2^C(order, 2) tournaments without enumerating them.
    """
    if k <= 2:
        return order >= k
    if order < k:
        return False
    if order <= SCAN_ORDER_CAP:
        return tt_free_tournament_codes(order, k).size == 0
    if order != SCAN_ORDER_CAP + 1:
        raise BudgetExceeded(
            f"order {order} is beyond the scan plus one-vertex-extension range",
            estimate=1 << pair_count(order),
        )
    base = order - 1
    free_codes = tt_free_tournament_codes(base, k)
    subsets = list(combinations(range(base), k - 1))
    for code in free_codes.tolist():
        transitive_rests = [
            rest for rest in subsets if _subset_is_transitive(code, rest, base)
        ]
        for pattern in range(1 << base):
            # pattern bit v set means arc v -> new vertex, else the reverse
            if not any(
                _extension_is_transitive(code, rest, pattern, base)
                for rest in transitive_rests
            ):
                return False
    return True


def _extension_is_transitive(
    code: int, rest: tuple[int, ...], pattern: int, base: int
) -> bool:
    """Transitivity of rest + {new vertex} given arcs pattern; the rest is
    already transitive, so only triangles through the new vertex matter."""
    # triangle (i, j, new): cyclic iff arc directions chain around
    for a, b in combinations(rest, 2):
        ab = code >> pair_index(a, b, base) & 1  # 1: a -> b
        a_new = pattern >> a & 1  # 1: a -> new
        b_new = pattern >> b & 1
        # cyclic iff a->b, b->new, new->a  or  b->a, a->new, new->b
        if ab and b_new and not a_new:
            return False
        if not ab and a_new and not b_new:
            return False
    return True
