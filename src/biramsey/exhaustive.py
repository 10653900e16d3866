"""Bit-parallel scans over the full tournament space at tiny orders.

A tournament on ``order`` vertices is encoded as a C(order, 2)-bit code:
bit :func:`~biramsey.model.pair_index`(u, v) is 1 when the arc runs
u -> v (ascending) and 0 when it runs v -> u.  Every labeled tournament
has exactly one code.

The scans grow tournaments one vertex at a time.  A tournament with no
transitive k-subset (TT_k-free) stays TT_k-free when its last vertex is
deleted (Reid & Parker), so the TT_k-free codes of order ``o`` are among
the extensions of the TT_k-free codes of order ``o - 1`` by a new vertex
o - 1 with each of its 2^(o - 1) arc patterns.  Only those candidates are
scored; below order k every code is TT_k-free.  A code is already the
forward pair mask of the worst-case oracle's digraph encoding (its
complement is the backward mask), so candidates go through the oracle's
subset dynamic program in blocks of ``solvers._ORACLE_BLOCK``, which keeps
peak memory flat.  Order SCAN_ORDER_CAP + 1 is one more extension step.

These scans are an independent route to the same quantities as the
branch-and-bound solvers; the test suite cross-checks the two.
"""

from __future__ import annotations

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


def _check_scan_order(order: int, cap: int = SCAN_ORDER_CAP) -> None:
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > cap:
        raise BudgetExceeded(
            f"full scan at order {order} needs 2^{pair_count(order)} codes",
            estimate=1 << pair_count(order),
        )


def _free_extensions(base: np.ndarray, order: int, k: int) -> Iterator[np.ndarray]:
    """TT_k-free codes of the given order whose first ``order - 1``
    vertices span a tournament in ``base``, one array per block of
    candidates (block-ordered, not sorted)."""
    full_mask = (1 << pair_count(order)) - 1
    full = np.min_scalar_type(full_mask).type(full_mask)
    new = order - 1
    # pairs (u, v), v < new, keep their lexicographic order; u's run of
    # pairs moves up by the u new pairs (w, new), w < u, placed before it
    base = base.astype(full.dtype)
    spread = np.zeros_like(base)
    for u in range(new - 1):
        run = ((1 << (new - 1 - u)) - 1) << pair_index(u, u + 1, new)
        spread |= (base & run) << u
    # pattern bit u set means arc u -> new vertex, else the reverse
    arcs = np.zeros(1, dtype=full.dtype)
    for u in range(new):
        arcs = np.concatenate([arcs, arcs | full.dtype.type(1 << pair_index(u, new, order))])
    rows = max(1, _ORACLE_BLOCK >> new)
    for lo in range(0, len(spread), rows):
        codes = (spread[lo : lo + rows, None] | arcs).ravel()
        yield codes[_transitive_sizes(order, codes, codes ^ full, k) < k]


def tt_free_tournament_codes(order: int, k: int) -> np.ndarray:
    """Sorted codes of every tournament of the given order with no
    transitive k-subset (labeled, no isomorphism reduction)."""
    _check_scan_order(order)
    if k > order:
        return np.arange(1 << pair_count(order), dtype=np.int64)
    if k <= 2:
        return np.empty(0, dtype=np.int64)
    base = tt_free_tournament_codes(order - 1, k)
    return np.sort(np.concatenate([np.empty(0, dtype=np.int64), *_free_extensions(base, order, k)]))


def min_max_transitive_over_tournaments(order: int) -> tuple[int, SemicompleteDigraph]:
    """Worst-case transitive value over every tournament of the given order,
    plus the smallest-code tournament attaining it.

    This is the m = C(n, 2) cell of the worst-case table: the value is
    k - 1 for the least k with a TT_k-free tournament.
    """
    _check_scan_order(order)
    if order < 3:
        return order, tournament_from_code(0, order)
    k = 3
    while (free := tt_free_tournament_codes(order, k)).size == 0:
        k += 1
    return k - 1, tournament_from_code(int(free[0]), order)


def every_tournament_contains_tt(order: int, k: int) -> bool:
    """Exhaustively decide whether every tournament of the given order has a
    transitive k-subset.

    Order SCAN_ORDER_CAP + 1 is one more extension step: the 2^(order - 1)
    arc patterns of a last vertex over each TT_k-free tournament of order
    SCAN_ORDER_CAP.  Each block of those is extended as soon as it is found,
    and the scan stops at the first TT_k-free survivor.  This covers all
    2^C(order, 2) tournaments without enumerating them.
    """
    _check_scan_order(order, SCAN_ORDER_CAP + 1)
    if k <= 2:
        return order >= k
    if order < k:
        return False
    if order <= SCAN_ORDER_CAP:
        return tt_free_tournament_codes(order, k).size == 0
    bases = _free_extensions(tt_free_tournament_codes(order - 2, k), order - 1, k)
    return not any(block.size for base in bases for block in _free_extensions(base, order, k))
