"""Bit-parallel scans over the full tournament space at tiny orders.

A tournament on ``order`` vertices is encoded as a C(order, 2)-bit code:
bit :func:`~biramsey.model.pair_index`(u, v) is 1 when the arc runs
u -> v (ascending) and 0 when it runs v -> u.  Every labeled tournament
has exactly one code.

The scans grow tournaments one vertex at a time.  A tournament with no
transitive k-subset (TT_k-free) stays TT_k-free when any vertex is deleted
(Reid & Parker), so the TT_k-free codes of order ``o`` are among the
extensions of the TT_k-free codes of order ``o - 1`` by a new vertex 0
with each of its 2^(o - 1) arc patterns.  Vertex 0's pairs (0, v) come
first in pair order, so a candidate is the base code shifted past them,
``base << (o - 1)``, ORed with its arc pattern.  Reversing every arc, the
code's complement, keeps a code TT_k-free, so only the patterns with arc
o - 1 -> 0 are scored, each survivor emitted with its complement; below
order k every code is TT_k-free.  Blocks of ``solvers._ORACLE_BLOCK``
candidates go through the oracle's acyclic-set kernel on bit planes (one
Python int per pair or vertex set, bit i for candidate i), which keeps peak
memory flat.  A code is its forward pair mask: only the planes of missing
forward arcs are packed, the rest complemented.

These scans are an independent route to the same quantities as the
branch-and-bound solvers; the test suite cross-checks the two.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .model import ArcState, SemicompleteDigraph, pair_count
from .solvers import _ORACLE_BLOCK, BudgetExceeded, _acyclic_sizes, _cell_instance, _pair_planes

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
    """The tournament of a scan code: the oracle's digraph instance ``code``
    with every pair placed."""
    return _cell_instance(order, "digraph", tuple(range(pair_count(order))), code)


def tournament_to_code(digraph: SemicompleteDigraph) -> int:
    if not digraph.is_tournament():
        raise ValueError("only tournaments have a scan code")
    forward = ArcState.FORWARD.code
    return sum(1 << bit for bit, code in enumerate(digraph.codes) if code == forward)


def _check_scan_order(order: int, cap: int = SCAN_ORDER_CAP) -> None:
    if order < 1:
        raise ValueError("order must be at least 1")
    # 2^C(order, 2) itself is a huge integer at a large order, slow to
    # build; 2^min(C(order, 2), 64) bounds it below, as in the oracle
    if order > cap:
        raise BudgetExceeded(
            f"full scan at order {order} needs 2^{pair_count(order)} codes",
            estimate=1 << min(pair_count(order), 64),
        )


def _free_extensions(base: np.ndarray, order: int, k: int) -> Iterator[np.ndarray]:
    """TT_k-free codes of the given order whose vertices 1 .. order - 1
    span a tournament in ``base``, one array per block of candidates
    (block-ordered, not sorted).  ``base`` must be closed under reversal,
    as every set of TT_k-free codes is."""
    full = (1 << pair_count(order)) - 1  # XOR with it reverses every arc
    dtype = np.min_scalar_type(full)
    new = order - 1  # pairs (0, v) of the new vertex 0, first in pair order
    base = base.astype(dtype) << new
    # pattern bit v - 1 set means arc 0 -> v, else the reverse; top bit clear
    arcs = np.arange(1 << (new - 1), dtype=dtype)
    rows = max(1, _ORACLE_BLOCK >> (new - 1))
    for lo in range(0, len(base), rows):
        codes = (base[lo : lo + rows, None] | arcs).ravel()
        no_forward = _pair_planes(codes, order)
        every = (1 << len(codes)) - 1
        no_backward = [every ^ plane for plane in no_forward]
        free = codes[_acyclic_sizes(order, len(codes), no_forward, no_backward, k) < k]
        yield np.concatenate([free, free ^ full])


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

    The last two orders stream: each block of TT_k-free codes of order
    ``order - 1`` is extended by every arc pattern of a new vertex as soon as
    it is found, and the scan stops at the first TT_k-free survivor.  At
    order SCAN_ORDER_CAP + 1 this covers all 2^C(order, 2) tournaments
    without enumerating them.
    """
    _check_scan_order(order, SCAN_ORDER_CAP + 1)
    if k <= 2:
        return order >= k
    if order < k:
        return False
    bases = _free_extensions(tt_free_tournament_codes(order - 2, k), order - 1, k)
    return not any(block.size for base in bases for block in _free_extensions(base, order, k))
