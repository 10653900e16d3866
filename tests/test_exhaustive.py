"""Bit-parallel tournament scans against the per-instance solver."""

from functools import cache

import numpy as np
import pytest

from biramsey import exhaustive
from biramsey.exhaustive import (
    every_tournament_contains_tt,
    min_max_transitive_over_tournaments,
    tournament_from_code,
    tournament_to_code,
    tt_free_tournament_codes,
)
from biramsey.model import pair_count
from biramsey.solvers import (
    _ORACLE_BLOCK,
    BudgetExceeded,
    _transitive_sizes,
    brute_force_F,
    max_transitive_set,
    max_transitive_set_by_enumeration,
)


def test_code_round_trip():
    for code in (0, 1, 37, 63):
        d = tournament_from_code(code, 4)
        assert d.is_tournament()
        assert tournament_to_code(d) == code


def test_scan_agrees_with_oracle_at_order_4():
    # dual route: the all-oneway cell of the worst-case table
    value, inst = min_max_transitive_over_tournaments(4)
    assert value == brute_force_F(4, 6).value == 3
    assert max_transitive_set(inst).size == 3


def test_tt_free_codes_match_enumeration_on_every_order_5_code():
    best = [
        max_transitive_set_by_enumeration(tournament_from_code(code, 5))
        for code in range(1 << 10)
    ]
    for k in range(3, 6):
        free = set(tt_free_tournament_codes(5, k).tolist())
        assert free == {code for code, size in enumerate(best) if size < k}


def test_min_max_transitive_order_7_is_3():
    value, inst = min_max_transitive_over_tournaments(7)
    assert value == 3
    assert max_transitive_set(inst).size == 3
    assert max_transitive_set_by_enumeration(inst) == 3


def test_tt4_free_seven_tournaments():
    free = tt_free_tournament_codes(7, 4)
    assert free.size == 240  # one isomorphism class, automorphism group 21
    for code in free[:3].tolist() + free[-2:].tolist():
        d = tournament_from_code(int(code), 7)
        assert max_transitive_set(d).size == 3


def test_tt5_free_seven_tournament_count():
    # every code is scored exactly up to k = 5, whatever the other codes in
    # its block score
    assert tt_free_tournament_codes(7, 5).size == 545168


@cache
def _full_scan_sizes(order):
    """Largest transitive set of every code of the given order, every code
    run through the oracle's subset dynamic program in code order."""
    total = 1 << pair_count(order)
    dtype = np.min_scalar_type(total - 1)
    full = dtype.type(total - 1)
    return np.concatenate([
        _transitive_sizes(order, codes, codes ^ full, order + 1)
        for codes in (
            np.arange(lo, min(lo + _ORACLE_BLOCK, total), dtype=dtype)
            for lo in range(0, total, _ORACLE_BLOCK)
        )
    ])


@pytest.mark.parametrize(
    "order, k",
    [(order, k) for order in range(1, 7) for k in range(1, order + 2)]
    + [(7, k) for k in range(3, 6)],
)
def test_tt_free_codes_match_full_scan(order, k):
    free = tt_free_tournament_codes(order, k)
    expected = np.flatnonzero(_full_scan_sizes(order) < k).astype(np.int64)
    assert free.dtype == expected.dtype
    assert np.array_equal(free, expected)  # same codes in the same order


@pytest.mark.parametrize("order", range(3, 8))
def test_min_max_matches_full_scan(order):
    sizes = _full_scan_sizes(order)
    value, inst = min_max_transitive_over_tournaments(order)
    assert value == sizes.min()
    assert tournament_to_code(inst) == int(sizes.argmin())  # first attainer


def test_every_tournament_contains_tt():
    assert every_tournament_contains_tt(4, 3)  # 2^6 codes
    assert not every_tournament_contains_tt(3, 3)  # the directed triangle
    assert not every_tournament_contains_tt(7, 4)  # the 240 scanned codes
    assert not every_tournament_contains_tt(2, 3)
    # one extension step; k >= 5 stops at the first order-8 block with a survivor
    assert [every_tournament_contains_tt(8, k) for k in range(3, 8)] == [
        True, True, False, False, False,
    ]


def test_order_8_extends_order_7_blocks_as_they_come(monkeypatch):
    # building the whole TT_5-free order-7 set first scores 1,347,840
    # candidates; extending its first block at once stops far sooner
    scored = []

    def counting(n, forward, backward, cap):
        scored.append(len(forward))
        return _transitive_sizes(n, forward, backward, cap)

    monkeypatch.setattr(exhaustive, "_transitive_sizes", counting)
    assert not every_tournament_contains_tt(8, 5)
    assert sum(scored) < 1_347_840 // 4


@pytest.mark.parametrize("order", [0, -1, -2])
def test_scans_reject_orders_below_1(order):
    with pytest.raises(ValueError, match="order must be at least 1"):
        tt_free_tournament_codes(order, 3)
    with pytest.raises(ValueError, match="order must be at least 1"):
        min_max_transitive_over_tournaments(order)
    with pytest.raises(ValueError, match="order must be at least 1"):
        every_tournament_contains_tt(order, 3)


def test_scan_order_cap():
    with pytest.raises(BudgetExceeded):
        tt_free_tournament_codes(8, 4)
    with pytest.raises(BudgetExceeded):
        min_max_transitive_over_tournaments(8)
    with pytest.raises(BudgetExceeded):
        every_tournament_contains_tt(9, 5)
