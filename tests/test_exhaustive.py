"""Bit-parallel tournament scans against the per-instance solver."""

import pytest

from biramsey.exhaustive import (
    every_tournament_contains_tt,
    min_max_transitive_over_tournaments,
    tournament_from_code,
    tournament_to_code,
    tt_free_tournament_codes,
)
from biramsey.solvers import (
    BudgetExceeded,
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


def test_every_tournament_contains_tt():
    assert every_tournament_contains_tt(4, 3)  # 2^6 codes
    assert not every_tournament_contains_tt(3, 3)  # the directed triangle
    assert not every_tournament_contains_tt(7, 4)  # the 240 scanned codes
    assert every_tournament_contains_tt(8, 4)  # extension argument
    assert not every_tournament_contains_tt(2, 3)


def test_scan_order_cap():
    with pytest.raises(BudgetExceeded):
        tt_free_tournament_codes(8, 4)
    with pytest.raises(BudgetExceeded):
        min_max_transitive_over_tournaments(8)
    with pytest.raises(BudgetExceeded):
        every_tournament_contains_tt(9, 5)
