"""The vectorised worst-case oracle against a per-instance solver scan.

The reference below walks a cell in the oracle's documented order
(placements lexicographic, assignment codes ascending, code bit b = 1 making
the b-th placed pair red / forward), solves every instance with the public
branch-and-bound solvers, and keeps the first instance of smallest value.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from biramsey import solvers
from biramsey.model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    SemicompleteDigraph,
    pair_count,
    serialize_instance,
)
from biramsey.solvers import (
    brute_force_F,
    brute_force_f,
    max_mono_clique,
    max_transitive_set,
    oracle_cell_slice,
)


@lru_cache(maxsize=None)
def reference_scan(n, m, family, start=0, stop=None):
    """(value, global index of the first attainer, serialized attainer)."""
    best = None
    placements = list(combinations(range(pair_count(n)), m))
    stop = len(placements) if stop is None else stop
    for p_idx in range(start, stop):
        for code in range(1 << m):
            if family == "coloring":
                states = [EdgeColor.RED_BLUE] * pair_count(n)
                for bit, pair in enumerate(placements[p_idx]):
                    states[pair] = EdgeColor.RED if code >> bit & 1 else EdgeColor.BLUE
                instance = BicoloredGraph(n, bytes(s.code for s in states))
                size = max_mono_clique(instance).size
            else:
                states = [ArcState.BIORIENTED] * pair_count(n)
                for bit, pair in enumerate(placements[p_idx]):
                    states[pair] = ArcState.FORWARD if code >> bit & 1 else ArcState.BACKWARD
                instance = SemicompleteDigraph(n, bytes(s.code for s in states))
                size = max_transitive_set(instance).size
            if best is None or size < best[0]:
                best = (size, (p_idx << m) + code, serialize_instance(instance))
    return best


def full_cell(n, m, family):
    return oracle_cell_slice(n, m, family, 0, comb(pair_count(n), m))


SMALL_CELLS = [(n, m) for n in range(1, 5) for m in range(pair_count(n) + 1)]
FAMILIES = ("coloring", "digraph")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,m", SMALL_CELLS)
def test_every_cell_up_to_four_vertices(n, m, family):
    assert full_cell(n, m, family) == reference_scan(n, m, family)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,m", [(5, 1), (5, 3), (5, 10)])
def test_sampled_five_vertex_cells(n, m, family):
    assert full_cell(n, m, family) == reference_scan(n, m, family)


@pytest.mark.parametrize("family", FAMILIES)
def test_slice_reports_global_index(family):
    # placements 40..49 of cell (5, 6): the attainer index counts over the cell
    got = oracle_cell_slice(5, 6, family, 40, 50)
    assert got == reference_scan(5, 6, family, 40, 50)
    assert got[1] >= 40 << 6


@pytest.mark.parametrize("family", FAMILIES)
def test_block_boundaries_do_not_change_the_attainer(monkeypatch, family):
    # blocks of a few instances: each block sees the running best as its cap
    monkeypatch.setattr(solvers, "_ORACLE_BLOCK", 4)
    for n, m in [(4, 2), (4, 3), (4, 6), (5, 3)]:
        assert full_cell(n, m, family) == reference_scan(n, m, family), (n, m)


def test_empty_slice_and_unknown_family_are_rejected():
    with pytest.raises(ValueError):
        oracle_cell_slice(4, 2, "coloring", 3, 3)
    with pytest.raises(ValueError):
        oracle_cell_slice(4, 2, "hypergraph", 0, 1)
    with pytest.raises(ValueError):
        brute_force_f(0, 0)


def test_six_vertex_anchors():
    # R(3,3) = 6: every 2-coloring of K6 has a monochromatic triangle
    assert brute_force_f(6, 15).value == 3
    assert brute_force_F(6, 15).value == 3
    for m in range(7):
        assert brute_force_f(6, m).value == 6 - m // 2, m
        assert brute_force_F(6, m).value == 6 - m // 3, m
