"""Permutation heuristics: per-run validity and exact expectations."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey import heuristics
from biramsey.heuristics import (
    _permutation,
    _select_by_earlier_neighbors,
    aks_run,
    blue_edge_graph,
    caro_wei_run,
    expected_run_size,
    induces_forest,
    is_independent_set,
    mono_clique_trials,
    one_way_graph,
    permutation_average_size,
    random_simple_graph,
    red_edge_graph,
    split_seed,
    transitive_trials,
)
from biramsey.model import (
    BicoloredGraph,
    EdgeColor,
    random_coloring,
    random_semicomplete,
)
from biramsey.solvers import verify_witness



def from_edges(n, edges):
    """Neighbour bitmasks of a simple graph given by its edge list."""
    graph = [0] * n
    for u, v in edges:
        graph[u] |= 1 << v
        graph[v] |= 1 << u
    return graph


def degrees(graph):
    return [mask.bit_count() for mask in graph]


def edge_count(graph):
    return sum(degrees(graph)) // 2


C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = from_edges(4, [(u, v) for u, v in combinations(range(4), 2)])
PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
     (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_empty_graph_selects_everything():
    g = from_edges(6, [])
    assert caro_wei_run(g, 3) == (0, 1, 2, 3, 4, 5)


def test_complete_graph_selects_one_resp_two():
    for seed in range(10):
        assert len(caro_wei_run(K4, seed)) == 1
        assert len(aks_run(K4, seed)) == 2


def test_runs_are_always_valid():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 25))
        g = random_simple_graph(n, float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 2**31)))
        seed = int(rng.integers(0, 2**31))
        assert is_independent_set(g, caro_wei_run(g, seed))
        assert induces_forest(g, aks_run(g, seed))


def caro_wei_sum(graph):
    """The classical sum 1/(d_i + 1), written out independently."""
    return sum(Fraction(1, d + 1) for d in degrees(graph))


def forest_sum(graph):
    """The classical sum 2/(d_i + 1); the forest rule's expectation when
    every degree is positive."""
    return sum(Fraction(2, d + 1) for d in degrees(graph))


def test_closed_form_expectations():
    assert expected_run_size(C5, 0) == Fraction(5, 3)
    assert expected_run_size(C5, 1) == Fraction(10, 3)
    assert expected_run_size(K4, 0) == 1
    assert expected_run_size(K4, 1) == 2
    assert expected_run_size(PETERSEN, 0) == Fraction(5, 2)
    assert expected_run_size(PETERSEN, 1) == 5


def test_permutation_average_equals_closed_form():
    # the independent enumeration over all n! permutations
    assert permutation_average_size(C5, 0) == Fraction(5, 3)
    assert permutation_average_size(C5, 1) == Fraction(10, 3)
    assert permutation_average_size(K4, 1) == 2
    for seed in (1, 2, 3):
        g = random_simple_graph(6, 0.5, seed)
        assert permutation_average_size(g, 0) == expected_run_size(g, 0)
        assert permutation_average_size(g, 1) == expected_run_size(g, 1)
        assert expected_run_size(g, 0) == caro_wei_sum(g)
        if min(degrees(g)) > 0:
            assert expected_run_size(g, 1) == forest_sum(g)


def test_expectations_exhaustively_on_every_five_vertex_graph():
    # all 1024 graphs on 5 vertices, averaged over all 120 permutations
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << 10):
        g = from_edges(5, [pairs[i] for i in range(10) if mask >> i & 1])
        assert permutation_average_size(g, 0) == expected_run_size(g, 0) == caro_wei_sum(g)
        assert permutation_average_size(g, 1) == expected_run_size(g, 1)
        if edge_count(g) and min(degrees(g)) > 0:
            assert expected_run_size(g, 1) == forest_sum(g)


def test_forest_rule_expectation_clamps_isolated_vertices():
    # an isolated vertex is always kept: it adds 1 to the true expectation,
    # while the classical sum (whose premise is positive degrees) counts 2
    g = from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert forest_sum(g) == Fraction(2) + Fraction(8, 3)
    assert expected_run_size(g, 1) == 1 + Fraction(8, 3)
    assert permutation_average_size(g, 1) == expected_run_size(g, 1)


def test_regularized_value_never_exceeds_sum():
    # the degree-regularized floors n^2/(2e + n) and 2n^2/(2e + n), the
    # cell formulas of bounds.lower_bound_formulas, by convexity
    for seed in range(25):
        g = random_simple_graph(20, 0.4, seed)
        assert all(g)  # no isolated vertex, where the forest floor is not a floor
        n, twice_e = len(g), sum(degrees(g))
        assert Fraction(n * n, twice_e + n) <= expected_run_size(g, 0)
        assert Fraction(2 * n * n, twice_e + n) <= expected_run_size(g, 1)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=25))
def test_forest_size_plus_missing_vertices_inequality(degrees):
    # sum 2/(d+1) + (n - s) >= n - m/3 for any degree multiset on s of n
    # vertices; equivalent to 2/(x+1) - 1 >= -x/6 summed over degrees
    s = len(degrees)
    n = s + 3
    m = Fraction(sum(degrees), 2)
    lhs = sum(Fraction(2, d + 1) for d in degrees) + n - s
    assert lhs >= n - m / 3


def test_best_of_trials_monotone_in_k():
    g = random_simple_graph(18, 0.5, 7)
    from biramsey.heuristics import _best_of_trials

    sizes = [len(_best_of_trials(g, k, 1234, 0)[0]) for k in range(1, 12)]
    assert sizes == sorted(sizes)


def test_split_seed_reproduces_serial_results():
    g = random_simple_graph(15, 0.5, 3)
    serial = [caro_wei_run(g, split_seed(42, i)) for i in range(8)]
    shuffled = [caro_wei_run(g, split_seed(42, i)) for i in (5, 2, 7, 0, 1, 3, 6, 4)]
    assert serial[5] == shuffled[0] and serial[0] == shuffled[3]


# --- lifted lower-bound procedures -------------------------------------------


def test_all_bicolored_returns_whole_vertex_set():
    g = BicoloredGraph(6, bytes([EdgeColor.RED_BLUE.code]) * 15)
    w = mono_clique_trials(g, 3, 1)[0]
    assert w.vertices == (0, 1, 2, 3, 4, 5)
    assert w.color is EdgeColor.RED  # tie in pure counts goes to a red witness


def test_minority_color_choice():
    # two blue pairs vs one red pair: red is the minority, witness is blue
    g = BicoloredGraph.from_map(
        4,
        {(0, 1): EdgeColor.BLUE, (2, 3): EdgeColor.BLUE, (0, 2): EdgeColor.RED},
    )
    w, stats = mono_clique_trials(g, 5, 9)
    assert w.color is EdgeColor.BLUE
    assert stats.guarantee == caro_wei_sum(red_edge_graph(g))
    assert verify_witness(g, w)


def test_witnesses_always_verify_on_200_random_colorings():
    rng = np.random.default_rng(31337)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        g = random_coloring(n, int(rng.integers(0, 2**31)))
        w = mono_clique_trials(g, 4, int(rng.integers(0, 2**31)))[0]
        assert verify_witness(g, w)


def test_transitive_witnesses_verify_on_random_digraphs():
    rng = np.random.default_rng(27182)
    for trial in range(120):
        n = int(rng.integers(2, 13))
        d = random_semicomplete(n, int(rng.integers(0, 2**31)))
        w = transitive_trials(d, 4, int(rng.integers(0, 2**31)))[0]
        assert verify_witness(d, w)


def test_three_triangles_reach_known_optimum():
    from biramsey.constructions import triangle_digraph

    inst = triangle_digraph(9, 9).instance
    w = transitive_trials(inst, 100, 5)[0]
    assert len(w.vertices) == 6  # two per triangle under any permutation


def test_guarantee_bounds_when_m_at_least_n():
    # the analytic chain behind the lower-bound procedures: the minority
    # graph has at most m/2 edges, so its selection expectation is at least
    # n/(m/n + 1); the one-way graph has m edges, giving 2n/(2m/n + 1)
    rng = np.random.default_rng(64)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(5, 14))
        g = random_coloring(n, int(rng.integers(0, 2**31)))
        m = g.unicolored_count
        if m < n:
            continue
        checked += 1
        minority = min(blue_edge_graph(g), red_edge_graph(g), key=edge_count)
        assert caro_wei_sum(minority) >= Fraction(n * n, m + n)
        _, stats = mono_clique_trials(g, 1, trial)
        assert stats.guarantee >= Fraction(n * n, m + n)
        d = random_semicomplete(n, int(rng.integers(0, 2**31)))
        m2 = d.oneway_count
        if m2 >= n:
            assert forest_sum(one_way_graph(d)) >= Fraction(
                2 * n * n, 2 * m2 + n
            )
    assert checked > 10


def test_bridge_graphs():
    g = random_coloring(8, 12)
    blue = blue_edge_graph(g)
    red = red_edge_graph(g)
    states = list(g.states)
    assert edge_count(blue) == states.count(EdgeColor.BLUE)
    assert edge_count(red) == states.count(EdgeColor.RED)
    d = random_semicomplete(8, 12)
    assert edge_count(one_way_graph(d)) == d.oneway_count


def test_trials_must_be_positive():
    g = random_coloring(5, 1)
    with pytest.raises(ValueError):
        mono_clique_trials(g, 0, 1)


# --- block engine vs the serial selection rule --------------------------------


def _differential_graphs():
    rng = np.random.default_rng(2024)
    graphs = [from_edges(n, []) for n in (1, 2, 17, 40)]
    graphs += [from_edges(n, combinations(range(n), 2)) for n in (1, 2, 17, 40)]
    for _ in range(12):
        n = int(rng.integers(1, 41))
        p = float(rng.uniform(0.05, 0.95))
        graphs.append(random_simple_graph(n, p, int(rng.integers(0, 2**31))))
    # one, two and three 64-bit words, either side of each word boundary
    for n in (63, 64, 65, 128, 129):
        p = float(rng.uniform(0.05, 0.95))
        graphs.append(random_simple_graph(n, p, int(rng.integers(0, 2**31))))
    # earlier-neighbour counts past 255: K_257's last vertex has 256, the
    # star's centre up to 299
    graphs.append(from_edges(257, combinations(range(257), 2)))
    graphs.append(from_edges(300, [(0, v) for v in range(1, 300)]))
    return graphs


def _serial_best_of_trials(g, trials, seed, max_earlier):
    best, total = None, 0
    for i in range(trials):
        run = _select_by_earlier_neighbors(
            _permutation(len(g), split_seed(seed, i)), g, max_earlier
        )
        total += len(run)
        if best is None or len(run) > len(best) or (len(run) == len(best) and run < best):
            best = run
    return best, Fraction(total, trials)


@pytest.mark.parametrize("block", [64, heuristics._ORACLE_BLOCK])
@pytest.mark.parametrize("max_earlier", [0, 1])
def test_block_engine_matches_serial_rule(monkeypatch, block, max_earlier):
    # trial counts 1, one below and one above a block cover both boundaries
    monkeypatch.setattr(heuristics, "_ORACLE_BLOCK", block)
    for index, g in enumerate(_differential_graphs()):
        per_block = max(1, block // max(1, len(g) * -(-len(g) // 64)))
        if per_block > 200:
            continue  # a block boundary this far out is covered at block=64
        seed = 1000 + index
        for trials in sorted({1, max(1, per_block - 1), per_block + 1}):
            kept = np.concatenate(
                list(heuristics._kept_blocks(g, trials, seed, max_earlier))
            )
            assert kept.shape == (trials, len(g))
            for i, row in enumerate(kept):
                order = _permutation(len(g), split_seed(seed, i))
                expected = _select_by_earlier_neighbors(order, g, max_earlier)
                assert tuple(np.flatnonzero(row).tolist()) == expected
            assert heuristics._best_of_trials(
                g, trials, seed, max_earlier
            ) == _serial_best_of_trials(g, trials, seed, max_earlier)


# --- bulk-derived trial streams ----------------------------------------------


# one-word seeds at both ends of a word, two words, three words, and five
# words (more than the four-word pool: the third mixing phase)
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3 * 2**64 + 7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_bulk_streams_match_split_seed(monkeypatch, seed):
    # a chunk of 8 makes trials 0..19 cross two derivation boundaries
    monkeypatch.setattr(heuristics, "_SEED_CHUNK", 8)
    for i, rng in enumerate(heuristics._trial_generators(seed, 20)):
        reference = np.random.default_rng(split_seed(seed, i))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.permutation(33).tolist() == reference.permutation(33).tolist()
    assert i == 19


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_bulk_streams_cross_the_default_chunk(seed):
    chunk = heuristics._SEED_CHUNK
    checked = {0, 1, chunk - 1, chunk, chunk + 1}
    for i, rng in enumerate(heuristics._trial_generators(seed, chunk + 2)):
        if i in checked:
            reference = np.random.default_rng(split_seed(seed, i))
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.permutation(40).tolist() == reference.permutation(40).tolist()


def test_bulk_streams_reject_negative_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        next(heuristics._trial_generators(-1, 5))
    with pytest.raises(ValueError, match="non-negative"):
        mono_clique_trials(random_coloring(6, 1), 5, -3)


def test_bulk_streams_check_trial_0(monkeypatch):
    derive = heuristics._pcg64_states

    def off_by_one(seed, first, count):
        for state, inc in derive(seed, first, count):
            yield state ^ 1, inc

    monkeypatch.setattr(heuristics, "_pcg64_states", off_by_one)
    with pytest.raises(AssertionError):
        next(heuristics._trial_generators(5, 3))


def test_trials_must_be_below_2_to_the_32():
    with pytest.raises(ValueError, match="below 2"):
        mono_clique_trials(random_coloring(5, 1), 2**32, 1)
