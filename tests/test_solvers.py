"""Exact solvers against independent subset-enumeration oracles."""

import heapq
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.constructions import (
    blowup,
    lex_clique_packing,
    mixed_digraph,
    tournament_packing,
    triangle_digraph,
)
from biramsey.model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    digraph_to_coloring,
    pair_count,
    pair_index,
    random_coloring,
    random_semicomplete,
)
from biramsey import solvers
from biramsey.solvers import (
    CLIQUE_SIZE_CAP,
    TRANSITIVE_SIZE_CAP,
    BudgetExceeded,
    KindMismatch,
    SizeLimitExceeded,
    _acyclic_sizes,
    _block_masks,
    _cell_instance,
    _check_oracle_pre,
    _mono_clique_sizes,
    _subset_is_acyclic,
    _transitive_sizes,
    brute_force_F,
    brute_force_f,
    max_mono_clique,
    max_mono_clique_by_enumeration,
    max_transitive_set,
    max_transitive_set_by_enumeration,
    optimum,
    oracle_budget_estimate,
    verify_witness,
)

QR7 = SemicompleteDigraph.from_arcs(
    7, {(i, (i + d) % 7) for i in range(7) for d in (1, 2, 4)}
)


def test_all_bicolored_is_one_big_clique():
    g = BicoloredGraph(6, bytes([EdgeColor.RED_BLUE.code]) * 15)
    res = max_mono_clique(g)
    assert res.size == 6
    assert res.witness.vertices == (0, 1, 2, 3, 4, 5)
    assert res.witness.color is EdgeColor.RED  # red wins ties


def test_lex_packing_instance_solves_to_three():
    cert = lex_clique_packing(9, 2)
    assert max_mono_clique(cert.instance).size == 3


def test_clique_solver_agrees_with_enumeration_on_50_random():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(1, 17))
        g = random_coloring(n, int(rng.integers(0, 2**31)))
        res = max_mono_clique(g)
        assert res.size == max_mono_clique_by_enumeration(g)
        assert verify_witness(g, res.witness)
        assert res.witness.size == res.size


def test_transitive_tournament_solves_to_n():
    arcs = {(u, v) for u in range(6) for v in range(u + 1, 6)}
    d = SemicompleteDigraph.from_arcs(6, arcs)
    res = max_transitive_set(d)
    assert res.size == 6
    assert res.witness.order == (0, 1, 2, 3, 4, 5)


def test_three_triangles_solve_to_six():
    cert = triangle_digraph(9, 9)
    assert max_transitive_set(cert.instance).size == 6


def test_qr7_has_no_transitive_four_set():
    from itertools import combinations

    res = max_transitive_set(QR7)
    assert res.size == 3
    assert verify_witness(QR7, res.witness)
    # exhaustive: no 4-subset is acyclic
    out = {v: {(v + d) % 7 for d in (1, 2, 4)} for v in range(7)}
    for sub in combinations(range(7), 4):
        has_cycle = any(
            (b in out[a] and c in out[b] and a in out[c])
            or (a in out[b] and b in out[c] and c in out[a])
            for a, b, c in combinations(sub, 3)
        )
        assert has_cycle


def test_transitive_solver_agrees_with_enumeration_on_50_random():
    rng = np.random.default_rng(4711)
    for trial in range(50):
        n = int(rng.integers(1, 13))
        d = random_semicomplete(n, int(rng.integers(0, 2**31)))
        res = max_transitive_set(d)
        assert res.size == max_transitive_set_by_enumeration(d)
        assert verify_witness(d, res.witness)


def test_transitive_solver_agrees_with_enumeration_at_n14():
    from biramsey.constructions import tournament_packing
    from biramsey.model import random_tournament

    packed = tournament_packing(14, 3).instance
    assert max_transitive_set(packed).size == max_transitive_set_by_enumeration(packed)
    t = random_tournament(14, 1414)
    assert max_transitive_set(t).size == max_transitive_set_by_enumeration(t)


def test_witness_is_lexicographically_smallest_and_deterministic():
    for seed in (0, 1, 2):
        g = random_coloring(10, seed)
        first = max_mono_clique(g)
        second = max_mono_clique(g)
        assert first.witness == second.witness
        d = random_semicomplete(10, seed)
        assert max_transitive_set(d).witness == max_transitive_set(d).witness


def _all_subsets_of_size(n, size):
    from itertools import combinations

    return combinations(range(n), size)


def _lex_min_mono_clique(g, size):
    """Brute force: red before blue, then the first clique of ``size`` in
    lexicographic order."""
    for color in (EdgeColor.RED, EdgeColor.BLUE):
        for sub in _all_subsets_of_size(g.n, size):
            if all(g.has_color(u, v, color) for u, v in combinations(sub, 2)):
                return color, sub


def test_clique_witness_matches_brute_force_tie_rule(sparse_coloring):
    # larger size, then red before blue, then lexicographically smallest set;
    # the extraction decides each vertex against a floor and a ceiling
    cases = [random_coloring(7, seed + 600) for seed in range(20)]
    rng = np.random.default_rng(1313)
    for n in range(8, 13):
        cases += [random_coloring(n, int(rng.integers(0, 2**31))) for _ in range(3)]
        cases += [sparse_coloring(n, int(rng.integers(0, pair_count(n) + 1)), rng) for _ in range(3)]
    for g in cases:
        res = max_mono_clique(g)
        assert res.size == max_mono_clique_by_enumeration(g)
        assert (res.witness.color, res.witness.vertices) == _lex_min_mono_clique(g, res.size)


def _full_maximisation_clique(g):
    """The clique solve in which blue and every extraction step are full
    maximisations from an incumbent of 0: (size, witness, color, red size,
    blue size)."""
    from biramsey.solvers import _CliqueSolver, _color_adjacency

    def lex_min_maximum_clique(solver):
        target = solver.max_size()
        chosen = []
        common = (1 << solver.n) - 1
        for v in range(solver.n):
            if len(chosen) == target:
                break
            if not common >> v & 1:
                continue
            higher = ((1 << solver.n) - 1) & ~((1 << (v + 1)) - 1)
            cand = common & solver.adj[v] & higher
            if 1 + len(chosen) + solver.max_size(cand) >= target:
                chosen.append(v)
                common &= solver.adj[v]
        return tuple(chosen)

    red = _CliqueSolver(g.n, _color_adjacency(g, EdgeColor.RED))
    blue = _CliqueSolver(g.n, _color_adjacency(g, EdgeColor.BLUE))
    red_size, blue_size = red.max_size(), blue.max_size()
    if red_size >= blue_size:
        return red_size, lex_min_maximum_clique(red), EdgeColor.RED, red_size, blue_size
    return blue_size, lex_min_maximum_clique(blue), EdgeColor.BLUE, red_size, blue_size


def test_clique_extraction_matches_full_maximisation(sparse_coloring):
    rng = np.random.default_rng(5151)
    cases = [BicoloredGraph(1, b""), BicoloredGraph(9, bytes([EdgeColor.RED_BLUE.code]) * 36)]
    for n in range(1, 41):
        for share in (0.1, 0.5, 0.9):  # sparse, medium and dense unicolored pairs
            cases.append(sparse_coloring(n, round(share * pair_count(n)), rng))
    blue_wins = ties = 0
    for g in cases:
        res = max_mono_clique(g)
        size, vertices, color, red_size, blue_size = _full_maximisation_clique(g)
        assert (res.size, res.witness.vertices, res.witness.color) == (size, vertices, color)
        blue_wins += blue_size > red_size
        ties += blue_size == red_size
    assert blue_wins >= 10 and ties >= 10


def _lex_min_acyclic_optimum(d):
    """Brute force: the first acyclic set, in lexicographic order, of the
    largest size that has one."""
    from biramsey.solvers import _one_way_out_masks, _subset_is_acyclic

    out = _one_way_out_masks(d)
    for size in range(d.n, 0, -1):
        for sub in _all_subsets_of_size(d.n, size):
            if _subset_is_acyclic(sum(1 << v for v in sub), out):
                return sub  # combinations yield in lexicographic order
    return ()


def _strong_blocks(n, rng):
    """Two to four strongly connected tournaments on blocks of shuffled
    labels (each block is a random tournament around a directed Hamiltonian
    cycle); pairs across blocks are bioriented or run from the earlier block
    to the later, so each block is its own strongly connected component."""
    count = int(rng.integers(2, min(4, n // 3) + 1))
    sizes = np.full(count, 3) + np.bincount(rng.integers(0, count, size=n - 3 * count), minlength=count)
    blocks = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    block = {v: b for b, part in enumerate(blocks) for v in part.tolist()}
    arcs = set()
    for part in blocks:
        ring = part.tolist()
        ring_arcs = {(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))}
        arcs |= ring_arcs
        for u, v in combinations(ring, 2):
            if (u, v) not in ring_arcs and (v, u) not in ring_arcs:
                arcs.add((u, v) if rng.integers(0, 2) else (v, u))
    for u, v in combinations(range(n), 2):
        if block[u] != block[v] and rng.integers(0, 2):
            arcs.add((u, v) if block[u] < block[v] else (v, u))
    return SemicompleteDigraph.from_arcs(n, arcs)


def test_transitive_witness_vertex_set_is_lex_min_among_optima(sparse_semicomplete):
    from biramsey.model import random_tournament
    from biramsey.solvers import _one_way_out_masks, _strongly_connected_components, _transpose

    for seed in range(20):
        d = random_semicomplete(7, seed + 900)
        assert max_transitive_set(d).witness.vertices == _lex_min_acyclic_optimum(d)
    # the extraction decides each vertex against a floor of target - 1;
    # compare with brute force on larger and differently shaped instances
    rng = np.random.default_rng(1212)
    multi_component = 0
    for n in range(8, 13):
        for d in (
            random_tournament(n, int(rng.integers(0, 2**31))),
            sparse_semicomplete(n, int(rng.integers(n, 3 * n)), rng),
            _strong_blocks(n, rng),
        ):
            res = max_transitive_set(d)
            assert res.witness.vertices == _lex_min_acyclic_optimum(d)
            assert verify_witness(d, res.witness)
            out, every = _one_way_out_masks(d), (1 << n) - 1
            comps = _strongly_connected_components(out, _transpose(out, every), every)
            multi_component += sum(bin(c).count("1") > 1 for c in comps) > 1
    assert multi_component >= 5  # every _strong_blocks instance at least


# --- differential checks on small random instances ---------------------------


@st.composite
def _small_instances(draw, kind, n_max=8, code=st.integers(0, 2)):
    """Instances of ``kind`` with n <= ``n_max``, each pair code drawn from
    ``code`` (by default any code)."""
    n = draw(st.integers(1, n_max))
    codes = draw(st.lists(code, min_size=pair_count(n), max_size=pair_count(n)))
    return kind(n, bytes(codes))


def _code_mask(instance, code):
    """Pair bitmask of the pairs of ``instance`` holding ``code``."""
    return sum(1 << p for p, c in enumerate(instance.codes) if c == code)


def _block_score(instance, scorer):
    """The oracle's block scorer on the one instance, held as its code-0 and
    code-1 pair bitmasks."""
    dtype = np.min_scalar_type((1 << pair_count(instance.n)) - 1)
    zero, one = (np.array([_code_mask(instance, code)], dtype=dtype) for code in (0, 1))
    return int(scorer(instance.n, zero, one, instance.n)[0])


@pytest.mark.parametrize("family", ["coloring", "digraph"])
@pytest.mark.parametrize("n, m", [(4, m) for m in range(4)] + [(5, 2)])
def test_block_masks_row_i_holds_instance_i_of_the_cell(n, m, family):
    # one instance per complement pair: the codes with the top bit clear
    placements = list(combinations(range(pair_count(n)), m))
    positions = np.array(placements, dtype=np.int64).reshape(len(placements), m)
    zero, one = _block_masks(positions, np.min_scalar_type((1 << pair_count(n)) - 1))
    half = max(m - 1, 0)
    assert len(zero) == len(one) == len(placements) << half
    for i in range(len(zero)):
        row, code = i >> half, i % (1 << half)
        instance = _cell_instance(n, family, placements[row], code)
        assert (int(zero[i]), int(one[i])) == (_code_mask(instance, 0), _code_mask(instance, 1))


_SWAP_ONE_STATE_PAIRS = bytes.maketrans(b"\0\1", b"\1\0")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([BicoloredGraph, SemicompleteDigraph]).flatmap(
    lambda kind: _small_instances(kind, n_max=14)
))
def test_complement_keeps_the_value(instance):
    # the oracle and the tournament scans score one instance per complement
    # pair: swapping both colors, or reversing every arc, keeps the value
    complement = type(instance)(instance.n, instance.codes.translate(_SWAP_ONE_STATE_PAIRS))
    solve = max_mono_clique if isinstance(instance, BicoloredGraph) else max_transitive_set
    assert solve(complement).size == solve(instance).size


@settings(max_examples=120, deadline=None)
@given(_small_instances(BicoloredGraph))
def test_clique_solver_matches_enumeration_block_scorer_and_lex_min(g):
    res = max_mono_clique(g)
    assert res.size == max_mono_clique_by_enumeration(g)
    assert res.size == _block_score(g, _mono_clique_sizes)
    assert (res.witness.color, res.witness.vertices) == _lex_min_mono_clique(g, res.size)


# about four pairs in five bicolored: both color graphs are nearly complete,
# where the clique search takes candidates that miss at most one other
# without branching
_MOSTLY_BICOLORED = st.integers(0, 9).map(lambda x: min(x, 2))


@settings(max_examples=120, deadline=None)
@given(_small_instances(BicoloredGraph, 9, _MOSTLY_BICOLORED))
def test_clique_solver_on_nearly_complete_colorings(g):
    res = max_mono_clique(g)
    assert res.size == max_mono_clique_by_enumeration(g)
    assert res.size == _block_score(g, _mono_clique_sizes)
    assert (res.witness.color, res.witness.vertices) == _lex_min_mono_clique(g, res.size)


def test_clique_reduction_alone_reaches_the_ceiling():
    # K6 minus the perfect matching {0,1}, {2,3}, {4,5}: every vertex misses
    # exactly one other, so the root takes 0, 2 and 4 without branching and
    # stops at the ceiling of 3 (three color classes) in one node
    from biramsey.solvers import _CliqueSolver

    full = (1 << 6) - 1
    adj = [full & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(6)]
    for allowed, floor in ((None, 0), (full, 2), (full & ~1, 2)):
        solver = _CliqueSolver(6, adj)
        assert solver.max_size(allowed, floor=floor, ceiling=3) == 3
        assert solver.nodes == 1


def _is_clique(adj, mask):
    return all(adj[u] >> v & 1 for u, v in combinations(_mask_bits(mask), 2))


@st.composite
def _clique_queries(draw):
    """The red adjacency of a small coloring, dense or sparse, and a few
    (allowed, forced, trim forced to a clique, floor choice, ceiling
    choice) queries."""
    # a quarter of the pairs red: a branch vertex then often meets no other
    # candidate and is a leaf
    mostly_blue = st.integers(0, 3).map(lambda x: min(x, 1))
    g = draw(_small_instances(BicoloredGraph, 9, draw(st.sampled_from((st.integers(0, 2), mostly_blue)))))
    full = (1 << g.n) - 1
    query = st.tuples(
        st.one_of(st.just(full), st.integers(0, full)),
        st.integers(0, full),
        st.booleans(),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((None, 0, 1)),
    )
    return solvers._color_adjacency(g, EdgeColor.RED), draw(st.lists(query, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_clique_queries())
def test_clique_max_size_matches_subset_enumeration(case):
    # the clique search's question, as test_max_acyclic_matches_subset_enumeration
    # asks the acyclic one's: floor choice -1 is no floor, 0 the optimum
    # minus one, 1 the optimum; ceiling choice None is no ceiling, 0 the
    # optimum, 1 the optimum plus one.  A forced set that is no clique
    # reads as the floor, and a result above the floor comes with a found
    # clique of that size between forced and allowed
    from biramsey.solvers import _CliqueSolver

    adj, queries = case
    solver = _CliqueSolver(len(adj), adj)
    for allowed, forced, trim, floor_choice, ceiling_choice in queries:
        forced &= allowed
        if trim:  # keep each vertex of forced adjacent to those kept before it
            for v in _mask_bits(forced):
                if forced & ((1 << v) - 1) & ~adj[v]:
                    forced ^= 1 << v
        opt = _max_by_enumeration(lambda s: _is_clique(adj, s), allowed, forced)
        floor = 0 if floor_choice < 0 or opt < 0 else opt - 1 + floor_choice
        ceiling = None if ceiling_choice is None or opt < 0 else opt + ceiling_choice
        size = solver.max_size(allowed, forced, floor, ceiling)
        assert size == max(opt, floor)
        if size > floor:
            found = solver.found
            assert found.bit_count() == size and found & forced == forced and not found & ~allowed
            assert _is_clique(adj, found)


@settings(max_examples=120, deadline=None)
@given(_small_instances(SemicompleteDigraph))
def test_transitive_solver_matches_enumeration_block_scorer_and_lex_min(d):
    res = max_transitive_set(d)
    assert res.size == max_transitive_set_by_enumeration(d)
    assert res.size == _block_score(d, _transitive_sizes)
    assert res.witness.vertices == _lex_min_acyclic_optimum(d)
    assert verify_witness(d, res.witness)


def _permuted(instance, perm):
    """``instance`` with each vertex v renamed ``perm[v]``."""
    pairs = combinations(range(instance.n), 2)
    return type(instance).from_map(instance.n, {(perm[u], perm[v]): instance.state(u, v) for u, v in pairs})


@pytest.mark.parametrize(
    "kind, solve", [(BicoloredGraph, max_mono_clique), (SemicompleteDigraph, max_transitive_set)]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_solvers_are_invariant_under_relabeling(kind, solve, data):
    # both entry points search on labels of their own choosing; renaming
    # the input's vertices must not change the optimum or the witness's
    # validity on the renamed instance
    instance = data.draw(_small_instances(kind, 9))
    permuted = _permuted(instance, data.draw(st.permutations(range(instance.n))))
    res = solve(permuted)
    assert res.size == solve(instance).size
    assert verify_witness(permuted, res.witness)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64])
def test_pair_masks_relabel_to_the_given_order(n):
    # n straddles the byte boundaries of the packed bit matrix; vertex i of
    # the relabeled masks is vertex order[i] of the input's
    from biramsey.model import _pair_masks

    rng = np.random.default_rng(n)
    ascending, descending = rng.random((2, pair_count(n))) < 0.5
    order = rng.permutation(n).tolist()
    masks = _pair_masks(n, ascending, descending)
    relabeled = _pair_masks(n, ascending, descending, order)
    for i in range(n):
        assert all(relabeled[i] >> j & 1 == masks[order[i]] >> order[j] & 1 for j in range(n))


@pytest.mark.parametrize("n", [1, 2, 9, 40, 64])
def test_search_labels_order_by_degree_product(n):
    # one rule for both searches, read off the pair codes: nonincreasing
    # degree on a simple graph (degree squared), nonincreasing one-way
    # out-degree x in-degree on a digraph, ties to the smaller label; the
    # masks are the input's masks on those labels
    from biramsey.model import _pair_masks, random_tournament
    from biramsey.solvers import _color_adjacency, _color_pairs, _one_way_pairs, _search_labels, _transpose

    g = random_coloring(n, n)
    for color in (EdgeColor.RED, EdgeColor.BLUE):
        adj = _color_adjacency(g, color)
        order, masks = _search_labels(n, *_color_pairs(g, color))
        assert order == sorted(range(n), key=lambda v: -adj[v].bit_count())
        assert masks == _pair_masks(n, *_color_pairs(g, color), order)
    for d in (random_semicomplete(n, n), random_tournament(n, n)):
        out = solvers._one_way_out_masks(d)
        into = _transpose(out, (1 << n) - 1)
        order, masks = _search_labels(n, *_one_way_pairs(d))
        assert order == sorted(range(n), key=lambda v: -out[v].bit_count() * into[v].bit_count())
        assert masks == _pair_masks(n, *_one_way_pairs(d), order)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lex_min_subset_is_the_first_subset_in_list_order(data):
    # independent sets of a random graph on a shuffled vertex list, searched
    # by brute force: the result is the first target-subset combinations()
    # meets in that order.  The search starts out having found the last
    # one, so some decisions are answered from found sets, not searches
    from biramsey.solvers import _lex_min_subset

    n = data.draw(st.integers(1, 8))
    edges = {pair for pair in combinations(range(n), 2) if data.draw(st.booleans())}
    vertices = data.draw(st.lists(st.integers(0, n - 1), unique=True))

    def independent(subset):
        return not any(pair in edges for pair in combinations(sorted(subset), 2))

    sizes = [k for k in range(len(vertices) + 1) if any(map(independent, combinations(vertices, k)))]
    target = data.draw(st.sampled_from(sizes))

    targets = [subset for subset in combinations(vertices, target) if independent(subset)]

    class IndependentSets:
        found = sum(1 << v for v in targets[-1])
        optima = [found]

        def max_size(self, allowed, forced, floor, ceiling):
            # the ceiling is target and the floor target - 1, so only
            # target-sets can answer; no set found so far answers
            assert (floor, ceiling) == (target - 1, target)
            assert not any(s & forced == forced and not s & ~allowed for s in self.optima)
            keep = _mask_bits(forced)
            for more in combinations(_mask_bits(allowed & ~forced), target - len(keep)):
                if independent(keep + list(more)):
                    self.found = forced | sum(1 << v for v in more)
                    self.optima.append(self.found)
                    return target
            return floor

    solver = IndependentSets()
    assert _lex_min_subset(vertices, target, solver, solver.found) == sum(1 << v for v in targets[0])


def _into_mask_sizes(n, forward, backward, cap):
    """Reference for ``_transitive_sizes``: the same subset dynamic program
    on numpy arrays, one vertex mask per instance of the arcs into each
    vertex."""
    vertex_dtype = np.min_scalar_type((1 << n) - 1)
    into = [np.zeros(len(forward), dtype=vertex_dtype) for _ in range(n)]
    for p, (u, v) in enumerate(combinations(range(n), 2)):
        for mask, tail, head in ((forward, u, v), (backward, v, u)):
            into[head] |= ((mask >> p) & 1).astype(vertex_dtype) << tail
    sizes = np.full(len(forward), min(n, 2), dtype=np.int8)
    acyclic = {(1 << u) | (1 << v): np.ones(len(forward), dtype=bool) for u, v in combinations(range(n), 2)}
    for k in range(3, min(n, cap) + 1):
        level = {}
        for subset in combinations(range(n), k):
            s = sum(1 << v for v in subset)
            level[s] = np.zeros(len(forward), dtype=bool)
            for v in subset:
                level[s] |= ((into[v] & (s ^ (1 << v))) == 0) & acyclic[s ^ (1 << v)]
        found = np.logical_or.reduce(list(level.values()))
        if not found.any():
            break
        sizes += found
        acyclic = level
    return sizes


def _pair_code_block(n, length, kind, rng):
    """Code-0 and code-1 pair masks of ``length`` random instances on n
    vertices: tournaments, every pair code drawn uniformly, or the oracle's
    shape of a few one-way pairs among bioriented ones."""
    pairs = pair_count(n)
    if kind == "tournament":
        codes = rng.integers(0, 2, size=(length, pairs))
    elif kind == "mixed":
        codes = rng.integers(0, 3, size=(length, pairs))
    else:
        codes = np.where(rng.random((length, pairs)) < 0.3, rng.integers(0, 2, size=(length, pairs)), 2)
    dtype = np.min_scalar_type((1 << pairs) - 1)
    weights = (1 << np.arange(pairs, dtype=np.uint64)).astype(dtype)
    return codes, *((codes == code).astype(dtype) @ weights for code in (0, 1))


@pytest.mark.parametrize("kind", ["tournament", "mixed", "sparse"])
@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transitive_block_scorer_matches_into_mask_program(n, kind, seed):
    # block lengths that are not multiples of 8 or 64 leave a partial last
    # byte and word in every plane
    rng = np.random.default_rng(seed)
    for length in (0, 1, 37, 1000):
        codes, forward, backward = _pair_code_block(n, length, kind, rng)
        for cap in range(2, n + 2):
            sizes = _transitive_sizes(n, forward, backward, cap)
            assert sizes.dtype == np.int8
            assert sizes.tolist() == _into_mask_sizes(n, forward, backward, cap).tolist()
        # at cap n + 1 the sizes are exact
        for row, size in zip(codes[:3], sizes):
            digraph = SemicompleteDigraph(n, row.astype(np.int8).tobytes())
            assert max_transitive_set_by_enumeration(digraph) == size


def _pair_mask_sizes(n, red, blue, cap):
    """Reference for ``_mono_clique_sizes``: one numpy pass per vertex set
    and color, a set being a red (blue) clique iff its pair mask misses
    ``blue`` (``red``), the pairs of that color only."""
    sizes = np.full(len(red), min(n, 2), dtype=np.int8)
    for k in range(3, min(n, cap) + 1):
        found = np.zeros(len(red), dtype=bool)
        for subset in combinations(range(n), k):
            mask = sum(1 << pair_index(u, v, n) for u, v in combinations(subset, 2))
            for color in (red, blue):
                found |= (color & mask) == 0
        if not found.any():
            break
        sizes += found
    return sizes


@pytest.mark.parametrize("kind", ["tournament", "mixed", "sparse"])
@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_clique_block_scorer_matches_pair_mask_pass(n, kind, seed):
    # the same blocks as the transitive scorer's test, read as colorings:
    # code 0 red, 1 blue, 2 both
    rng = np.random.default_rng(seed)
    for length in (0, 1, 37, 1000):
        codes, red, blue = _pair_code_block(n, length, kind, rng)
        for cap in range(2, n + 2):
            sizes = _mono_clique_sizes(n, red, blue, cap)
            assert sizes.dtype == np.int8
            assert sizes.tolist() == _pair_mask_sizes(n, red, blue, cap).tolist()
        # at cap n + 1 the sizes are exact
        for row, size in zip(codes[:3], sizes):
            graph = BicoloredGraph(n, row.astype(np.int8).tobytes())
            assert max_mono_clique_by_enumeration(graph) == size


@st.composite
def _arc_blocks(draw):
    """A block of digraphs on n <= 7 vertices, each pair drawn from no arc,
    u -> v, v -> u and both (bit 0: u -> v, bit 1: v -> u), as arc rows
    and as the missing-arc planes of ``_acyclic_sizes``, with a cap."""
    n = draw(st.integers(1, 7))
    pair = st.integers(0, 3)
    rows = draw(st.lists(st.lists(pair, min_size=pair_count(n), max_size=pair_count(n)), max_size=12))
    no_ahead, no_behind = (
        [sum((~row[p] >> bit & 1) << i for i, row in enumerate(rows)) for p in range(pair_count(n))]
        for bit in (0, 1)
    )
    return n, rows, no_ahead, no_behind, draw(st.integers(2, n + 1))


def _acyclic_by_enumeration(n, arcs, cap):
    """Largest acyclic vertex set of the digraph whose pair p carries the
    arcs of ``arcs[p]``, with the kernel's floor of 2 and its cap."""
    out = [0] * n
    for (u, v), pair in zip(combinations(range(n), 2), arcs):
        out[u] |= (pair & 1) << v
        out[v] |= (pair >> 1) << u
    best = max(mask.bit_count() for mask in range(1 << n) if _subset_is_acyclic(mask, out))
    return min(max(best, min(n, 2)), cap)


@settings(max_examples=150, deadline=None)
@given(_arc_blocks())
def test_acyclic_kernel_matches_subset_enumeration(block):
    n, rows, no_ahead, no_behind, cap = block
    sizes = _acyclic_sizes(n, len(rows), no_ahead, no_behind, cap)
    assert sizes.dtype == np.int8
    assert sizes.tolist() == [_acyclic_by_enumeration(n, row, cap) for row in rows]
    # every arc both ways: the one-source shortcut, taken when the two
    # plane lists are one object, equals the general loop on equal copies
    neither = [a & b for a, b in zip(no_ahead, no_behind)]
    shortcut = _acyclic_sizes(n, len(rows), neither, neither, cap)
    assert shortcut.tolist() == _acyclic_sizes(n, len(rows), neither, list(neither), cap).tolist()
    assert shortcut.tolist() == [_acyclic_by_enumeration(n, [3 * (p > 0) for p in row], cap) for row in rows]


@settings(max_examples=120, deadline=None)
@given(_small_instances(SemicompleteDigraph))
def test_clique_of_the_mapped_coloring_is_at_most_the_transitive_set(d):
    # a monochromatic clique of digraph_to_coloring(d) is a transitive set of
    # d, so f <= F instance by instance
    assert max_mono_clique(digraph_to_coloring(d)).size <= max_transitive_set(d).size


def test_size_caps(monkeypatch):
    # one vertex over each cap is refused before any search starts, by the
    # witness solvers and by optimum alike
    monkeypatch.setattr(solvers, "_CliqueSolver", None)
    monkeypatch.setattr(solvers, "_AcyclicSolver", None)
    n = CLIQUE_SIZE_CAP + 1
    g = BicoloredGraph(n, bytes([EdgeColor.RED.code]) * pair_count(n))
    for solve in (max_mono_clique, optimum):
        with pytest.raises(SizeLimitExceeded, match=f"^n={n} exceeds clique solver cap {CLIQUE_SIZE_CAP}$"):
            solve(g)
    n = TRANSITIVE_SIZE_CAP + 1
    d = SemicompleteDigraph(n, bytes([ArcState.BIORIENTED.code]) * pair_count(n))
    for solve in (max_transitive_set, optimum):
        with pytest.raises(SizeLimitExceeded, match=f"^n={n} exceeds transitive solver cap {TRANSITIVE_SIZE_CAP}$"):
            solve(d)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([BicoloredGraph, SemicompleteDigraph]).flatmap(
    lambda kind: _small_instances(kind, n_max=9)
))
def test_optimum_is_the_witness_size_and_the_enumerated_maximum(instance):
    if isinstance(instance, BicoloredGraph):
        solve, enumerate_ = max_mono_clique, max_mono_clique_by_enumeration
    else:
        solve, enumerate_ = max_transitive_set, max_transitive_set_by_enumeration
    assert optimum(instance) == solve(instance).size == enumerate_(instance)


@pytest.mark.parametrize(
    "cert",
    [tournament_packing(39, 4), blowup(40, 4), mixed_digraph(40, 3, Fraction(1, 2))],
    ids=["tournament_packing-39-4", "blowup-40-4", "mixed_digraph-40-3"],
)
def test_optimum_on_digraphs_of_many_components(cert):
    # cycles never cross strongly connected components, so the optimum is
    # the sum of each component's maximum, enumerated over its subsets
    from biramsey.solvers import _one_way_out_masks, _strongly_connected_components, _transpose

    d = cert.instance
    out = _one_way_out_masks(d)
    every = (1 << d.n) - 1
    comps = _strongly_connected_components(out, _transpose(out, every), every)
    assert sum(comp & (comp - 1) != 0 for comp in comps) >= 2
    total = sum(_max_by_enumeration(lambda s: _subset_is_acyclic(s, out), comp, 0) for comp in comps)
    assert optimum(d) == max_transitive_set(d).size == total
    assert total <= cert.claimed_bound


# --- witness checking --------------------------------------------------------


def test_verify_witness_examples():
    all_red = BicoloredGraph(4, bytes([EdgeColor.RED.code]) * 6)
    assert verify_witness(all_red, MonoCliqueWitness((0, 1, 2, 3), EdgeColor.RED))
    assert not verify_witness(all_red, MonoCliqueWitness((0, 1, 2, 3), EdgeColor.BLUE))
    cyc = SemicompleteDigraph.from_arcs(3, {(0, 1), (1, 2), (2, 0)})
    assert not verify_witness(cyc, TransitiveWitness((0, 1, 2), (0, 1, 2)))
    assert verify_witness(cyc, TransitiveWitness((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        verify_witness(all_red, MonoCliqueWitness((0, 4), EdgeColor.RED))
    with pytest.raises(ValueError):
        verify_witness(cyc, TransitiveWitness((0, 3), (0, 3)))
    # a negative vertex is out of range too, alone or below others
    with pytest.raises(ValueError, match="out of range"):
        verify_witness(all_red, MonoCliqueWitness((-1,), EdgeColor.RED))
    with pytest.raises(ValueError, match="out of range"):
        verify_witness(all_red, MonoCliqueWitness((-1, 0), EdgeColor.RED))
    with pytest.raises(ValueError, match="out of range"):
        verify_witness(cyc, TransitiveWitness((-7,), (-7,)))


def test_verify_witness_kind_mismatch():
    all_red = BicoloredGraph(4, bytes([EdgeColor.RED.code]) * 6)
    with pytest.raises(KindMismatch):
        verify_witness(all_red, TransitiveWitness((0, 1), (0, 1)))
    d = SemicompleteDigraph(3, bytes([ArcState.BIORIENTED.code]) * 3)
    with pytest.raises(KindMismatch):
        verify_witness(d, MonoCliqueWitness((0, 1), EdgeColor.RED))
    with pytest.raises(KindMismatch, match="unknown witness type tuple"):
        verify_witness(d, (0, 1))


def test_solver_witnesses_verify_on_many_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(250):
        n = int(rng.integers(1, 12))
        seed = int(rng.integers(0, 2**31))
        g = random_coloring(n, seed)
        assert verify_witness(g, max_mono_clique(g).witness)
        d = random_semicomplete(n, seed)
        assert verify_witness(d, max_transitive_set(d).witness)


# --- worst-case oracles ------------------------------------------------------


def test_oracle_at_m_zero_is_n():
    for n in (1, 2, 3, 4, 5):
        assert brute_force_f(n, 0).value == n
        assert brute_force_F(n, 0).value == n


def test_oracle_small_m_formulas():
    assert brute_force_f(5, 4).value == 3
    assert brute_force_F(5, 4).value == 4
    assert brute_force_f(3, 3).value == 2


def test_oracle_extremal_instance_attains_value():
    from biramsey.model import parse_instance

    table = brute_force_f(4, 3)
    inst = parse_instance(table.extremal_instance)
    assert max_mono_clique(inst).size == table.value
    table = brute_force_F(4, 3)
    inst = parse_instance(table.extremal_instance)
    assert max_transitive_set(inst).size == table.value


def test_oracle_monotone_and_sandwich_on_n4():
    total = 6
    values = [
        (brute_force_f(4, m).value, brute_force_F(4, m).value)
        for m in range(total + 1)
    ]
    for m in range(1, total + 1):
        assert values[m][0] <= values[m - 1][0]
        assert values[m][1] <= values[m - 1][1]
    for f_val, big_f in values:
        assert f_val <= big_f


def test_oracle_budget_errors():
    with pytest.raises(BudgetExceeded) as info:
        brute_force_f(7, 0)  # C(7,2) = 21 > 15 pair-slot cap
    assert info.value.estimate >= 1
    with pytest.raises(BudgetExceeded) as info:
        brute_force_F(6, 8, budget=10)
    assert info.value.estimate == oracle_budget_estimate(6, 8)


def test_oracle_pair_cap_comes_before_the_instance_count():
    # comb(C(150,2), 5587) * 2^5587 has thousands of digits: neither computed
    # nor printed, and the cell is refused as over budget, not a ValueError
    message = r"C\(150,2\)=11175 pair slots; cap is C\(n,2\) <= 15$"
    with pytest.raises(BudgetExceeded, match=message) as info:
        _check_oracle_pre(150, 5587, 10**8)
    assert 1 <= info.value.estimate <= 2**64


def test_oracle_is_deterministic():
    a = brute_force_F(4, 4)
    b = brute_force_F(4, 4)
    assert a == b


def test_node_counts_stay_modest_on_structured_instances(
    sparse_semicomplete_28, sparse_colorings_64
):
    # the exposed counters guard the pruning machinery: orders of magnitude
    # of headroom over observed counts, tight enough to catch a broken
    # bound or a lost component decomposition
    from biramsey.constructions import lex_clique_packing, tournament_packing
    from biramsey.model import random_tournament

    # digraphs: 112, 3973 and 2549 nodes when every vertex of the first
    # packed cycle was branched on with the same forced set; 60, 427 and
    # 1053 with disjoint branching on the cycle with the fewest free
    # vertices; 92, 1024 and 1191 since the search starts from its floor
    # instead of a greedy incumbent; 74, 528 and 500 since forcing a vertex
    # deletes the free vertices that close a cycle with the forced set and
    # witness extraction reuses the optima it has found; 60, 521 and 499
    # since witness decisions stop at a ceiling, with no memo; 60, 310 and
    # 224 since the search runs on vertices ordered by nonincreasing
    # out-degree x in-degree
    r = max_transitive_set(tournament_packing(14, 3).instance)
    assert r.nodes_explored < 100
    r = max_mono_clique(lex_clique_packing(16, 3).instance)
    assert r.nodes_explored < 10_000
    r = max_transitive_set(random_tournament(20, 99))
    assert r.nodes_explored < 360
    # 3485 nodes when witness extraction searched each vertex for a true
    # maximum; deciding against a floor of target - 1 takes 2549
    r = max_transitive_set(sparse_semicomplete_28)
    assert r.nodes_explored < 260
    # plain degree is n - 1 on every vertex of a tournament, so it leaves
    # the input labels, which take 2579 nodes here; the degree product
    # takes 1738
    r = max_transitive_set(random_tournament(28, 1))
    assert r.nodes_explored < 2_000
    # 9727 and 2994 nodes when blue and every clique extraction step were
    # full maximisations from 0; with the floors and ceilings, 3943 and 1059
    # on degeneracy-relabeled (smallest-last) vertices, and 900 and 813 on
    # the given labels; 177 and 727 since a candidate that misses at most
    # one other is taken without branching; 148 and 515 since each color's
    # search runs on vertices ordered by nonincreasing degree
    r = max_mono_clique(sparse_colorings_64[256])
    assert r.nodes_explored < 170
    r = max_mono_clique(sparse_colorings_64[1024])
    assert r.nodes_explored < 600


@pytest.mark.parametrize(
    "m, size, vertices, color",
    [
        (64, 49, (0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23,
                  24, 28, 30, 31, 32, 34, 35, 36, 38, 39, 40, 42, 45, 46, 47, 48, 50, 51, 52,
                  54, 55, 56, 57, 58, 59, 60, 61, 62), EdgeColor.RED),
        (512, 21, (0, 3, 4, 6, 8, 13, 16, 20, 22, 25, 26, 27, 30, 31, 36, 41, 47, 54, 57, 59,
                   63), EdgeColor.RED),
        (2016, 9, (9, 17, 21, 23, 26, 31, 33, 34, 48), EdgeColor.BLUE),
    ],
)
def test_n64_clique_witness_is_pinned(sparse_coloring, m, size, vertices, color):
    # the lex-min witness of seeded n = 64 colorings from nearly complete to
    # all unicolored; a reduction, bound or vertex order that changes it is
    # a bug.  Node counts 1227, 2421 and 288 when every node branched; 51,
    # 1448 and 259 since a candidate that misses at most one other is taken
    # outright; 67, 397 and 230 on vertices ordered by nonincreasing degree
    r = max_mono_clique(sparse_coloring(64, m, np.random.default_rng(0)))
    assert (r.size, r.witness.vertices, r.witness.color) == (size, vertices, color)


def test_random_semicomplete_32_witness_is_pinned():
    # 231,754 nodes and about 2.4 s when every cycle vertex was branched on
    # with the same forced set, 14,316 with disjoint branching from a greedy
    # incumbent, 14,935 from the floor, 6,208 with closer deletion and found
    # optima reused in witness extraction, 6,190 without the memo and with
    # witness decisions stopping at a ceiling, 3,951 on vertices ordered by
    # nonincreasing out-degree x in-degree; the witness has not moved since
    r = max_transitive_set(random_semicomplete(32, 1))
    assert r.size == 13
    assert r.witness.vertices == (0, 1, 3, 4, 7, 8, 10, 11, 14, 17, 18, 21, 29)
    assert r.witness.order == (1, 7, 4, 3, 8, 21, 18, 17, 0, 29, 10, 11, 14)
    assert r.nodes_explored < 4_500


def test_random_semicomplete_36_witness_is_pinned():
    # 32,733 nodes from the floor, 9,390 with closer deletion and found
    # optima reused in witness extraction, still 9,390 without the memo, and
    # 4,344 on vertices ordered by nonincreasing out-degree x in-degree; the
    # witness is the same.  The solve's memory does not grow with its
    # node count: about 1.07 MB at peak with a memo entry per node, 0.04 MB
    # without
    digraph = random_semicomplete(36, 1)
    tracemalloc.start()
    try:
        r = max_transitive_set(digraph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000
    assert r.size == 16
    assert r.witness.vertices == (2, 3, 4, 8, 9, 10, 11, 15, 17, 18, 19, 23, 24, 25, 28, 32)
    assert r.witness.order == (8, 10, 3, 25, 32, 28, 15, 11, 9, 24, 17, 19, 2, 18, 23, 4)
    assert r.nodes_explored < 5_000


# --- acyclic branch and bound --------------------------------------------------


def test_acyclic_branching_is_disjoint_and_takes_the_freest_cycle():
    # two disjoint triangles, 3 and 4 forced: the root's one child deletes 5,
    # the only free vertex of the second triangle; that child branches on the
    # first triangle, each sibling forcing the vertices deleted before it
    from biramsey.solvers import _AcyclicSolver, _one_way_out_masks

    d = SemicompleteDigraph.from_arcs(6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})
    solver = _AcyclicSolver(6, _one_way_out_masks(d))
    calls = []
    search = solver._search

    def recording(allowed, forced):
        calls.append((allowed, forced))
        search(allowed, forced)

    solver._search = recording
    solver._best = 0
    solver._search(0b111111, 0b011000)
    assert calls == [
        (0b111111, 0b011000),
        (0b011111, 0b011000),
        (0b011110, 0b011000),
        (0b011101, 0b011001),
        (0b011011, 0b011011),
    ]
    assert solver._best == 4


def test_max_acyclic_deletes_a_closer_before_searching():
    # the same triangles, 3 and 4 forced through max_size: 5 closes the
    # second triangle with them, so the search starts without it.  Forcing 0
    # deletes nothing (no neighbour of 0 is forced); forcing 1 then deletes
    # 2, which closes the first triangle, and the last child ends the loop
    from biramsey.solvers import _AcyclicSolver, _one_way_out_masks

    d = SemicompleteDigraph.from_arcs(6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})
    solver = _AcyclicSolver(6, _one_way_out_masks(d))
    calls = []
    search = solver._search

    def recording(allowed, forced):
        calls.append((allowed, forced))
        search(allowed, forced)

    solver._search = recording
    assert solver.max_size(0b111111, 0b011000) == 4
    assert calls == [
        (0b011111, 0b011000),
        (0b011110, 0b011000),
        (0b011101, 0b011001),
        (0b011011, 0b011011),
    ]


@st.composite
def _small_digraphs(draw):
    """A digraph with n <= 9, a tournament or with any pair codes."""
    n = draw(st.integers(1, 9))
    pairs = pair_count(n)
    code = st.integers(0, 1) if draw(st.booleans()) else st.integers(0, 2)
    return SemicompleteDigraph(n, bytes(draw(st.lists(code, min_size=pairs, max_size=pairs))))


@st.composite
def _acyclic_forcings(draw):
    """The out-masks of a small digraph and the vertices of an acyclic set
    in a drawn order: each vertex of a drawn permutation prefix that keeps
    the set acyclic."""
    d = draw(_small_digraphs())
    n = d.n
    out = solvers._one_way_out_masks(d)
    order, forced = [], 0
    for v in draw(st.permutations(range(n)))[: draw(st.integers(0, n))]:
        if _subset_is_acyclic(forced | 1 << v, out):
            order.append(v)
            forced |= 1 << v
    return out, order


@settings(max_examples=150, deadline=None)
@given(_acyclic_forcings())
def test_closers_are_the_free_vertices_that_close_a_cycle(case):
    # forcing an acyclic set one vertex at a time, the closers returned on
    # the way are exactly the vertices w outside it for which the set plus
    # w holds a cycle
    out, order = case
    solver = solvers._AcyclicSolver(len(out), out)
    forced = closers = 0
    for v in order:
        forced |= 1 << v
        closers |= solver._closers(v, forced)
    expected = sum(
        1 << w
        for w in range(len(out))
        if not forced >> w & 1 and not _subset_is_acyclic(forced | 1 << w, out)
    )
    assert closers == expected


def _max_by_enumeration(holds, allowed, forced):
    """Largest S with forced <= S <= allowed for which ``holds(S)``, over
    every such S; -1 if there is none."""
    free = allowed & ~forced
    best = -1
    sub = free
    while True:
        chosen = forced | sub
        if chosen.bit_count() > best and holds(chosen):
            best = chosen.bit_count()
        if not sub:
            return best
        sub = (sub - 1) & free


@st.composite
def _acyclic_queries(draw):
    """A small digraph and a few (allowed, forced, add a cycle, floor
    choice, ceiling choice) queries."""
    d = draw(_small_digraphs())
    full = (1 << d.n) - 1
    query = st.tuples(
        st.one_of(st.just(full), st.integers(0, full)),
        st.integers(0, full),
        st.booleans(),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((None, 0, 1)),
    )
    return d, draw(st.lists(query, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_acyclic_queries())
def test_max_acyclic_matches_subset_enumeration(case):
    # floor choice -1 is no floor, 0 the optimum minus one, 1 the optimum;
    # ceiling choice None is no ceiling, 0 the optimum, 1 the optimum plus
    # one.  One solver answers every query, as in witness extraction, so no
    # query may depend on state left by the one before.  The search starts
    # from the floor, so it has to find the optimum on its own; a forced
    # cycle reads as the floor, -1.
    from biramsey.solvers import _AcyclicSolver, _one_way_out_masks

    d, queries = case
    out = _one_way_out_masks(d)
    solver = _AcyclicSolver(d.n, out)
    for allowed, forced, add_cycle, floor_choice, ceiling_choice in queries:
        forced &= allowed
        cycle = _reference_cycle(out, allowed) if add_cycle else None
        if cycle is not None:
            forced |= sum(1 << v for v in cycle)
        opt = _max_by_enumeration(lambda s: _source_peel_is_acyclic(s, out), allowed, forced)
        if cycle is not None:
            assert opt == -1  # the forced set holds a cycle
        floor = -1 if floor_choice < 0 or opt < 0 else opt - 1 + floor_choice
        ceiling = None if ceiling_choice is None or opt < 0 else opt + ceiling_choice
        assert solver.max_size(allowed, forced, floor, ceiling) == max(opt, floor)
        if ceiling == opt and opt > floor:
            # the ceiling stopped the search at the set that reached it
            found = solver.found
            assert found.bit_count() == opt and _subset_is_acyclic(found, out)
            assert found & forced == forced and not found & ~allowed


@pytest.mark.parametrize("n, seed", [(12, 1), (12, 2), (12, 3), (14, 1), (14, 2), (14, 3)])
def test_max_acyclic_stops_at_its_ceiling(n, seed):
    # the drawn queries above seldom branch; these whole digraphs do.  With
    # the optimum as its ceiling, from no floor and from optimum - 1, the
    # search still returns the optimum and a found set of that size, and it
    # takes fewer nodes than without the ceiling
    from biramsey.solvers import _AcyclicSolver, _one_way_out_masks

    out = _one_way_out_masks(random_semicomplete(n, seed))
    full = (1 << n) - 1
    opt = _max_by_enumeration(lambda s: _source_peel_is_acyclic(s, out), full, 0)
    for floor in (-1, opt - 1):
        free = _AcyclicSolver(n, out)
        assert free.max_size(full, 0, floor) == opt
        capped = _AcyclicSolver(n, out)
        assert capped.max_size(full, 0, floor, opt) == opt
        assert capped.found.bit_count() == opt and _subset_is_acyclic(capped.found, out)
        assert capped.nodes < free.nodes


# --- cycle search --------------------------------------------------------------


def _reference_cycle(out, mask):
    """Some directed cycle inside ``mask``, following arcs, by a recursive
    depth-first search that closes at its first arc onto its own stack; None
    if ``mask`` is acyclic."""
    done = 0

    def visit(stack):
        nonlocal done
        for y in _mask_bits(out[stack[-1]] & mask & ~done):
            cycle = tuple(stack[stack.index(y):]) if y in stack else visit(stack + [y])
            if cycle:
                return cycle
        done |= 1 << stack[-1]
        return None

    for s in _mask_bits(mask):
        cycle = None if done >> s & 1 else visit([s])
        if cycle:
            return cycle
    return None


def _one_way_digraphs(rng):
    """Out-mask lists: random one-way digraphs over a range of densities,
    directed cycles C_4..C_9 with random chords, and digraphs whose arcs
    all cross a bipartition (no odd cycles, so no triangles)."""
    for _ in range(120):
        n = int(rng.integers(3, 17))
        density = float(rng.choice([0.15, 0.3, 0.5, 0.8, 1.0]))
        out = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    if rng.integers(0, 2):
                        out[u] |= 1 << v
                    else:
                        out[v] |= 1 << u
        yield out
    for k in range(4, 10):
        for chords in range(4):
            out = [1 << ((i + 1) % k) for i in range(k)]
            for _ in range(chords):
                i, j = rng.choice(k, size=2, replace=False).tolist()
                if not (out[j] >> i & 1):
                    out[i] |= 1 << j
            yield out
    for _ in range(40):
        n = int(rng.integers(4, 17))
        side = rng.integers(0, 2, size=n)
        out = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if side[u] != side[v] and rng.random() < 0.7:
                    if rng.integers(0, 2):
                        out[u] |= 1 << v
                    else:
                        out[v] |= 1 << u
        yield out


def _first_triangle(out, mask):
    """The vertex mask of the directed triangle (s, x, y) inside ``mask``
    with s its smallest vertex that comes first in lexicographic order; 0 if
    there is none."""
    triangles = [
        (a, b, c) if out[a] >> b & 1 else (a, c, b)
        for a, b, c in combinations(_mask_bits(mask), 3)
        if (out[a] >> b & out[b] >> c & out[c] >> a | out[a] >> c & out[c] >> b & out[b] >> a) & 1
    ]
    return sum(1 << v for v in min(triangles, default=()))


def _is_cycle_set(out, vertices):
    """True iff a directed cycle runs through every vertex of ``vertices``
    along arcs inside it: a depth-first search over the simple paths from
    its lowest vertex for a Hamiltonian one that closes."""
    start = _mask_bits(vertices)[0]

    def extend(v, seen):
        if seen == vertices:
            return bool(out[v] >> start & 1)
        return any(extend(w, seen | 1 << w) for w in _mask_bits(out[v] & vertices & ~seen))

    return extend(start, 1 << start)


def test_cycle_packing_returns_disjoint_cycles_inside_the_mask():
    # any vertex-disjoint cycles bound the deletions from below: at most k
    # vertex sets of the mask, each that of a directed cycle, pairwise
    # disjoint; with k >= n what is left is acyclic, and a mask with a
    # triangle opens with the lexicographically first one
    from biramsey.solvers import _AcyclicSolver, _subset_is_acyclic

    rng = np.random.default_rng(3030)
    walked = 0
    for out in _one_way_digraphs(rng):
        n = len(out)
        solver = _AcyclicSolver(n, out)
        for mask in [(1 << n) - 1] + [int(rng.integers(0, 1 << n)) for _ in range(12)]:
            triangle = _first_triangle(out, mask)
            for k in (1, 2, n):
                packing = solver._cycle_packing(mask, k)
                assert len(packing) <= k
                assert bool(packing) != _subset_is_acyclic(mask, out)
                used = 0
                for cycle in packing:
                    assert cycle.bit_count() >= 3
                    assert cycle & mask == cycle and not cycle & used
                    assert _is_cycle_set(out, cycle)
                    used |= cycle
                if triangle:
                    assert packing[0] == triangle
                if k == n:
                    assert _subset_is_acyclic(mask & ~used, out)
                    walked += sum(cycle.bit_count() > 3 for cycle in packing)
    assert walked >= 100  # cycles the walk closed once no triangle was left


def test_cycle_packing_takes_greedy_triangles_then_only_longer_cycles():
    # the triangle phase: the packing opens with the lexicographically first
    # triangle, then the first of what it leaves, and so on; once no
    # triangle is left none comes back as the mask shrinks, so every later
    # cycle has at least 4 vertices
    from biramsey.solvers import _AcyclicSolver

    rng = np.random.default_rng(3030)
    triangles = mixed = 0
    for out in _one_way_digraphs(rng):
        n = len(out)
        solver = _AcyclicSolver(n, out)
        for mask in [(1 << n) - 1] + [int(rng.integers(0, 1 << n)) for _ in range(12)]:
            greedy, left = [], mask
            while triangle := _first_triangle(out, left):
                greedy.append(triangle)
                left ^= triangle
            for k in (1, 2, n):
                packing = solver._cycle_packing(mask, k)
                assert packing[: len(greedy)] == greedy[:k]
                assert all(cycle.bit_count() >= 4 for cycle in packing[len(greedy):])
                triangles += min(k, len(greedy))
                mixed += 0 < len(greedy) < len(packing)
    assert triangles >= 2000 and mixed  # some packings hold both kinds


def test_longer_cycle_walks_past_a_lowest_vertex_on_no_cycle():
    # 0 sits on no cycle but stays in the core, between the 4-cycles
    # 1-2-3-4 and 5-6-7-8, and is its lowest vertex: the walk leaves it for
    # 5 and closes 5-6-7-8
    from biramsey.solvers import _AcyclicSolver, _one_way_out_masks

    arcs = {(1, 2), (2, 3), (3, 4), (4, 1), (1, 0), (0, 5), (5, 6), (6, 7), (7, 8), (8, 5)}
    out = _one_way_out_masks(SemicompleteDigraph.from_arcs(9, arcs))
    assert _AcyclicSolver(9, out)._longer_cycle((1 << 9) - 1) == 0b111100000  # {5, 6, 7, 8}


def test_transitive_solver_on_sparse_and_triangle_free_digraphs():
    # _small_instances seldom lacks triangles; here the bipartite
    # orientations and chorded C_4..C_9 have none, so every packed cycle
    # comes from the walk
    rng = np.random.default_rng(4141)
    for out in _one_way_digraphs(rng):
        n = len(out)
        d = SemicompleteDigraph.from_arcs(n, {(u, v) for u in range(n) for v in _mask_bits(out[u])})
        res = max_transitive_set(d)
        assert res.size == max_transitive_set_by_enumeration(d)
        assert res.witness.vertices == _lex_min_acyclic_optimum(d)
        assert verify_witness(d, res.witness)


# --- mask reachability helpers -------------------------------------------------


def _mask_bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _closure(out, mask):
    """reach[v]: v plus every vertex of ``mask`` it reaches inside ``mask``,
    by a Warshall closure over the bitmask rows."""
    reach = {v: (1 << v) | out[v] & mask for v in _mask_bits(mask)}
    for k in _mask_bits(mask):
        for v in _mask_bits(mask):
            if reach[v] >> k & 1:
                reach[v] |= reach[k]
    return reach


def test_strongly_connected_components_match_mutual_reachability():
    from biramsey.solvers import _strongly_connected_components, _transpose

    rng = np.random.default_rng(5151)
    nontrivial = 0
    for out in _one_way_digraphs(rng):
        n = len(out)
        for mask in [(1 << n) - 1] + [int(rng.integers(0, 1 << n)) for _ in range(6)]:
            reach = _closure(out, mask)
            comps = _strongly_connected_components(out, _transpose(out, mask), mask)
            union = 0
            for comp in comps:
                assert comp and not comp & union  # nonempty and disjoint
                union |= comp
                v = _mask_bits(comp)[0]
                mutual = [u for u in _mask_bits(mask) if reach[v] >> u & 1 and reach[u] >> v & 1]
                assert comp == sum(1 << u for u in mutual)
                nontrivial += comp & (comp - 1) != 0
            assert union == mask
    assert nontrivial >= 300


def _heap_kahn(vertices, out):
    """Kahn's algorithm with a heap over an in-degree dict: smallest vertex
    id first among the available ones."""
    vset = sum(1 << v for v in vertices)
    indeg = {v: 0 for v in vertices}
    for v in vertices:
        for w in _mask_bits(out[v] & vset):
            indeg[w] += 1
    heap = [v for v in vertices if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in _mask_bits(out[v] & vset):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != len(vertices):
        raise ValueError("selected vertex set is not acyclic")
    return tuple(order)


def _peeled_incumbent(out, allowed):
    """A greedy acyclic subset of ``allowed``: vertices join in ascending
    order whenever a full acyclicity peel of the grown set passes."""
    from biramsey.solvers import _subset_is_acyclic

    chosen = 0
    for v in _mask_bits(allowed):
        if _subset_is_acyclic(chosen | 1 << v, out):
            chosen |= 1 << v
    return chosen


def test_topological_order_matches_heap_kahn():
    from biramsey.solvers import _AcyclicSolver, _topological_order

    rng = np.random.default_rng(6262)
    cyclic = 0
    for out in _one_way_digraphs(rng):
        n = len(out)
        solver = _AcyclicSolver(n, out)
        for _ in range(4):
            allowed = int(rng.integers(0, 1 << n))
            vertices = _mask_bits(_peeled_incumbent(out, allowed))
            shuffled = tuple(rng.permutation(vertices).tolist())
            assert _topological_order(shuffled, out) == _heap_kahn(shuffled, out)
            if solver._cycle_packing(allowed, 1):
                cyclic += 1
                for order in (_topological_order, _heap_kahn):
                    with pytest.raises(ValueError):
                        order(tuple(_mask_bits(allowed)), out)
    assert cyclic >= 100


def test_topological_order_matches_heap_kahn_on_trial_witnesses(sparse_semicomplete):
    from biramsey.heuristics import transitive_trials
    from biramsey.solvers import _one_way_out_masks, _topological_order

    rng = np.random.default_rng(7373)
    n = 256
    for m in (n, 4 * n, n * (n - 1) // 4):
        d = sparse_semicomplete(n, m, rng)
        witness, _ = transitive_trials(d, 20, int(rng.integers(0, 2**31)))
        out = _one_way_out_masks(d)
        assert witness.order == _heap_kahn(witness.vertices, out)
        assert _topological_order(witness.vertices, out) == witness.order
        assert verify_witness(d, witness)


def _source_peel_is_acyclic(mask, out):
    """Repeatedly peel vertices with no in-arc from the rest of the set,
    scanning every other vertex for an arc into each candidate."""
    remaining = mask
    while remaining:
        progress = False
        for v in _mask_bits(remaining):
            if not any(out[u] >> v & 1 for u in _mask_bits(remaining) if u != v):
                remaining &= ~(1 << v)
                progress = True
        if not progress:
            return False
    return True


def test_subset_is_acyclic_matches_source_peel():
    from biramsey.solvers import _subset_is_acyclic

    rng = np.random.default_rng(8484)
    verdicts = {True: 0, False: 0}
    for out in _one_way_digraphs(rng):
        n = len(out)
        for _ in range(12):
            mask = int(rng.integers(0, 1 << n))
            expected = _source_peel_is_acyclic(mask, out)
            assert _subset_is_acyclic(mask, out) == expected
            verdicts[expected] += 1
    assert min(verdicts.values()) >= 300
