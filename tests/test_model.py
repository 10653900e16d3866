"""Data model: state maps, the family reduction, and the text format."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.model import (
    ArcState,
    BadState,
    BicoloredGraph,
    DuplicatePair,
    EdgeColor,
    InvalidHeader,
    MissingPair,
    SemicompleteDigraph,
    VertexOutOfRange,
    coloring_to_digraph,
    digraph_to_coloring,
    iter_pairs,
    pair_count,
    pair_index,
    parse_instance,
    random_coloring,
    random_semicomplete,
    serialize_instance,
)
from biramsey.solvers import max_mono_clique, max_transitive_set, verify_witness
from biramsey.model import MonoCliqueWitness, TransitiveWitness


def test_pair_index_is_lexicographic():
    n = 7
    for idx, (u, v) in enumerate(iter_pairs(n)):
        assert pair_index(u, v, n) == idx
    assert pair_count(n) == 21


def test_state_accessor_symmetric():
    d = SemicompleteDigraph.from_arcs(3, {(2, 0)})
    assert d.state(0, 2) is ArcState.BACKWARD
    assert d.state(2, 0) is ArcState.FORWARD
    assert d.has_arc(2, 0) and not d.has_arc(0, 2)
    assert d.has_arc(0, 1) and d.has_arc(1, 0)  # bioriented default


def test_from_map_rejects_a_pair_listed_twice():
    with pytest.raises(ValueError, match=r"pair \(0, 1\) listed twice"):
        BicoloredGraph.from_map(3, {(0, 1): EdgeColor.RED, (1, 0): EdgeColor.BLUE})
    with pytest.raises(ValueError, match=r"pair \(0, 1\) listed twice"):
        SemicompleteDigraph.from_map(3, {(0, 1): ArcState.FORWARD, (1, 0): ArcState.FORWARD})
    d = SemicompleteDigraph.from_map(3, {(1, 0): ArcState.FORWARD, (1, 2): ArcState.BACKWARD})
    assert d.state(0, 1) is ArcState.BACKWARD and d.state(1, 2) is ArcState.BACKWARD


def test_m_accounting_exact():
    g = random_coloring(9, 5)
    assert g.unicolored_count + g.bicolored_count == pair_count(9)
    assert g.density() == Fraction(g.bicolored_count, pair_count(9))
    d = random_semicomplete(9, 6)
    assert d.oneway_count + d.bioriented_count == pair_count(9)
    assert d.density() == Fraction(d.bioriented_count, pair_count(9))


# --- the reduction -----------------------------------------------------------


def test_three_cycle_maps_to_two_red_one_blue():
    cyc = SemicompleteDigraph.from_arcs(3, {(0, 1), (1, 2), (2, 0)})
    col = digraph_to_coloring(cyc)
    assert col.state(0, 1) is EdgeColor.RED
    assert col.state(1, 2) is EdgeColor.RED
    assert col.state(0, 2) is EdgeColor.BLUE  # the arc 2 -> 0 descends


def test_all_bioriented_maps_to_all_bicolored():
    d = SemicompleteDigraph(4, (ArcState.BIORIENTED,) * 6)
    col = digraph_to_coloring(d)
    assert all(s is EdgeColor.RED_BLUE for s in col.states)


def test_all_red_maps_to_ascending_tournament():
    g = BicoloredGraph(3, (EdgeColor.RED,) * 3)
    d = coloring_to_digraph(g)
    assert sorted(d.one_way_arcs()) == [(0, 1), (0, 2), (1, 2)]


def test_round_trip_bijection_on_random_instances():
    for seed in range(100):
        n = 2 + seed % 11  # up to 12
        g = random_coloring(n, seed)
        assert digraph_to_coloring(coloring_to_digraph(g)) == g
        d = random_semicomplete(n, seed + 500)
        assert coloring_to_digraph(digraph_to_coloring(d)) == d


def test_reduction_preserves_m():
    for seed in range(20):
        d = random_semicomplete(8, seed)
        assert digraph_to_coloring(d).unicolored_count == d.oneway_count


def test_solver_transfer_inequality_random_digraphs():
    # a monochromatic clique in the image certifies a transitive set, so
    # the image's clique optimum never exceeds the source's transitive one
    for seed in range(10):
        d = random_semicomplete(10, seed)
        col = digraph_to_coloring(d)
        assert max_mono_clique(col).size <= max_transitive_set(d).size


def test_mono_clique_of_image_is_transitive_witness():
    for seed in range(15):
        d = random_semicomplete(9, seed + 37)
        col = digraph_to_coloring(d)
        res = max_mono_clique(col)
        vertices = res.witness.vertices
        if res.witness.color is EdgeColor.RED:
            order = vertices
        else:
            order = tuple(reversed(vertices))
        w = TransitiveWitness(vertices, order)
        assert verify_witness(d, w)


# --- text format -------------------------------------------------------------


def test_parse_example_digraph():
    d = parse_instance("semi 3\n0 1 >\n1 2 >\n0 2 <>\n")
    assert isinstance(d, SemicompleteDigraph)
    assert d.oneway_count == 2


def test_parse_accepts_comments_and_reversed_pairs():
    text = "# corpus item\nsemi 3\n1 0 <  # same as 0 1 >\n1 2 >\n0 2 <>\n"
    d = parse_instance(text)
    assert d.state(0, 1) is ArcState.FORWARD


@pytest.mark.parametrize(
    "text,exc",
    [
        ("semi 3\n0 1 >\n0 1 <\n0 2 >\n1 2 >\n", DuplicatePair),
        ("semi 3\n0 1 >\n0 2 >\n", MissingPair),
        ("bichrome 3\n0 1 >\n0 2 R\n1 2 R\n", BadState),
        ("semi 3\n0 3 >\n0 1 >\n1 2 >\n", VertexOutOfRange),
        ("digraph 3\n0 1 >\n", InvalidHeader),
        ("", InvalidHeader),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_instance(text)


def test_parse_rejects_a_short_file_before_allocating_pairs():
    # the header alone promises C(3000, 2) pair lines; none follow
    start = time.perf_counter()
    with pytest.raises(MissingPair) as info:
        parse_instance("semi 3000\n")
    assert time.perf_counter() - start < 0.5
    assert "never listed" in str(info.value)


@pytest.mark.parametrize(
    "text,message",
    [
        # C(300, 2) comment lines pass the early check; every pair is missing
        ("bichrome 300\n" + "# pad\n" * pair_count(300),
         "pairs never listed: [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]..."),
        ("bichrome 4\n" + "# pad\n" * 5 + "0 1 R\n",
         "pairs never listed: [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]"),
        ("semi 3\n#\n#\n0 1 >\n", "pairs never listed: [(0, 2), (1, 2)]"),
    ],
)
def test_parse_reports_at_most_five_missing_pairs(text, message):
    with pytest.raises(MissingPair) as info:
        parse_instance(text)
    assert str(info.value) == message


def test_parse_error_names_line():
    with pytest.raises(DuplicatePair) as info:
        parse_instance("semi 3\n0 1 >\n0 1 <\n0 2 >\n1 2 >\n")
    assert "line 3" in str(info.value)


def _corpus():
    instances = [random_coloring(n, 3 * n) for n in range(1, 11)]
    instances += [random_semicomplete(n, 7 * n + 1) for n in range(1, 11)]
    return instances


def test_round_trip_canonical_on_corpus():
    # 20 instances: serialize is parse's left inverse and is idempotent
    for inst in _corpus():
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


def test_serialize_uses_lf_and_lex_order():
    g = random_coloring(5, 2)
    text = serialize_instance(g)
    assert "\r" not in text and text.endswith("\n")
    body = [tuple(map(int, line.split()[:2])) for line in text.splitlines()[1:]]
    assert body == list(iter_pairs(5))


# --- witnesses ---------------------------------------------------------------


def test_witness_invariants():
    with pytest.raises(ValueError):
        MonoCliqueWitness((1, 0), EdgeColor.RED)
    with pytest.raises(ValueError):
        MonoCliqueWitness((0, 1), EdgeColor.RED_BLUE)
    with pytest.raises(ValueError):
        TransitiveWitness((0, 1), (0, 2))


# --- property tests ----------------------------------------------------------


@st.composite
def _digraph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    states = draw(
        st.lists(
            st.sampled_from(list(ArcState)),
            min_size=pair_count(n),
            max_size=pair_count(n),
        )
    )
    return SemicompleteDigraph(n, tuple(states))


@settings(max_examples=60, deadline=None)
@given(_digraph())
def test_property_round_trip_and_m(d):
    text = serialize_instance(d)
    assert parse_instance(text) == d
    col = digraph_to_coloring(d)
    assert col.unicolored_count == d.oneway_count
    assert coloring_to_digraph(col) == d
