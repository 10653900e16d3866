"""Builders: claimed pair counts, solver-verified ceilings, disjointness."""

from dataclasses import replace
from fractions import Fraction

import pytest

from biramsey.constructions import (
    EXTREMAL_ORDER,
    ClassSizeMismatch,
    DivisibilityViolation,
    InfeasibleParams,
    UnsupportedK,
    blowup,
    extremal_tournament,
    lex_clique_packing,
    matching_coloring,
    mixed_coloring,
    mixed_digraph,
    tournament_packing,
    triangle_digraph,
    verify_claims,
)
from biramsey.exhaustive import tournament_to_code
from biramsey.model import (
    ArcState,
    EdgeColor,
    SemicompleteDigraph,
    iter_pairs,
)
from biramsey.solvers import (
    max_mono_clique,
    max_transitive_set,
    max_transitive_set_by_enumeration,
)


def test_matching_coloring_examples():
    cert = matching_coloring(6, 4)
    assert cert.claimed_m == 4 and cert.claimed_bound == 4
    assert verify_claims(cert.instance, 4, 4, True) == []
    assert matching_coloring(7, 0).claimed_bound == 7
    cert = matching_coloring(5, 5)
    assert cert.claimed_bound == 3
    assert max_mono_clique(cert.instance).size == 3


def test_certificate_refuses_a_wrong_pair_count():
    cert = matching_coloring(6, 4)
    with pytest.raises(ValueError, match="built 4 unicolored/one-way pairs, claimed 5"):
        replace(cert, claimed_m=5)


def test_matching_coloring_color_classes_are_near_matchings():
    for n, m in [(6, 4), (8, 8), (7, 7), (9, 5)]:
        cert = matching_coloring(n, m)
        reds = [p for p, s in zip(iter_pairs(n), cert.instance.states) if s is EdgeColor.RED]
        blues = [p for p, s in zip(iter_pairs(n), cert.instance.states) if s is EdgeColor.BLUE]
        assert len(reds) == (m + 1) // 2 and len(blues) == m // 2
        blue_ends = [v for e in blues for v in e]
        assert len(blue_ends) == len(set(blue_ends))  # blue is always a matching


def test_matching_coloring_rejects_m_above_n():
    with pytest.raises(InfeasibleParams):
        matching_coloring(5, 6)


def test_triangle_digraph_examples():
    for n, m, bound in [(9, 9, 6), (4, 3, 3), (12, 12, 8)]:
        cert = triangle_digraph(n, m)
        assert cert.claimed_m == m
        assert cert.claimed_bound == bound
        assert max_transitive_set(cert.instance).size == bound


def test_triangle_digraph_residual_arcs_create_no_new_cycles():
    for n, m in [(5, 5), (4, 4), (7, 7), (3, 2), (5, 4)]:
        cert = triangle_digraph(n, m)
        assert cert.instance.oneway_count == m
        assert max_transitive_set(cert.instance).size == n - m // 3


def test_triangle_digraph_infeasible():
    with pytest.raises(InfeasibleParams):
        triangle_digraph(5, 6)  # two triangles need six vertices
    with pytest.raises(InfeasibleParams):
        triangle_digraph(2, 2)  # m exceeds C(2,2)=1


def test_blowup_degenerate_cases():
    inner = SemicompleteDigraph.from_arcs(4, {(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)})
    cert = blowup(4, 1, [inner])
    assert cert.instance == inner
    cert = blowup(5, 5)
    assert cert.claimed_m == 0 and cert.claimed_bound == 5


def test_blowup_example_with_tt3_inner_tournaments():
    inner = SemicompleteDigraph.from_arcs(
        4, {(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)}
    )
    assert max_transitive_set(inner).size == 3
    cert = blowup(8, 2, [inner, inner])
    assert cert.claimed_bound == 6
    assert max_transitive_set(cert.instance).size == 6


def test_blowup_bioriented_density_at_least_one_minus_inverse_t():
    for n, t in [(5, 2), (7, 3), (9, 4), (10, 2), (6, 6)]:
        cert = blowup(n, t, seed=n * 31 + t)
        assert cert.instance.density() >= 1 - Fraction(1, t)


def test_blowup_class_size_mismatch():
    bad = SemicompleteDigraph.from_arcs(2, {(0, 1)})
    with pytest.raises(ClassSizeMismatch):
        blowup(7, 2, [bad, bad])
    biori = SemicompleteDigraph(3, bytes([ArcState.BIORIENTED.code]) * 3)
    with pytest.raises(ClassSizeMismatch):
        blowup(6, 2, [biori, biori])


def test_extremal_tournaments_bundled():
    # two independent routes: branch and bound, and subset enumeration
    for k in (1, 2, 3, 4):
        et = extremal_tournament(k)
        assert et.order == EXTREMAL_ORDER[k]
        assert et.digraph.is_tournament()
        assert max_transitive_set(et.digraph).size == k
        assert max_transitive_set_by_enumeration(et.digraph) == k


def test_extremal_tournament_k4_bundled():
    # the circulant i -> i + {1, 3, 7, 8, 9, 11} mod 13, loaded without a flag
    assert tournament_to_code(extremal_tournament(4).digraph) == 214029147248559233193413
    for k in (0, 5):
        with pytest.raises(UnsupportedK):
            extremal_tournament(k)


def test_tournament_packing_examples():
    cert = tournament_packing(9, 2)
    assert cert.claimed_m == 9 and cert.claimed_bound == 6
    assert verify_claims(cert.instance, 9, 6, True) == []
    cert = tournament_packing(14, 3)
    assert cert.claimed_m == 42 and cert.claimed_bound == 6
    assert max_transitive_set(cert.instance).size == 6
    cert = tournament_packing(3, 2)
    assert cert.claimed_bound == 2


def test_tournament_packing_divisibility():
    with pytest.raises(DivisibilityViolation):
        tournament_packing(10, 2)


def test_lex_clique_packing_examples():
    cert = lex_clique_packing(9, 2)
    assert cert.claimed_m == 18 and cert.claimed_bound == 3
    assert verify_claims(cert.instance, 18, 3, True) == []
    cert = lex_clique_packing(4, 1)
    assert cert.claimed_m == 4 and cert.claimed_bound == 2
    cert = lex_clique_packing(16, 3)
    assert cert.claimed_m == 48 and cert.claimed_bound == 4
    assert max_mono_clique(cert.instance).size == 4


def test_lex_clique_packing_color_classes_are_disjoint_clique_unions():
    cert = lex_clique_packing(9, 2)
    reds = {p for p, s in zip(iter_pairs(9), cert.instance.states) if s is EdgeColor.RED}
    blues = {p for p, s in zip(iter_pairs(9), cert.instance.states) if s is EdgeColor.BLUE}
    assert reds.isdisjoint(blues)
    assert len(reds) == len(blues) == 9


def test_lex_clique_packing_errors():
    with pytest.raises(DivisibilityViolation):
        lex_clique_packing(10, 2)
    with pytest.raises(InfeasibleParams):
        lex_clique_packing(9, 8)  # 9 divides by 9 but 9 > 1 block


def test_mixed_coloring_midpoint():
    cert = mixed_coloring(12, 2, Fraction(1, 2))
    assert cert.claimed_bound == 5
    opt = max_mono_clique(cert.instance).size
    assert opt <= cert.claimed_bound
    slack = Fraction(cert.extras["slack"])
    assert 0 <= slack <= 2 * 2 + 2  # floor losses stay O(1) at fixed k


def test_mixed_coloring_degenerate_weights():
    pure_small = mixed_coloring(16, 2, 1)
    lex = lex_clique_packing(16, 1)
    assert pure_small.claimed_m == lex.claimed_m
    assert pure_small.claimed_bound == lex.claimed_bound
    pure_large = mixed_coloring(16, 2, 0)
    assert pure_large.claimed_bound == 6  # five 3-cliques plus one isolated
    assert max_mono_clique(pure_large.instance).size <= 6


def test_mixed_coloring_infeasible():
    with pytest.raises(InfeasibleParams):
        mixed_coloring(8, 2, Fraction(1, 2))  # (k+1)^2 > n


def test_mixed_digraph_midpoint():
    cert = mixed_digraph(16, 2, Fraction(1, 2))
    assert cert.claimed_m == 2 * 3 + 21  # two triangles and one 7-copy
    opt = max_transitive_set(cert.instance).size
    assert opt <= cert.claimed_bound
    assert Fraction(cert.extras["slack"]) >= 0


def test_mixed_digraph_degenerate_weights():
    pure = mixed_digraph(9, 2, 1)
    packing = tournament_packing(9, 2)
    assert pure.claimed_m == packing.claimed_m
    assert pure.claimed_bound == packing.claimed_bound
    with pytest.raises(UnsupportedK):
        mixed_digraph(20, 4, Fraction(1, 2))  # k+1 = 5 unsupported


@pytest.mark.parametrize(
    "build, args",
    [
        (triangle_digraph, (4, 5)),  # five arcs leave two past the one triangle
        (mixed_coloring, (16, 3, Fraction(3, 10))),  # too few blocks to transpose
        (blowup, (5, 0)),
        (lex_clique_packing, (4, -1)),
        (mixed_digraph, (9, 1, Fraction(1, 2))),  # k below 2
        (mixed_digraph, (9, 2, Fraction(3, 2))),  # gamma above 1
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_builders_refuse_infeasible_parameters(build, args):
    with pytest.raises(InfeasibleParams):
        build(*args)


def test_verify_claims_detects_tampering():
    cert = triangle_digraph(9, 9)
    assert verify_claims(cert.instance, 9, 6, True) == []
    assert any("m-accounting" in f for f in verify_claims(cert.instance, 8, 6, True))
    assert any("ceiling" in f for f in verify_claims(cert.instance, 9, 5, False))
    assert any("equality" in f for f in verify_claims(cert.instance, 9, 7, True))


@pytest.mark.parametrize(
    "cert, optimum",
    [(matching_coloring(6, 4), 4), (triangle_digraph(9, 9), 6)],
    ids=["coloring", "digraph"],
)
def test_verify_claims_failure_strings_are_pinned(cert, optimum):
    m = cert.claimed_m
    assert cert.claimed_bound == optimum
    assert verify_claims(cert.instance, m, optimum, True) == []
    assert verify_claims(cert.instance, m - 1, optimum, False) == [
        f"m-accounting: instance has m={m}, claimed {m - 1}",
    ]
    assert verify_claims(cert.instance, m, optimum - 1, False) == [
        f"ceiling: solver optimum {optimum} exceeds claimed {optimum - 1}",
    ]
    assert verify_claims(cert.instance, m, optimum + 1, True) == [
        f"equality: solver optimum {optimum} != claimed {optimum + 1}",
    ]
    # every violated invariant, in this order
    assert verify_claims(cert.instance, m + 1, optimum - 1, True) == [
        f"m-accounting: instance has m={m}, claimed {m + 1}",
        f"ceiling: solver optimum {optimum} exceeds claimed {optimum - 1}",
        f"equality: solver optimum {optimum} != claimed {optimum - 1}",
    ]


# --- builders that are parameterisations of each other ------------------------


@pytest.mark.parametrize(
    "n, c", [(9, 2), (16, 3), (25, 4), (36, 5), (49, 6), (63, 2), (64, 7)]
)
def test_lex_clique_packing_is_mixed_coloring_at_gamma_0(n, c):
    lex, mixed = lex_clique_packing(n, c), mixed_coloring(n, c, 0)
    assert lex.instance == mixed.instance
    assert (lex.claimed_m, lex.claimed_bound) == (mixed.claimed_m, mixed.claimed_bound)


@pytest.mark.parametrize("n", [9, 18, 27, 39])
def test_tournament_packing_is_mixed_digraph_at_gamma_1(n):
    packing, mixed = tournament_packing(n, 2), mixed_digraph(n, 2, 1)
    assert packing.instance == mixed.instance
    assert (packing.claimed_m, packing.claimed_bound) == (
        mixed.claimed_m,
        mixed.claimed_bound,
    )
