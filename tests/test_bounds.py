"""Bound evaluators: frozen examples plus exact-rational properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.bounds import (
    DegenerateDensity,
    ParameterOutOfRange,
    best_upper_bound,
    binomial_moment_identity,
    binomial_pmf,
    blowup_bound,
    classic_bounds,
    first_moment_bound,
    hypergeometric_pmf,
    lll_condition,
    lll_threshold,
    lower_bound_formulas,
    moment_compare,
)
from biramsey.solvers import brute_force_F


def _by_name(reports):
    return {r.name: r for r in reports}


def test_classic_bounds_small_orders():
    r = _by_name(classic_bounds(4))
    assert r["clique-lower-half-log"].value == 1.0
    assert r["clique-upper-double-log"].value == 4.0
    r = _by_name(classic_bounds(64))
    assert r["stearns-doubling"].value == 7
    assert r["erdos-moser"].value == 13
    assert r["sanchez-flores"].value == 7  # floor(log2(64/55)) + 7
    assert "sanchez-flores" not in _by_name(classic_bounds(54))
    r = _by_name(classic_bounds(55 * 2**7))
    assert r["sanchez-flores"].value == 14


def test_classic_bounds_floor_arithmetic_is_exact():
    # 2^53 is large enough for float log2 to round the wrong way naively
    r = _by_name(classic_bounds(2**53 - 1))
    assert r["stearns-doubling"].value == 53
    assert r["erdos-moser"].value == 106


def test_first_moment_at_zero_density_is_double_log_plus_one():
    for n in (4, 7, 64, 1000):
        assert first_moment_bound(0, n).value == 2 * math.log2(n) + 1


def test_first_moment_frozen_value():
    # cross-checked against a 50-digit computation; see the value's digits
    value = first_moment_bound(Fraction(1, 2), 1024).value
    assert value == pytest.approx(49.18841679306419, rel=1e-14)


def test_first_moment_rejects_density_one():
    with pytest.raises(DegenerateDensity):
        first_moment_bound(1, 16)
    with pytest.raises(ParameterOutOfRange):
        first_moment_bound(Fraction(3, 2), 16)


def test_blowup_bound_examples():
    # t classes of 1024 / t vertices, each adding floor(2*log2(1024 / t)) + 1
    r = blowup_bound(Fraction(1, 2), 1024)
    assert r.params["t"] == 2 and r.value == 38 and r.exact
    r = blowup_bound(Fraction(3, 4), 1024)
    assert r.params["t"] == 4 and r.value == 68 and r.exact
    # three near-equal classes of 2, 2 and 1 vertices: 3 + 3 + 1
    r = blowup_bound(Fraction(2, 3), 5)
    assert r.params["t"] == 3 and r.value == 7
    # ten classes on eight vertices: no split, and the counting bound wins
    r = blowup_bound(Fraction(9, 10), 8)
    assert r.params["t"] == 10 and r.value is None
    r = best_upper_bound(Fraction(99999, 100000), 64)
    assert r.params["winner"] == "first-moment-upper"
    assert r.value == first_moment_bound(Fraction(99999, 100000), 64).value


def test_blowup_bound_is_at_least_the_oracle_value():
    checked = 0
    for n in range(2, 7):
        total = n * (n - 1) // 2
        for m in range(1, total):
            value = blowup_bound(Fraction(total - m, total), n).value
            if value is not None:
                assert value >= brute_force_F(n, m).value, (n, m)
                checked += 1
    assert checked == 26


def test_upper_bound_crossover_on_density_grid():
    # the counting route wins at small densities, the blow-up at large ones
    n = 1 << 20
    winners = {
        p: best_upper_bound(Fraction(p), n).params["winner"]
        for p in ("1/10", "9/10")
    }
    assert winners["1/10"] == "first-moment-upper"
    assert winners["9/10"] == "blow-up-upper"
    for p_num in range(1, 10):
        r = best_upper_bound(Fraction(p_num, 10), n)
        assert r.value <= first_moment_bound(Fraction(p_num, 10), n).value
        assert r.value <= blowup_bound(Fraction(p_num, 10), n).value


# --- exact moments -----------------------------------------------------------


def test_pmfs_sum_to_one():
    assert sum(hypergeometric_pmf(10, 4, 6)) == 1
    assert sum(binomial_pmf(6, Fraction(2, 5))) == 1


def test_moment_compare_base_one_is_equality():
    z, y = moment_compare(9, 4, 5, 1)
    assert z == y == 1


def test_moment_compare_frozen_example():
    z, y = moment_compare(4, 2, 2, 2)
    assert (z, y) == (Fraction(13, 6), Fraction(9, 4))
    assert z <= y


def test_moment_compare_degenerate_draw_everything():
    # drawing the whole population pins the hypergeometric at its mean
    for population in range(1, 17):
        for successes in range(population + 1):
            z, y = moment_compare(population, successes, population, 2)
            assert z == 2**successes
            assert z <= y


def test_moment_identity_edge_cases():
    lhs, rhs = binomial_moment_identity(8, 5, 4, 0)
    assert lhs == rhs == 1
    lhs, rhs = binomial_moment_identity(8, 4, 4, 4)
    assert lhs == rhs == Fraction(1, 70)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_moment_inequality_and_identity(data):
    population = data.draw(st.integers(min_value=1, max_value=12))
    successes = data.draw(st.integers(min_value=0, max_value=population))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    base = data.draw(st.sampled_from([1, 2, 3, Fraction(7, 2)]))
    z, y = moment_compare(population, successes, draws, base)
    assert z <= y
    k = data.draw(st.integers(min_value=0, max_value=draws))
    lhs, rhs = binomial_moment_identity(population, successes, draws, k)
    assert lhs == rhs


# --- local lemma -------------------------------------------------------------


def test_lll_condition_certifies_at_million():
    check = lll_condition(10**6, 40)
    assert check.holds
    assert check.ratio_ok and check.series_sum < Fraction(12, 10)


def test_lll_condition_boundary_smoke():
    check = lll_condition(55, 5)  # no a-priori expectation, just well-defined
    assert check.event_probability == Fraction(math.factorial(5), 2**10)
    assert check.dependency_bound > 0


def test_lll_condition_parameter_guards():
    with pytest.raises(ParameterOutOfRange):
        lll_condition(54, 5)
    with pytest.raises(ParameterOutOfRange):
        lll_condition(100, 10)  # k^2 >= n
    with pytest.raises(ParameterOutOfRange):
        lll_condition(1000, 4)


def test_lll_threshold_never_worse_than_erdos_moser():
    previous = 0
    for exponent in range(6, 19):  # n from 10^3 to 10^9, half-decade steps
        n = round(10 ** (exponent / 2))
        report = lll_threshold(n)
        assert report.params["feasible"] is True
        ceiling = report.value
        erdos_moser = math.floor(2 * math.log2(n)) + 1
        assert ceiling <= erdos_moser
        assert ceiling >= previous  # nondecreasing threshold
        previous = ceiling
        assert report.params["ratio"] < Fraction(1, 6)
        # the gap over 2 log2 n - 1 stays a small positive drift
        assert 0 < ceiling - report.params["two_log2_n_minus_1"] < 2.5


def test_lll_threshold_reports_infeasibility_without_raising():
    # at n = 55 the certifiable k would need to reach ~2 log2(n), but the
    # admissible range stops below sqrt(55); reported, not fatal
    report = lll_threshold(55)
    assert report.params["feasible"] is False
    assert report.value is None


def test_lll_threshold_matches_condition_scan():
    n = 10**6
    report = lll_threshold(n)
    k = report.params["smallest_certified_k"]
    assert report.value == k - 1
    assert lll_condition(n, k).holds
    assert not lll_condition(n, k - 1).holds


# --- per-cell formulas -------------------------------------------------------


def test_lower_bound_formulas_small_m_exact():
    r = _by_name(lower_bound_formulas(6, 4))
    assert r["clique-exact-small-m"].value == 4
    assert r["transitive-exact-small-m"].value == 5
    assert "clique-at-most-transitive" in r


def test_lower_bound_formulas_at_m_equal_n():
    r = _by_name(lower_bound_formulas(10, 10))
    assert r["clique-lower-caro-wei"].value == Fraction(5)
    assert r["transitive-lower-degenerate"].value == Fraction(20, 3)
    assert r["clique-exact-small-m"].value == 5  # both regimes apply at m = n


def test_lower_bound_formula_matched_by_packing():
    from biramsey.constructions import lex_clique_packing
    from biramsey.solvers import max_mono_clique

    r = _by_name(lower_bound_formulas(9, 18))
    assert r["clique-lower-caro-wei"].value == 3
    cert = lex_clique_packing(9, 2)
    assert max_mono_clique(cert.instance).size == 3


def test_lower_bound_formulas_range_checks():
    with pytest.raises(ParameterOutOfRange):
        lower_bound_formulas(4, 7)


@pytest.mark.parametrize(
    "evaluate, args",
    [
        (classic_bounds, (1,)),
        (first_moment_bound, (Fraction(1, 2), 1)),
        (blowup_bound, (0, 8)),
        (hypergeometric_pmf, (3, 4, 1)),
        (binomial_pmf, (3, Fraction(3, 2))),
        (moment_compare, (8, 4, 4, Fraction(1, 2))),  # base below 1
        (moment_compare, (0, 0, 0, 2)),  # empty population
        (binomial_moment_identity, (8, 4, 4, 5)),  # k above the draws
        (lower_bound_formulas, (0, 0)),
        (blowup_bound, (Fraction(1, 2), 1)),  # n below 2
        (binomial_moment_identity, (0, 0, 0, 0)),  # empty population
        # one past the moment caps: a population or draws of 1000, 10-bit rationals
        (hypergeometric_pmf, (1001, 0, 0)),
        (binomial_pmf, (1001, Fraction(1, 2))),
        (binomial_pmf, (4, Fraction(1, 1024))),
        (moment_compare, (1001, 500, 500, 2)),
        (moment_compare, (8, 4, 4, 1024)),
        (moment_compare, (8, 4, 4, Fraction(1025, 1024))),
        (binomial_moment_identity, (1001, 500, 500, 2)),
        (binomial_pmf, (-1, Fraction(1, 2))),  # negative draws
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_evaluators_refuse_parameters_out_of_range(evaluate, args):
    with pytest.raises(ParameterOutOfRange):
        evaluate(*args)


def test_oracle_values_respect_formula_bounds(oracle_grid):
    grid, _ = oracle_grid
    for (n, m), (f_val, big_f) in grid.items():
        reports = _by_name(lower_bound_formulas(n, m))
        assert f_val == reports["clique-exact-small-m"].value
        assert big_f == reports["transitive-exact-small-m"].value
        if m >= 1:
            p = Fraction(n * (n - 1) // 2 - m, n * (n - 1) // 2)
            assert big_f < first_moment_bound(p, n).value
