"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to watch them live).
Runtime ceilings are asserted where stated.
"""

import contextlib
import io
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from biramsey.bounds import (
    binomial_moment_identity,
    binomial_pmf,
    first_moment_bound,
    hypergeometric_pmf,
    lll_condition,
    lll_threshold,
    moment_compare,
)
from biramsey.cli import cli_main
from biramsey.constructions import (
    blowup,
    extremal_tournament,
    lex_clique_packing,
    matching_coloring,
    mixed_coloring,
    mixed_digraph,
    tournament_packing,
    triangle_digraph,
)
from biramsey import heuristics
from biramsey.exhaustive import (
    every_tournament_contains_tt,
    min_max_transitive_over_tournaments,
    tt_free_tournament_codes,
)
from biramsey.heuristics import (
    aks_run,
    caro_wei_run,
    expectation_aks,
    expectation_caro_wei,
    induces_forest,
    is_independent_set,
    permutation_average_size,
    random_simple_graph,
)
from biramsey.model import SemicompleteDigraph
from biramsey.solvers import max_mono_clique, max_transitive_set


def _report(number: int, label: str) -> None:
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_small_m_exact_values(oracle_grid):
    grid, elapsed = oracle_grid
    for n in (3, 4, 5):
        for m in range(n + 1):
            f_val, big_f = grid[(n, m)]
            assert f_val == n - m // 2, (n, m, f_val)
            assert big_f == n - m // 3, (n, m, big_f)
    assert elapsed < 300, f"grid took {elapsed:.1f}s, ceiling 300s"
    _report(1, "exhaustive f, F match n - floor(m/2), n - floor(m/3) on the grid")


def test_criterion_2_monotonicity_and_sandwich(oracle_grid):
    grid, _ = oracle_grid
    violations = 0
    for n in (3, 4, 5):
        for m in range(1, n + 1):
            if grid[(n, m)][0] > grid[(n, m - 1)][0]:
                violations += 1
            if grid[(n, m)][1] > grid[(n, m - 1)][1]:
                violations += 1
    for (n, m), (f_val, big_f) in grid.items():
        if f_val > big_f:
            violations += 1
    assert violations == 0
    _report(2, "f, F nonincreasing in m and f <= F in every cell")


def test_criterion_3_moment_inequality_and_identity():
    start = time.monotonic()
    for population in range(1, 17):
        for successes in range(population + 1):
            for draws in range(population + 1):
                z_pmf = hypergeometric_pmf(population, successes, draws)
                y_pmf = binomial_pmf(draws, Fraction(successes, population))
                coincide = z_pmf == y_pmf
                for base in (1, 2, 3):
                    expect_z, expect_y = moment_compare(
                        population, successes, draws, base
                    )
                    assert expect_z <= expect_y
                    assert (expect_z == expect_y) == (base == 1 or coincide)
    for population in range(1, 13):
        for successes in range(population + 1):
            for draws in range(population + 1):
                for k in range(draws + 1):
                    lhs, rhs = binomial_moment_identity(
                        population, successes, draws, k
                    )
                    assert lhs == rhs
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"moment scan took {elapsed:.1f}s, ceiling 60s"
    _report(3, "E[c^Z] <= E[c^Y] with equality iff degenerate; moment identity exact")


def _positive_degree_graph(rng) -> list[int]:
    # the classical sums presume positive degrees; redraw until every
    # vertex has a neighbor (the run expectation equals the sum there)
    while True:
        n = int(rng.integers(2, 41))
        density = float(rng.uniform(0.1, 0.9))
        graph = random_simple_graph(n, density, int(rng.integers(0, 2**31)))
        if all(graph):  # every vertex has a neighbour, so there are edges
            return graph


def test_criterion_4_randomized_guarantees():
    rng = np.random.default_rng(2)
    trials = 2000
    for index in range(50):
        graph = _positive_degree_graph(rng)
        base_seed = int(rng.integers(0, 2**31))
        for runner, expectation, checker in (
            (caro_wei_run, expectation_caro_wei(graph).sum_value, is_independent_set),
            (aks_run, expectation_aks(graph).sum_value, induces_forest),
        ):
            sizes = np.empty(trials)
            # trial t draws from the split(base_seed, t) stream, derived in bulk
            for t, stream in enumerate(heuristics._trial_generators(base_seed, trials)):
                out = runner(graph, stream)
                assert checker(graph, out)  # zero validity exceptions
                sizes[t] = len(out)
            mean = sizes.mean()
            stderr = sizes.std(ddof=1) / math.sqrt(trials)
            if stderr == 0:
                assert mean == float(expectation)
            else:
                assert abs(mean - float(expectation)) <= 3 * stderr, (
                    index, graph.n, mean, float(expectation), stderr,
                )
    # exact rational check: averaging over all n! permutations
    small_rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6, 7):
        while True:
            graph = random_simple_graph(n, 0.6, int(small_rng.integers(0, 2**31)))
            if all(graph):
                break
        assert permutation_average_size(graph, 0) == expectation_caro_wei(graph).sum_value
        assert permutation_average_size(graph, 1) == expectation_aks(graph).sum_value
    _report(4, "empirical means within 3 SE; exact averages at n <= 7; all runs valid")


def test_criterion_5_construction_certificates():
    start = time.monotonic()
    exact = [
        (matching_coloring(6, 4), 4, max_mono_clique),
        (triangle_digraph(9, 9), 6, max_transitive_set),
        (tournament_packing(9, 2), 6, max_transitive_set),
        (tournament_packing(14, 3), 6, max_transitive_set),
        (lex_clique_packing(9, 2), 3, max_mono_clique),
        (lex_clique_packing(16, 3), 4, max_mono_clique),
    ]
    for cert, expected, solver in exact:
        assert cert.claimed_bound == expected
        assert solver(cert.instance).size == expected, cert.provenance
    tt3_inner = SemicompleteDigraph.from_arcs(
        4, {(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)}
    )
    smoke = [
        (blowup(8, 2, [tt3_inner, tt3_inner]), max_transitive_set),
        (blowup(16, 4, seed=7), max_transitive_set),
        (blowup(5, 1, seed=3), max_transitive_set),
        (mixed_coloring(12, 2, Fraction(1, 2)), max_mono_clique),
        (mixed_coloring(16, 2, Fraction(1, 2)), max_mono_clique),
        (mixed_coloring(16, 2, 0), max_mono_clique),
        (mixed_digraph(16, 2, Fraction(1, 2)), max_transitive_set),
        (mixed_digraph(9, 2, 1), max_transitive_set),
    ]
    for cert, solver in smoke:
        assert cert.instance.n <= 16
        assert solver(cert.instance).size <= cert.claimed_bound, cert.provenance
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"certificates took {elapsed:.1f}s, ceiling 120s"
    _report(5, "all six exact certificates attained; all smoke ceilings respected")


def test_criterion_6_extremal_tournaments_and_forcing_orders():
    cycle = extremal_tournament(2)
    assert max_transitive_set(cycle.digraph).size == 2
    qr7 = extremal_tournament(3)
    assert max_transitive_set(qr7.digraph).size == 3
    # exhaustively: no transitive 4-subset in the 7-vertex tournament
    for subset in combinations(range(7), 4):
        assert any(
            (qr7.digraph.has_arc(a, b) and qr7.digraph.has_arc(b, c) and qr7.digraph.has_arc(c, a))
            or (qr7.digraph.has_arc(b, a) and qr7.digraph.has_arc(c, b) and qr7.digraph.has_arc(a, c))
            for a, b, c in combinations(subset, 3)
        )
    # every 4-tournament has a transitive triple: all 2^6 codes scanned
    assert every_tournament_contains_tt(4, 3)
    # every 8-tournament has a transitive 4-set: full check by scanning all
    # 2^21 7-tournaments and extending the 240 TT4-free ones by one vertex
    free = tt_free_tournament_codes(7, 4)
    subset_checks = (1 << 21) * 70 + free.size * (1 << 7) * 35 * 4
    assert subset_checks < 10**9  # comfortably inside the stated budget
    assert every_tournament_contains_tt(8, 4)
    _report(6, "directed forcing orders verified exhaustively (full 8-vertex check)")


def test_criterion_7_worst_case_seven_vertices():
    start = time.monotonic()
    value, instance = min_max_transitive_over_tournaments(7)
    assert value == 3
    assert max_transitive_set(instance).size == 3
    ceiling = first_moment_bound(0, 7).value
    assert value <= ceiling
    assert 6.6 < ceiling < 6.7  # 2 log2(7) + 1
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"7-vertex scan took {elapsed:.1f}s, ceiling 600s"
    _report(7, "all 2^21 tournaments scanned: worst case 3 <= counting bound 6.6")


def test_criterion_8_local_lemma_grid():
    # the asymptotic statement itself is not finitely checkable; these are
    # the finite-n certificate checks standing in for it
    for exponent in range(6, 19):
        n = round(10 ** (exponent / 2))
        report = lll_threshold(n)
        assert report.params["feasible"] is True
        erdos_moser = math.floor(2 * math.log2(n)) + 1
        assert report.value <= erdos_moser, (n, report.value, erdos_moser)
        k = report.params["smallest_certified_k"]
        check = lll_condition(n, k)
        assert check.ratio < Fraction(1, 6)
        assert check.series_sum < Fraction(12, 10)
    _report(8, "local-lemma ceiling never worse than the doubling ceiling; ratio < 1.2")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    out_dir = str(tmp_path)
    instance = f"{out_dir}/triangles_n9_m9.txt"
    cert = f"{out_dir}/triangles_n9_m9.cert.json"
    _run_cli(["construct", "triangles", "--n", "9", "--m", "9", "--out", out_dir])
    commands = {
        "construct": ["construct", "lex-cliques", "--n", "9", "--c", "2", "--out", out_dir],
        "solve": ["solve", instance],
        "oracle": ["oracle", "--n", "5", "--m", "4", "--family", "both", "--out", out_dir],
        "lowerbound": ["lowerbound", instance, "--trials", "64", "--seed", "7"],
        "bound": ["bound", "lower-formulas", "--n", "10", "--m", "10"],
        "verify": ["verify", cert],
        "atlas": ["atlas", "--n-max", "3"],
    }
    for name, argv in commands.items():
        outputs = set()
        for threads in (1, 2, 8):
            for _ in range(2):
                if name in ("oracle", "atlas"):
                    code, out = _run_cli(argv + ["--threads", str(threads)])
                else:
                    code, out = _run_cli(argv)
                assert code == 0, (name, threads)
                outputs.add(out)
        assert len(outputs) == 1, f"{name} output varies"
    _report(9, "every subcommand byte-identical at 1, 2, and 8 threads")
