"""Tests of the benchmark itself: corrupted answers must count as failures,
tracing must not change answers, and BENCHMARK.json must match the output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import biramsey.exhaustive  # noqa: E402
from biramsey.model import EdgeColor, parse_instance  # noqa: E402
from biramsey.solvers import (  # noqa: E402
    max_mono_clique_by_enumeration,
    max_transitive_set_by_enumeration,
    oracle_budget_estimate,
)


def small_file(tmp_path: Path, family: str, n: int, m: int, seed: int = 5):
    g = workloads.generate(f"{family}_{n}_{m}", family, n, m, np.random.default_rng(seed))
    path = tmp_path / f"{g.name}.txt"
    path.write_text(g.text())
    return g, path, parse_instance(g.text())


def corrupt(result: workloads.CliResult, key: str, value: str) -> workloads.CliResult:
    lines = [f"{key}={value}" if ln.startswith(key + "=") else ln for ln in result.out.splitlines()]
    return replace(result, out="\n".join(lines) + "\n")


@pytest.mark.parametrize("family", ["coloring", "digraph"])
def test_solve_check_accepts_the_right_answer_and_rejects_an_off_by_one_optimum(tmp_path, family):
    _, path, instance = small_file(tmp_path, family, 12, 30)
    exact = max_mono_clique_by_enumeration if family == "coloring" else max_transitive_set_by_enumeration
    optimum = exact(instance)
    result = workloads.cli_call(["solve", str(path)])()
    assert workloads.check_solve(result, instance, optimum) == []
    assert workloads.check_solve(corrupt(result, "optimum", str(optimum + 1)), instance, optimum)
    assert workloads.check_solve(result, instance, optimum - 1)


def test_solve_check_rejects_a_witness_with_one_wrong_vertex(tmp_path):
    _, path, instance = small_file(tmp_path, "coloring", 12, 30)
    optimum = max_mono_clique_by_enumeration(instance)
    result = workloads.cli_call(["solve", str(path)])()
    found = workloads.fields(result.out)
    vertices, color = workloads.ints(found["witness"]), EdgeColor(found["color"])
    # swap the first vertex for one that breaks the clique
    wrong = next(
        sorted((v,) + vertices[1:])
        for v in range(instance.n)
        if v not in vertices and not all(instance.has_color(v, u, color) for u in vertices[1:])
    )
    assert workloads.check_solve(corrupt(result, "witness", ",".join(map(str, wrong))), instance, optimum)
    duplicate = ",".join(map(str, (vertices[1],) + vertices[1:]))
    assert workloads.check_solve(corrupt(result, "witness", duplicate), instance, optimum)


def test_atlas_check_rejects_a_row_with_a_violation():
    refs = {n: rows for n, rows in workloads.load_references()["atlas"].items() if int(n) <= 3}
    result = workloads.cli_call(["atlas", "--n-max", "3", "--budget", workloads.BUDGET])()
    assert workloads.check_atlas(result, refs) == []
    bad = result.out.replace("3,3,2,2,\n", "3,3,2,2,f-exact\n")
    assert bad != result.out
    assert workloads.check_atlas(replace(result, out=bad), refs)
    wrong = result.out.replace("3,3,2,2,\n", "3,3,1,2,\n")
    assert workloads.check_atlas(replace(result, out=wrong), refs)
    skipped = result.out.replace("3,3,2,2,\n", "3,3,,,skipped-budget\n")
    assert workloads.check_atlas(replace(result, out=skipped), refs)


@pytest.mark.parametrize("family", ["coloring", "digraph"])
def test_lowerbound_reference_matches_the_cli_and_catches_a_changed_line(tmp_path, family):
    g, path, instance = small_file(tmp_path, family, 24, 60)
    reference = workloads.lowerbound_reference(g, 50, 11)
    result = workloads.cli_call(["lowerbound", str(path), "--trials", "50", "--seed", "11"])()
    assert workloads.check_lowerbound(result, instance, reference) == []
    mean = workloads.fields(result.out)["mean"]
    assert workloads.check_lowerbound(corrupt(result, "mean", mean + "1"), instance, reference)


def test_oracle_check_rejects_a_wrong_value(tmp_path):
    argv = ["oracle", "--n", "4", "--m", "3", "--family", "digraph", "--out", str(tmp_path)]
    result = workloads.cli_call(argv)()
    assert workloads.check_oracle(result, 4, 3, "digraph", 3) == []
    assert workloads.check_oracle(result, 4, 3, "digraph", 4)


def small_ops(tmp_path: Path) -> list[workloads.Op]:
    g, path, instance = small_file(tmp_path, "coloring", 16, 40)
    _, dpath, dinstance = small_file(tmp_path, "digraph", 12, 40)
    cert_dir = tmp_path / "certs"
    return [
        workloads.Op("atlas", None, workloads.cli_call(["atlas", "--n-max", "3"]),
                     workloads.exit_problems, workloads.cli_answer),
        workloads.Op("oracle_digraph", "digraph",
                     workloads.cli_call(["oracle", "--n", "4", "--m", "3", "--family", "digraph",
                                         "--out", str(tmp_path)]),
                     lambda r: workloads.check_oracle(r, 4, 3, "digraph", 3), workloads.cli_answer),
        workloads.Op("solve_coloring", "coloring", workloads.cli_call(["solve", str(path)]),
                     lambda r: workloads.check_solve(r, instance, max_mono_clique_by_enumeration(instance)),
                     workloads.solve_answer),
        workloads.Op("solve_digraph", "digraph", workloads.cli_call(["solve", str(dpath)]),
                     lambda r: workloads.check_solve(r, dinstance, max_transitive_set_by_enumeration(dinstance)),
                     workloads.solve_answer),
        workloads.Op("lowerbound", "coloring",
                     workloads.cli_call(["lowerbound", str(path), "--trials", "20", "--seed", "3"]),
                     lambda r, ref=workloads.lowerbound_reference(g, 20, 3): workloads.check_lowerbound(r, instance, ref),
                     workloads.cli_answer),
        workloads.Op("certify", None,
                     workloads.cli_call(["construct", "triangles", "--n", "9", "--m", "9", "--out", str(cert_dir)]),
                     workloads.exit_problems, workloads.cli_answer),
        workloads.Op("certify", None, workloads.verify_call(cert_dir), workloads.check_verify,
                     workloads.cli_answer),
        workloads.Op("scan", None, lambda: biramsey.exhaustive.every_tournament_contains_tt(5, 3),
                     lambda r: [] if r is True else ["scan"]),
    ]


def test_traced_and_untraced_rounds_give_identical_answers(tmp_path):
    ops = small_ops(tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with run.SpeedProbe() as probe:
            rounds = [run.run_round(ops, t, probe) for t in (None, tracer, None, tracer)]
    finally:
        tracer.uninstall()
    run.mark_changed_answers(rounds)
    assert [r.problems for r in rounds] == [[[]] * len(ops)] * 4
    assert rounds[0].answers == rounds[1].answers
    assert rounds[1].counts == rounds[3].counts
    names = {span.name for span in rounds[1].spans}
    assert {"cli", "model.parse", "solvers.clique", "solvers.acyclic", "solvers.oracle_F",
            "heuristics", "heuristics.expectation", "constructions.build",
            "constructions.verify", "bounds", "exhaustive"} <= names
    assert rounds[0].spans == [] and rounds[2].spans == []
    requests = {span.request for span in rounds[1].spans}
    assert len(requests) == len(ops)
    layers = tracing.layer_metrics(rounds[1].spans, rounds[1].counts, sum(rounds[1].raw))
    atlas_cells = [(n, m) for n in (1, 2, 3) for m in range(n * (n - 1) // 2 + 1)]
    expected = sum(oracle_budget_estimate(n, m) for n, m in atlas_cells + [(4, 3)])
    assert layers["solvers.oracle_F.instances"] == expected
    assert layers["heuristics.trials"] == 20
    assert 0.5 < sum(layers[f"share.{layer}"] for layer in tracing.LAYERS) <= 1.0


def test_a_changed_answer_between_rounds_counts_as_failed(tmp_path):
    answers = iter(["a", "b"])
    op = workloads.Op("scan", None, lambda: next(answers), lambda r: [])
    with run.SpeedProbe() as probe:
        rounds = [run.run_round([op], None, probe) for _ in range(2)]
    run.mark_changed_answers(rounds)
    assert rounds[0].problems == [[]]
    assert rounds[1].problems == [["answer differs from the first round"]]


def test_an_operation_that_raises_counts_as_failed():
    op = workloads.Op("scan", None, lambda: 1 // 0, lambda r: [])
    with run.SpeedProbe() as probe:
        result = run.run_round([op], None, probe)
    assert result.problems[0] and "ZeroDivisionError" in result.problems[0][0]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"]), metric
