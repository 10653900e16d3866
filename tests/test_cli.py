"""Command-line surface: subcommands, exit codes, deterministic output."""

import io
import json
import contextlib

import numpy as np
import pytest

from biramsey.cli import cli_main
from biramsey.model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    SemicompleteDigraph,
    pair_count,
    serialize_instance,
)


def run_cli(argv):
    buffer = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, buffer.getvalue(), err.getvalue()


def test_construct_writes_instance_and_certificate(tmp_path):
    code, out, _ = run_cli(
        ["construct", "triangles", "--n", "9", "--m", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "claimed_m=9 claimed_bound=6 equality=true" in out
    instance = tmp_path / "triangles_n9_m9.txt"
    cert = tmp_path / "triangles_n9_m9.cert.json"
    assert instance.exists() and cert.exists()
    payload = json.loads(cert.read_text())
    assert payload["claimed_bound"] == 6
    assert payload["instance_file"] == instance.name


def test_construct_gamma_params(tmp_path):
    code, out, _ = run_cli(
        ["construct", "mixed-coloring", "--n", "12", "--k", "2",
         "--gamma", "1/2", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "mixed_coloring_n12_k2_gamma1-2.txt").exists()


def test_solve_reports_optimum(tmp_path):
    run_cli(["construct", "lex-cliques", "--n", "9", "--c", "2", "--out", str(tmp_path)])
    code, out, _ = run_cli(["solve", str(tmp_path / "lex_cliques_n9_c2.txt")])
    assert code == 0
    assert "optimum=3" in out
    assert "family=bichrome" in out


def test_oracle_prints_value_and_instance_path(tmp_path):
    code, out, _ = run_cli(
        ["oracle", "--n", "5", "--m", "4", "--family", "digraph", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "F(5,4)=4" in out
    path = tmp_path / "oracle_n5_m4_digraph.txt"
    assert path.exists()
    from biramsey.model import parse_instance
    from biramsey.solvers import max_transitive_set

    assert max_transitive_set(parse_instance(path.read_text())).size == 4


def test_oracle_csv_row(tmp_path):
    code, out, _ = run_cli(
        ["oracle", "--n", "4", "--m", "2", "--family", "both",
         "--out", str(tmp_path), "--csv"]
    )
    assert code == 0
    assert "n,m,f,F,instance_file" in out
    assert any(line.startswith("4,2,3,4,") for line in out.splitlines())


def test_oracle_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMSEY_BUDGET", "2")
    code, _, err = run_cli(
        ["oracle", "--n", "5", "--m", "4", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "budget" in err


def test_lowerbound_reports_stats(tmp_path):
    run_cli(["construct", "triangles", "--n", "9", "--m", "9", "--out", str(tmp_path)])
    code, out, _ = run_cli(
        ["lowerbound", str(tmp_path / "triangles_n9_m9.txt"), "--trials", "50"]
    )
    assert code == 0
    assert "best_size=6" in out
    assert "guarantee=6" in out


def test_lowerbound_rejects_2_to_the_32_trials(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("semi 3\n0 1 >\n1 2 >\n0 2 <>\n")
    code, out, err = run_cli(["lowerbound", str(path), "--trials", str(2**32)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "trials" in err


def _half_unicolored(family, seed, n=64):
    """Seeded instance with C(n, 2) / 2 unicolored resp. one-way pairs."""
    rng = np.random.default_rng(seed)
    total = pair_count(n)
    picked = rng.choice(total, size=total // 2, replace=False)
    draws = np.zeros(total, dtype=np.int64)
    draws[picked] = rng.integers(1, 3, size=total // 2)
    if family == "bichrome":
        choices = (EdgeColor.RED_BLUE, EdgeColor.RED, EdgeColor.BLUE)
        return BicoloredGraph(n, tuple(choices[d] for d in draws.tolist()))
    choices = (ArcState.BIORIENTED, ArcState.FORWARD, ArcState.BACKWARD)
    return SemicompleteDigraph(n, tuple(choices[d] for d in draws.tolist()))


@pytest.mark.parametrize(
    "family,seed,expected",
    [
        ("bichrome", 11, [
            "best_size=7",
            "witness=0,7,10,39,48,54,60",
            "color=B",
            "mean=1247/300",
            "guarantee=1973943989/486748080",
        ]),
        ("semi", 12, [
            "best_size=7",
            "witness=3,5,15,23,41,52,60",
            "order=41,52,3,23,60,15,5",
            "mean=1201/300",
            "guarantee=231470099084363/58075341924600",
        ]),
    ],
)
def test_lowerbound_golden_output(tmp_path, family, seed, expected):
    # pinned from the per-trial selection loop; any scoring engine must
    # reproduce it byte for byte
    path = tmp_path / f"{family}.txt"
    path.write_text(serialize_instance(_half_unicolored(family, seed)))
    code, out, _ = run_cli(["lowerbound", str(path), "--trials", "300", "--seed", "7"])
    assert code == 0
    assert out.splitlines() == [
        f"file={path} family={family} n=64 trials=300 seed=7", *expected
    ]


def test_bound_tables():
    code, out, _ = run_cli(["bound", "classic", "--n", "64"])
    assert code == 0
    assert "erdos-moser,upper,true,13" in out
    code, out, _ = run_cli(["bound", "moments", "--population", "4",
                            "--successes", "2", "--draws", "2", "--base", "2"])
    assert code == 0
    assert "hypergeometric_moment,13/6" in out
    assert "inequality_holds,true" in out
    code, out, _ = run_cli(["bound", "lll-threshold", "--n", "1000000"])
    assert "local-lemma-upper,upper,true,39" in out
    code, out, _ = run_cli(["bound", "atlas", "--n-max", "4"])
    assert out.splitlines()[0].startswith("n,m,")


def test_bound_degenerate_density_is_usage_error():
    code, _, err = run_cli(["bound", "first-moment", "--p", "1", "--n", "64"])
    assert code == 2
    assert "error:" in err


def test_verify_accepts_valid_and_rejects_tampered(tmp_path):
    run_cli(["construct", "packing", "--n", "9", "--k", "2", "--out", str(tmp_path)])
    cert = tmp_path / "packing_n9_k2.cert.json"
    code, out, _ = run_cli(["verify", str(cert)])
    assert code == 0
    assert "VERIFIED" in out

    payload = json.loads(cert.read_text())
    payload["claimed_bound"] = 5
    tampered = tmp_path / "tampered.cert.json"
    tampered.write_text(json.dumps(payload))
    code, out, _ = run_cli(["verify", str(tampered)])
    assert code == 1
    assert "FAILED" in out
    assert "ceiling" in out  # the violated invariant is named


def test_atlas_small_grid_has_no_violations():
    code, out, _ = run_cli(["atlas", "--n-max", "4"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(row.split(",")[-1] == "" for row in rows)


def test_atlas_full_oracle_run_n5():
    code, out, _ = run_cli(["atlas", "--n-max", "5"])
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert len(rows) == 1 + 2 + 4 + 7 + 11  # cells per n: m = 0..C(n,2)
    assert all(row[-1] == "" for row in rows)


def test_atlas_skips_cells_beyond_the_pair_cap():
    code, out, _ = run_cli(["atlas", "--n-max", "7", "--m-max", "1"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert "7,0,,,skipped-budget" in rows
    assert "7,1,,,skipped-budget" in rows


def test_argument_errors_exit_2(tmp_path):
    code, _, _ = run_cli(["oracle", "--n", "5"])  # missing --m
    assert code == 2
    code, _, err = run_cli(["oracle", "--n", "4", "--m", "7", "--out", str(tmp_path)])
    assert code == 2 and "outside 0..C(4,2)" in err
    code, _, err = run_cli(
        ["construct", "packing", "--n", "10", "--k", "2", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error:" in err


def test_solve_rejects_missing_and_malformed_files(tmp_path):
    code, _, err = run_cli(["solve", str(tmp_path / "missing.txt")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("semi 3\n0 1 >\n")
    code, _, err = run_cli(["solve", str(bad)])
    assert code == 2 and "never listed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "matching", "--n", "6", "--m", "4"],
        ["construct", "triangles", "--n", "9", "--m", "9"],
        ["construct", "blowup", "--n", "8", "--t", "2"],
        ["construct", "packing", "--n", "9", "--k", "2"],
        ["construct", "lex-cliques", "--n", "9", "--c", "2"],
        ["construct", "mixed-coloring", "--n", "12", "--k", "2", "--gamma", "1/2"],
        ["construct", "mixed-digraph", "--n", "16", "--k", "2", "--gamma", "1/2"],
    ],
)
def test_every_builder_round_trips_through_verify(tmp_path, argv):
    code, out, _ = run_cli(argv + ["--out", str(tmp_path)])
    assert code == 0
    cert_line = next(line for line in out.splitlines() if line.startswith("certificate="))
    cert_path = cert_line.split("=", 1)[1]
    code, out, _ = run_cli(["verify", cert_path])
    assert code == 0
    assert "VERIFIED" in out


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_oracle_thread_count_does_not_change_output(tmp_path, threads):
    code, out, _ = run_cli(
        ["oracle", "--n", "5", "--m", "4", "--family", "both",
         "--out", str(tmp_path), "--threads", str(threads)]
    )
    assert code == 0
    reference = (
        f"f(5,4)=3 instance={tmp_path}/oracle_n5_m4_coloring.txt\n"
        f"F(5,4)=4 instance={tmp_path}/oracle_n5_m4_digraph.txt\n"
    )
    assert out == reference



@pytest.mark.parametrize(
    "payload,message",
    [
        (lambda d: {"claimed_m": 1}, "lacks instance_file"),
        (lambda d: [1, 2], "not a JSON object"),
        (lambda d: {"instance_file": "packing_n9_k2.txt", "claimed_m": "6", "claimed_bound": 5},
         "claimed_m is not of type int"),
        (lambda d: {"instance_file": "../packing_n9_k2.txt", "claimed_m": 6, "claimed_bound": 5},
         "lies outside its directory"),
        (lambda d: {"instance_file": str(d / "packing_n9_k2.txt"), "claimed_m": 6,
                    "claimed_bound": 5},
         "lies outside its directory"),
    ],
)
def test_verify_malformed_certificate_is_input_error(tmp_path, payload, message):
    # exit codes: 0 verified, 1 a claim failed, 2 the input itself is bad;
    # the instance exists both beside the certificate and one level up
    run_cli(["construct", "packing", "--n", "9", "--k", "2", "--out", str(tmp_path)])
    inner = tmp_path / "inner"
    inner.mkdir()
    (inner / "packing_n9_k2.txt").write_text((tmp_path / "packing_n9_k2.txt").read_text())
    cert = inner / "bad.cert.json"
    cert.write_text(json.dumps(payload(tmp_path)))
    code, _, err = run_cli(["verify", str(cert)])
    assert code == 2
    assert err.startswith("error:") and message in err


def _solve_lines(tmp_path, instance):
    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(instance))
    code, out, _ = run_cli(["solve", str(path)])
    assert code == 0
    return [
        line
        for line in out.splitlines()
        if line.startswith(("optimum=", "witness=", "color=", "order="))
    ]


def test_solve_golden_transitive_witnesses(tmp_path, sparse_semicomplete_28):
    # optimum, lex-min witness and topological order, pinned from the
    # dictionary-BFS solver that the bitmask cycle search replaced
    from biramsey.model import random_tournament

    assert _solve_lines(tmp_path, random_tournament(24, 1)) == [
        "optimum=9",
        "witness=0,3,4,6,8,11,14,21,23",
        "order=6,0,4,11,3,23,8,14,21",
    ]
    assert _solve_lines(tmp_path, sparse_semicomplete_28) == [
        "optimum=19",
        "witness=0,1,2,4,8,9,10,12,13,14,16,17,18,21,22,24,25,26,27",
        "order=8,17,25,9,1,27,24,13,2,16,0,18,12,21,14,22,4,10,26",
    ]


def test_solve_golden_clique_witnesses(tmp_path, sparse_colorings_64):
    # optimum, lex-min witness and color, pinned from the solver that
    # maximised every extraction step from an incumbent of 0; blue wins the
    # first instance, red the second
    assert _solve_lines(tmp_path, sparse_colorings_64[256]) == [
        "optimum=31",
        "witness=0,1,3,4,5,6,7,8,10,12,14,16,20,22,26,27,28,31,34,35,38,39,44,45,46,47,48,54,55,56,62",
        "color=B",
    ]
    assert _solve_lines(tmp_path, sparse_colorings_64[1024]) == [
        "optimum=15",
        "witness=4,5,10,19,21,25,30,33,35,46,49,50,55,56,60",
        "color=R",
    ]
