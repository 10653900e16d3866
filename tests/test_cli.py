"""Command-line surface: subcommands, exit codes, deterministic output."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from biramsey import bounds, cli, constructions, solvers
from biramsey.cli import cli_main
from biramsey.model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    MissingPair,
    SemicompleteDigraph,
    pair_count,
    serialize_instance,
)


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
    # the budget is set by --budget alone; the environment is not read
    argv = ["oracle", "--n", "5", "--m", "4", "--out", str(tmp_path)]
    reference = run_cli(argv)
    monkeypatch.setenv("RAMSEY_BUDGET", "2")
    assert run_cli(argv) == reference
    assert reference[0] == 0


def test_oracle_budget_flag_refuses_a_cell_over_it(tmp_path):
    code, out, err = run_cli(
        ["oracle", "--n", "5", "--m", "4", "--budget", "2", "--out", str(tmp_path)]
    )
    assert code == 2
    assert out == ""
    assert err == "error: cell (n=5, m=4) needs 3360 enumerated instances; budget is 2\n"
    assert list(tmp_path.iterdir()) == []


def test_atlas_budget_flag_skips_cells_over_it():
    code, out, _ = run_cli(["atlas", "--n-max", "4", "--budget", "100"])
    assert code == 0
    rows = out.splitlines()
    # C(6, m) * 2^m instances: 160, 240 and 192 for m = 3, 4, 5 at n = 4
    assert [row for row in rows if row.endswith("skipped-budget")] == [
        "4,3,,,skipped-budget", "4,4,,,skipped-budget", "4,5,,,skipped-budget",
    ]
    assert "4,6,2,3," in rows


@pytest.mark.parametrize("family", ["coloring", "digraph", "both"])
def test_oracle_refused_cell_creates_no_out_directory(tmp_path, family):
    out_dir = tmp_path / "new"
    argv = ["oracle", "--n", "5", "--m", "4", "--family", family, "--budget", "2", "--out", str(out_dir)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: cell (n=5, m=4) needs 3360 enumerated instances; budget is 2\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["oracle", "--n", "3", "--m", "1"], ["atlas", "--n-max", "2"]])
def test_threads_is_not_an_option(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--threads", "2"])
    assert code == 2
    assert out == "" and "unrecognized arguments: --threads 2" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, m", [(20000, 99990000), (2000, 999500)])
def test_oracle_refuses_a_cell_over_the_pair_cap_at_once(tmp_path, n, m):
    # the instance count of these cells is never computed: the first took
    # over a minute, the second is too long to print as a decimal integer
    code, out, err = run_cli(["oracle", "--n", str(n), "--m", str(m), "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    pairs = n * (n - 1) // 2
    assert err == f"error: cell (n={n}, m={m}) has C({n},2)={pairs} pair slots; cap is C(n,2) <= 15\n"


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
        return BicoloredGraph(n, bytes(choices[d].code for d in draws.tolist()))
    choices = (ArcState.BIORIENTED, ArcState.FORWARD, ArcState.BACKWARD)
    return SemicompleteDigraph(n, bytes(choices[d].code for d in draws.tolist()))


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
    code, out, _ = run_cli(["bound", "moment-identity", "--population", "8",
                            "--successes", "4", "--draws", "4", "--k", "2"])
    assert code == 0
    assert out.splitlines() == [
        "quantity,value", "summed,9/7", "closed_form,9/7", "identity_holds,true",
    ]
    code, out, _ = run_cli(["bound", "lll-threshold", "--n", "1000000"])
    assert "local-lemma-upper,upper,true,39" in out
    code, out, _ = run_cli(["bound", "atlas", "--n-max", "4"])
    assert out.splitlines()[0].startswith("n,m,")


def test_bound_degenerate_density_is_usage_error():
    code, _, err = run_cli(["bound", "first-moment", "--p", "1", "--n", "64"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # exact moment sums over more than 1000 pmf terms, or powers of a
        # base wider than 10 bits; named, so the cases below keep their ids
        pytest.param(
            ["moments", "--population", "1001", "--successes", "500", "--draws", "500"],
            "population above the moment cap 1000", id="moments-population-past-cap"),
        pytest.param(
            ["moments", "--base", "1025/1024"],
            "base numerator or denominator above the moment cap of 10 bits",
            id="moments-base-denominator-past-cap"),
        # unbounded big-integer work: a threshold scan past n = 2^128, and
        # 2^C(k, 2) at k = 100000 (625 MB)
        (["lll-threshold", "--n", str(10**300)], "n above the local-lemma cap 2^128"),
        (["lll-threshold", "--n", str(2**128 + 1)], "n above the local-lemma cap 2^128"),
        (["lll", "--n", str(10**300), "--k", "5"], "n above the local-lemma cap 2^128"),
        (["lll", "--n", str(10**30), "--k", "100000"], "k above the local-lemma cap 257"),
        # the population cap through the identity, the bit cap on a numerator
        pytest.param(
            ["moment-identity", "--population", "1001", "--draws", "1001", "--k", "2"],
            "population above the moment cap 1000", id="moment-identity-population-past-cap"),
        pytest.param(
            ["moments", "--base", "1024"],
            "base numerator or denominator above the moment cap of 10 bits",
            id="moments-base-numerator-past-cap"),
    ],
)
def test_bound_refuses_huge_parameters_at_once(argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(["bound", *argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["blowup", "best-upper"])
def test_bound_blowup_is_exact_beyond_float_range(name):
    # two classes of 5 * 10^399 vertices, each adding floor(2*log2 s) + 1
    value = 2 * (math.floor(2 * math.log2(5 * 10**399)) + 1)
    code, out, _ = run_cli(["bound", name, "--p", "1/2", "--n", str(10**400)])
    assert code == 0
    assert out.splitlines()[1].split(",")[1:4] == ["upper", "true", str(value)]


def test_bound_local_lemma_at_its_caps():
    code, out, _ = run_cli(["bound", "lll-threshold", "--n", str(2**128)])
    assert code == 0
    assert out.splitlines()[1].startswith("local-lemma-upper,upper,true,255,")
    assert bounds.lll_condition(2**128, 257).holds
    code, out, _ = run_cli(["bound", "lll", "--n", str(2**128), "--k", "100"])
    assert code == 0
    assert "holds,false" in out.splitlines()


def test_bound_local_lemma_prints_all_rows_or_none():
    # at n = 10^12 the event probability of k = 171 has a numerator past
    # Python's 4300-digit limit for int-to-str conversion; k = 170 is the
    # last that prints
    code, out, err = run_cli(["bound", "lll", "--n", str(10**12), "--k", "170"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[:2] == ["quantity,value", "holds,true"]
    assert [line.split(",")[0] for line in lines[2:]] == [
        "event_probability", "dependency_bound", "ratio", "ratio_ok",
    ]
    code, out, err = run_cli(["bound", "lll", "--n", str(10**12), "--k", "171"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_bound_local_lemma_names_the_digit_limit():
    # n = 2^128 and k = 118 are inside both caps, but the event probability
    # is past the 4300-digit limit for printing an integer
    code, out, err = run_cli(["bound", "lll", "--n", str(2**128), "--k", "118"])
    assert (code, out) == (2, "")
    assert err == "error: a value has more than 4300 digits, Python's limit for printing an int\n"


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


@pytest.mark.parametrize(
    "spec, stem, lines",
    [
        (
            ["matching", "--n", "6", "--m", "4"],
            "matching_n6_m4",
            [
                "  violated: m-accounting: instance has m=4, claimed 5",
                "  violated: ceiling: solver optimum 4 exceeds claimed 3",
                "  violated: equality: solver optimum 4 != claimed 3",
            ],
        ),
        (
            ["packing", "--n", "9", "--k", "2"],
            "packing_n9_k2",
            [
                "  violated: m-accounting: instance has m=9, claimed 10",
                "  violated: ceiling: solver optimum 6 exceeds claimed 5",
                "  violated: equality: solver optimum 6 != claimed 5",
            ],
        ),
    ],
    ids=["coloring", "digraph"],
)
def test_verify_output_on_a_tampered_certificate_is_pinned(tmp_path, spec, stem, lines):
    run_cli(["construct", *spec, "--out", str(tmp_path)])
    cert = tmp_path / f"{stem}.cert.json"
    payload = json.loads(cert.read_text())
    payload["claimed_m"] += 1
    payload["claimed_bound"] -= 1
    tampered = tmp_path / "tampered.cert.json"
    tampered.write_text(json.dumps(payload))
    construction = spec[0]
    code, out, err = run_cli(["verify", str(cert), str(tampered)])
    assert (code, err) == (1, "")
    assert out == "\n".join([
        f"cert={cert} construction={construction} VERIFIED",
        f"cert={tampered} construction={construction} FAILED",
        *lines,
    ]) + "\n"


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


# sha256 of the n = 6 oracle's outputs: the grid the oracle can cover, and
# instance files of three f / F cells; a change to the enumeration must leave
# every value and every reported attainer as it is
ATLAS_6_SHA256 = (
    "e3c52c678d2dcc5b82d6b264fa14cd6e0dbc79bafab24bd3d740915280e8448b",  # stdout
    "adbecbbccc9b7762757c66842cd4f4d088ef342ab42b21ba151c1166cd0acdfc",  # stderr
)
ORACLE_6_SHA256 = {
    "oracle_n6_m5_coloring.txt": "299450870d77ef2188014dd5f996d14e55341bb020d4200bb2ce929d3f4ba260",
    "oracle_n6_m5_digraph.txt": "864314e32e40eaaf855fee1efebb46e35b6b5bcac080ce302e4321e979aaa977",
    "oracle_n6_m8_coloring.txt": "323f9abf4d74fcab9071a2cbc24ee8b298991276154361011a7065d039065e65",
    "oracle_n6_m8_digraph.txt": "55675740d70eff1fe3dc4ebc4358a37f095b2c29517968c2540711dd0bae253e",
    "oracle_n6_m11_coloring.txt": "54dc5e73536bd6477fbfa6e5a291265f978d4680e0decbbff7f221185adcc350",
    "oracle_n6_m11_digraph.txt": "efe890ef6bf4ec0f41db4451560eb832b8021a8d1b67d5baff840afaf68024cd",
}


def test_atlas_n6_output_is_pinned():
    code, out, err = run_cli(["atlas", "--n-max", "6"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()) == ATLAS_6_SHA256


@pytest.mark.parametrize("m", [5, 8, 11])
def test_oracle_n6_instance_files_are_pinned(tmp_path, m):
    code, _, _ = run_cli(["oracle", "--n", "6", "--m", str(m), "--family", "both", "--out", str(tmp_path)])
    assert code == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == {name: sha for name, sha in ORACLE_6_SHA256.items() if f"_m{m}_" in name}


def test_atlas_skips_cells_beyond_the_pair_cap():
    code, out, _ = run_cli(["atlas", "--n-max", "7", "--m-max", "1"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert "7,0,,,skipped-budget" in rows
    assert "7,1,,,skipped-budget" in rows


@pytest.mark.parametrize(
    "argv,message",
    [
        (["atlas", "--n-max", "-3"], "--n-max must be at least 1, got -3"),
        (["atlas", "--n-max", "0"], "--n-max must be at least 1, got 0"),
        (["atlas", "--n-max", "2", "--m-max", "-1"], "--m-max must be at least 0, got -1"),
        (["bound", "atlas", "--n-max", "0"], "--n-max must be at least 1, got 0"),
        (["bound", "atlas", "--n-max", "3", "--m-max", "-2"], "--m-max must be at least 0, got -2"),
    ],
)
def test_atlas_refuses_a_range_with_no_cell(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_atlas_reports_every_violated_check(monkeypatch):
    # a wrong oracle: 0 on the diagonal m = n (under both lower formulas),
    # elsewhere far above the exact values, increasing in m and f above F
    from biramsey import cli

    def wrong_cell(n, m, family, start, stop):
        return (0 if m == n else (100 if family == "coloring" else 50) + m), None

    monkeypatch.setattr(cli, "oracle_cell_slice", wrong_cell)
    code, out, err = run_cli(["atlas", "--n-max", "3"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert "3,1,101,51,f-exact;F-exact;sandwich;f-monotone;F-monotone;F-upper-moment" in rows
    assert "3,3,0,0,f-exact;F-exact;f-lower;F-lower" in rows
    labels = [label for row in rows for label in row.split(",")[-1].split(";") if label]
    assert set(labels) == {
        "f-exact", "F-exact", "f-lower", "F-lower", "sandwich",
        "f-monotone", "F-monotone", "F-upper-moment",
    }
    assert err == f"# violations={len(labels)}\n"


def test_solve_refuses_a_header_over_the_pair_cap(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("semi 5794\n")
    code, out, err = run_cli(["solve", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: line 1: vertex count is over the cap C(n,2) <= 16777216 ('semi 5794')\n"


def test_construct_refuses_a_huge_n_before_building(tmp_path):
    # C(n, 2) above 2^24 exits 2 before any builder allocates per pair
    import tracemalloc

    out_dir = tmp_path / "out"
    tracemalloc.start()
    try:
        for argv in (
            ["matching", "--n", "10000000", "--m", "0"],
            ["triangles", "--n", "10000000", "--m", "3"],
            ["blowup", "--n", "5794", "--t", "1"],
        ):
            code, out, err = run_cli(["construct", *argv, "--out", str(out_dir)])
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "cap is C(n,2) <= 16777216" in err, argv
            assert "Traceback" not in err
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not out_dir.exists()


def test_construct_refuses_an_n_too_long_to_print(tmp_path):
    # C(n, 2) of a 4000-digit n has about 8000 digits, over Python's limit
    # for int-to-str conversion, so the refusal names the cap, not the count
    out_dir = tmp_path / "out"
    argv = ["construct", "matching", "--n", "9" * 4000, "--m", "0", "--out", str(out_dir)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: construct --n is too large; cap is C(n,2) <= 16777216\n"
    assert not out_dir.exists()


def test_blowup_refuses_an_oversized_class_before_drawing(tmp_path, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a class tournament was drawn")

    monkeypatch.setattr(constructions, "random_tournament", no_draw)
    out_dir = tmp_path / "out"
    for n, t, size in ((3000, 1, 3000), (82, 2, 41)):
        argv = ["construct", "blowup", "--n", str(n), "--t", str(t), "--out", str(out_dir)]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == f"error: class size {size} exceeds transitive solver cap 40\n"
    assert not out_dir.exists()


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
    # a zero denominator is a usage error, never a ZeroDivisionError
    for argv in (
        ["construct", "mixed-coloring", "--n", "16", "--k", "2", "--gamma", "1/0"],
        ["construct", "mixed-digraph", "--n", "16", "--k", "2", "--gamma", "1/0"],
        ["construct", "mixed-coloring", "--n", "16", "--k", "2", "--gamma", "half"],
        ["bound", "first-moment", "--p", "1/0"],
        ["bound", "blowup", "--p", "1/0"],
        ["bound", "best-upper", "--p", "1/0"],
        ["bound", "moments", "--base", "1/0"],
    ):
        code, _, err = run_cli(argv)
        assert code == 2 and "not a fraction" in err, argv


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


def run_module(argv, **env_vars):
    """``python -m biramsey.cli`` in a fresh interpreter on this package."""
    env = {**os.environ, **env_vars}
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "biramsey.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )


def test_module_entry_point_exits_with_cli_main_code(tmp_path):
    # main() and the __main__ guard run only as a module
    argv = ["bound", "classic", "--n", "64"]
    result = run_module(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(argv)[1]
    result = run_module(["solve", str(tmp_path / "missing.txt")])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_oracle_thread_count_does_not_change_output(tmp_path, threads):
    # the CLI takes no thread count; the numeric libraries read theirs from
    # the environment at import, so each count runs in a fresh interpreter
    result = run_module(
        ["oracle", "--n", "5", "--m", "4", "--family", "both", "--out", str(tmp_path)],
        **{var: str(threads) for var in _THREAD_VARS},
    )
    assert result.returncode == 0, result.stderr
    reference = (
        f"f(5,4)=3 instance={tmp_path}/oracle_n5_m4_coloring.txt\n"
        f"F(5,4)=4 instance={tmp_path}/oracle_n5_m4_digraph.txt\n"
    )
    assert result.stdout == reference



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


@pytest.mark.parametrize(
    "equality,expected",
    [(True, 1), (False, 0), ("missing", 0), ("false", 2), (1, 2), (0, 2), (None, 2)],
)
def test_verify_equality_must_be_a_json_boolean(tmp_path, equality, expected):
    # the ceiling is raised by one, so only a true equality claim fails;
    # "false", 1, 0 and null are malformed, not read by truthiness
    run_cli(["construct", "matching", "--n", "8", "--m", "4", "--out", str(tmp_path)])
    cert = tmp_path / "matching_n8_m4.cert.json"
    payload = json.loads(cert.read_text())
    payload["claimed_bound"] += 1
    del payload["equality"]
    if equality != "missing":
        payload["equality"] = equality
    cert.write_text(json.dumps(payload))
    code, out, err = run_cli(["verify", str(cert)])
    assert code == expected
    if expected == 2:
        assert "equality is not of type bool" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [["bound", "classic", "--n", "8"], ["construct", "matching", "--n", "4", "--m", "2"],
     ["solve", "instance.txt"]],
)
def test_bad_budget_env_ignored_where_no_budget_is_used(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("RAMSEY_BUDGET", "abc")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "instance.txt").write_text(serialize_instance(BicoloredGraph(2, b"\2")))
    code, _, err = run_cli(argv)
    assert code == 0 and err == ""


def test_construct_search_flag_has_no_effect(tmp_path):
    outputs = []
    for flags in ([], ["--search"]):
        out_dir = tmp_path / ("with" if flags else "without")
        code, out, _ = run_cli(
            ["construct", "packing", "--n", "39", "--k", "4", *flags, "--out", str(out_dir)]
        )
        assert code == 0
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        outputs.append((out.replace(str(out_dir), "OUT"), files))
    assert outputs[0] == outputs[1]


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


# sha256 of the instance and certificate files that `construct` writes for
# each certificate the benchmark's exact workload builds; a builder refactor
# must leave every byte of them unchanged
CONSTRUCT_SHA256 = {
    "matching --n 64 --m 64": {
        "matching_n64_m64.cert.json":
        "4c4269dba31700641048ba22aca3f4d8cccf24c7571d6a7afc12fb8c777e3b8e",
        "matching_n64_m64.txt":
        "93231afccd5209f6361e6156f99d46e6aa3c02152915251bbe323ac8a9289404",
    },
    "matching --n 40 --m 31": {
        "matching_n40_m31.cert.json":
        "f0b6d2a3b98aa28d64a4548068d1994ba96180c6b74d9da048cc78febf2f2146",
        "matching_n40_m31.txt":
        "223ff07b4e8fbe4cadbadb060f23ccf3a076cf7140c885f26fabaee7e2a270a9",
    },
    "triangles --n 40 --m 39": {
        "triangles_n40_m39.cert.json":
        "b3d96fd0f51a0feaedc25e81dcfb924d6670043a136b7c0716f974dd87a28777",
        "triangles_n40_m39.txt":
        "5bc03b3eab898a3cadbe210f43a8cf97a0b8466d0cc794e93d967d60c6fe9002",
    },
    "blowup --n 40 --t 4": {
        "blowup_n40_t4.cert.json":
        "db62fb39892085bcdef5c0409b041c25ba4c8d909287f0f4e0a69240750a25b7",
        "blowup_n40_t4.txt":
        "54b1eb03c6fdf0eb379c20844eabb0b9ad9b9d258dcca098fb142fbbe0014580",
    },
    "blowup --n 40 --t 2": {
        "blowup_n40_t2.cert.json":
        "d0a0f6d8e2bd05beafd6836832fff2ff911325414c8e1c3260b736faf727afc1",
        "blowup_n40_t2.txt":
        "1f2d8479575677c2aca4366f339ca681567d89b03b6880e893ad7e32623e08c4",
    },
    "packing --n 39 --k 4 --search": {
        "packing_n39_k4.cert.json":
        "56452d3e5dd7f5c0f3e2d3b5ec13c90f0c7ba959df587acaec1711b980fb71d3",
        "packing_n39_k4.txt":
        "1cbaa96bd4559ee4d39bc4a20f68a83b8aebee4b2cd50cd1d6f9848776bd881d",
    },
    "packing --n 28 --k 3": {
        "packing_n28_k3.cert.json":
        "539c572d0fd39473f5e4e69b082f316cddb7bb2966f0d3b55f9b493ad727a557",
        "packing_n28_k3.txt":
        "3a23f18afd428e630f32b74590c7a9b636ef933b4e00e0f3b88162201a258890",
    },
    "lex-cliques --n 64 --c 7": {
        "lex_cliques_n64_c7.cert.json":
        "d0eaf72e974acb66c779aa1f886193b0c2efb44fd9fdfacf4f09f1e6801de239",
        "lex_cliques_n64_c7.txt":
        "8dcfc06af0381a83936a633b43e3f2a6088b47392da5b9565c8039aa1ecf899d",
    },
    "lex-cliques --n 63 --c 2": {
        "lex_cliques_n63_c2.cert.json":
        "71f0769a860717fa2434e60ce1f1b5b410fcbd9627a4c5fc378ae273b92963d4",
        "lex_cliques_n63_c2.txt":
        "9b52f699c7b4af8084b36a4b6210e5cbe13005f213ccd04880828606120ecf46",
    },
    "mixed-coloring --n 64 --k 3 --gamma 1/2": {
        "mixed_coloring_n64_k3_gamma1-2.cert.json":
        "d1a18073cde8af2d75e05bfa0baa85355e5e5f55c0254fea138c56a78d530a58",
        "mixed_coloring_n64_k3_gamma1-2.txt":
        "c3138569ebc3caf19ff0ca53e04ab23bdc47bf62367c2a419622b1d7d78e8a69",
    },
    "mixed-digraph --n 40 --k 2 --gamma 1/2": {
        "mixed_digraph_n40_k2_gamma1-2.cert.json":
        "a269646cc782329962ed5fe6dc1c270ccf784c2e9749877fde2a99b416c2b9a8",
        "mixed_digraph_n40_k2_gamma1-2.txt":
        "7938ee84a301829d50d0986e08358138e497f64f76605d145dbb0d17b03e0e2a",
    },
    "mixed-digraph --n 40 --k 3 --gamma 1/2 --search": {
        "mixed_digraph_n40_k3_gamma1-2.cert.json":
        "0dd7f295e333cfacff1a496bbc6673ea743ecf2be2425eb0da30c47bf26bba84",
        "mixed_digraph_n40_k3_gamma1-2.txt":
        "70d36e1ce50a216d0602ec68b6ccbf9188b4f4d7b8e8703b38ed59ea147507ae",
    },
}


@pytest.mark.parametrize("spec", list(CONSTRUCT_SHA256))
def test_construct_outputs_are_pinned(tmp_path, spec):
    code, _, _ = run_cli(["construct", *spec.split(), "--out", str(tmp_path)])
    assert code == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == CONSTRUCT_SHA256[spec]


@pytest.mark.parametrize(
    "argv, stray",
    [
        (["construct", "packing", "--n", "9", "--k", "2", "--m", "99", "--t", "5"], "--m, --t"),
        (["construct", "matching", "--n", "6", "--m", "2", "--seed", "5"], "--seed"),
    ],
)
def test_construct_rejects_options_the_builder_does_not_take(tmp_path, argv, stray):
    code, out, err = run_cli([*argv, "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and stray in err
    assert list(tmp_path.iterdir()) == []


def test_the_parser_is_built_once_per_process(monkeypatch):
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(["bound", "lll-threshold", "--n", "100"])[0] == 0
    first = len(built)
    assert run_cli(["bound", "classic", "--n", "8"])[0] == 0
    assert first > 0 and len(built) == first


_INPUT_ERRORS = [
    solvers.BudgetExceeded("cell needs 10 instances; budget is 2", estimate=10),
    solvers.SizeLimitExceeded("n=99 exceeds transitive solver cap 40"),
    constructions.InfeasibleParams("need 0 <= m <= n"),
    constructions.ClassSizeMismatch("inner sizes do not match classes"),
    constructions.UnsupportedK("no extremal tournament bundled for k=9"),
    constructions.DivisibilityViolation("13 must divide n"),
    bounds.ParameterOutOfRange("threshold evaluated only for n >= 55"),
    bounds.DegenerateDensity("density p=0 outside (0, 1)"),
    MissingPair("pairs never listed: [(0, 1)]"),
    FileNotFoundError(2, "No such file or directory", "missing.txt"),
]


@pytest.mark.parametrize("error", _INPUT_ERRORS, ids=lambda error: type(error).__name__)
def test_every_library_input_error_exits_2(tmp_path, monkeypatch, error):
    def failing(n, m):
        raise error

    monkeypatch.setitem(constructions.BUILDERS, "matching", failing)
    code, out, err = run_cli(["construct", "matching", "--n", "4", "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


def test_an_internal_packing_collision_is_not_an_input_error(tmp_path, monkeypatch):
    def failing(n, m):
        raise constructions.PackingCollision("pair (0, 1) would receive both unicolors")

    monkeypatch.setitem(constructions.BUILDERS, "matching", failing)
    with pytest.raises(constructions.PackingCollision):
        run_cli(["construct", "matching", "--n", "4", "--out", str(tmp_path)])


def _readme_commands():
    """Argument lists of the README's "Command line" examples, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("biramsey ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    subcommands = {"construct", "solve", "oracle", "lowerbound", "bound", "verify", "atlas"}
    assert {argv[0] for argv in commands} == subcommands
    for argv in commands:
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)
