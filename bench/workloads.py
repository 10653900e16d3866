"""Benchmark workloads: seeded inputs, the operations they run, answer checks.

Every operation is one ``biramsey.cli.cli_main`` call made in-process (or,
for the tournament scans, which the CLI does not expose, one call into
``biramsey.exhaustive``).  Each has a check against a stored reference or an
independent route; a check returns the list of problems it found, and any
problem makes the operation count as failed.

* ``table`` - worst-case table: ``atlas --n-max 5``, ``oracle --n 6 --m 4``
  per family plus ``--m 5`` for digraphs, and the m = C(n, 2) column by the
  bit-parallel scans.  Nearly all of its time is the oracle's enumeration of
  millions of tiny instances.  Seed-independent.
* ``exact`` - exact solves of colorings at n = 64 and digraphs at n = 24..32,
  then certificate round trips (``construct`` then ``verify``).  Branch and
  bound on a few large instances; never touches the oracle.  The instance
  pool is fixed (drawn from POOL_SEED, optima stored in references.json),
  because solver cost varies 2-10x between random instances of one size and
  a seeded draw would make the run-to-run spread wider than any useful bound.
* ``lowerbound`` - best-of-trials witnesses on files drawn from the workload
  seed, both families at n in {128, 256}, m in {n, 4n, C(n,2)/2}.  Mostly
  heuristics plus parsing of 8k-32k line files; never calls a solver.  The
  reference lines come from an independent numpy re-implementation of the
  trial procedure, so any seed can be checked.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import biramsey.cli
import biramsey.exhaustive
from biramsey.model import (
    BicoloredGraph,
    EdgeColor,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    parse_instance,
)
from biramsey.solvers import (
    max_mono_clique,
    max_mono_clique_by_enumeration,
    max_transitive_set,
    max_transitive_set_by_enumeration,
    verify_witness,
)

WORKLOADS = ("table", "exact", "lowerbound")
BUDGET = str(10**8)  # passed explicitly so RAMSEY_BUDGET cannot skip cells
POOL_SEED = 0xB1E7  # the fixed exact-workload instance pool
LOWERBOUND_TRIALS = 1000
REFERENCES = Path(__file__).with_name("references.json")

# state codes per pair, pairs in lexicographic order
COLORING_TOKENS = ("RB", "R", "B")
DIGRAPH_TOKENS = ("<>", ">", "<")


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Op:
    """One timed operation; ``family`` feeds coloring_s / digraph_s."""

    stage: str
    family: "str | None"
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    answer: Callable[[object], str] = repr  # what must repeat across rounds


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass(frozen=True)
class Generated:
    name: str
    family: str  # "coloring" or "digraph"
    n: int
    states: np.ndarray  # one code per pair, lexicographic pair order

    def text(self) -> str:
        head = "bichrome" if self.family == "coloring" else "semi"
        tokens = COLORING_TOKENS if self.family == "coloring" else DIGRAPH_TOKENS
        us, vs = np.triu_indices(self.n, 1)
        lines = [f"{head} {self.n}"]
        lines += [f"{u} {v} {tokens[s]}" for u, v, s in zip(us.tolist(), vs.tolist(), self.states.tolist())]
        return "\n".join(lines) + "\n"

    def adjacency(self, codes: tuple[int, ...]) -> np.ndarray:
        """Symmetric bool matrix of the pairs whose state is one of ``codes``."""
        mask = np.isin(self.states, codes)
        adj = np.zeros((self.n, self.n), dtype=bool)
        us, vs = np.triu_indices(self.n, 1)
        adj[us[mask], vs[mask]] = True
        return adj | adj.T


def generate(name: str, family: str, n: int, m: int, rng: np.random.Generator) -> Generated:
    """m uniformly placed unicolored / one-way pairs with uniform states."""
    total = n * (n - 1) // 2
    states = np.zeros(total, dtype=np.int8)
    states[rng.choice(total, size=m, replace=False)] = rng.integers(1, 3, size=m)
    return Generated(name, family, n, states)


def exact_pool() -> list[Generated]:
    pool = []
    for m in (64, 128, 256, 512, 1024, 2016):
        for i in range(2):
            rng = np.random.default_rng([POOL_SEED, 0, m, i])
            pool.append(generate(f"coloring_n64_m{m}_{i}", "coloring", 64, m, rng))
    for n, m in ((26, 234), (28, 168), (32, 128), (24, 276), (24, 276)):
        i = sum(g.name.startswith(f"digraph_n{n}_m{m}_") for g in pool)
        rng = np.random.default_rng([POOL_SEED, 1, n, m, i])
        pool.append(generate(f"digraph_n{n}_m{m}_{i}", "digraph", n, m, rng))
    return pool


def lowerbound_inputs(seed: int) -> list[Generated]:
    files = []
    for f_index, family in enumerate(("coloring", "digraph")):
        for n in (128, 256):
            for m in (n, 4 * n, n * (n - 1) // 4):
                rng = np.random.default_rng([seed, f_index, n, m])
                files.append(generate(f"{family}_n{n}_m{m}", family, n, m, rng))
    return files


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations


def cli_call(argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            # looked up at call time so the tracer's wrapper is the one used
            code = biramsey.cli.cli_main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def cli_answer(result: CliResult) -> str:
    return f"{result.code}\n{result.out}"


def solve_answer(result: CliResult) -> str:
    # node counts are a metric, not an answer
    kept = [ln for ln in result.out.splitlines() if not ln.startswith("nodes=")]
    return f"{result.code}\n" + "\n".join(kept)


def exit_problems(result: CliResult) -> list[str]:
    if result.code != 0:
        return [f"exit code {result.code}: {result.err.strip()[-200:]}"]
    return []


def fields(text: str) -> dict[str, str]:
    """key=value tokens of every line (later keys win)."""
    found = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            found[key] = value
    return found


def ints(csv: str) -> tuple[int, ...]:
    return tuple(int(x) for x in csv.split(",")) if csv else ()


def witness_problems(instance, found: dict[str, str]) -> list[str]:
    """Check the printed witness (``witness=`` plus ``color=`` or ``order=``)."""
    vertices = ints(found.get("witness", ""))
    try:
        if isinstance(instance, BicoloredGraph):
            witness = MonoCliqueWitness(vertices, EdgeColor(found.get("color")))
        else:
            witness = TransitiveWitness(vertices, ints(found.get("order", "")))
        valid = verify_witness(instance, witness)
    except (ValueError, TypeError) as exc:
        return [f"malformed witness: {exc}"]
    return [] if valid else ["witness fails verify_witness"]


# --- table ------------------------------------------------------------------


def check_atlas(result: CliResult, reference: dict[str, list[list[int]]]) -> list[str]:
    problems = exit_problems(result)
    if "# violations=0" not in result.err:
        problems.append("stderr lacks '# violations=0'")
    lines = result.out.splitlines()
    if not lines or lines[0] != "n,m,f,F,violations":
        return problems + ["missing atlas header"]
    expected = [(int(n), m, f, F) for n, rows in reference.items() for m, (f, F) in enumerate(rows)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} atlas rows, expected {len(expected)}")
    for row, (n, m, f, F) in zip(rows, expected):
        if len(row) != 5 or row[:2] != [str(n), str(m)]:
            problems.append(f"row {row} out of order, expected cell ({n}, {m})")
            continue
        if row[4]:
            problems.append(f"cell ({n}, {m}) reports {row[4]}")
            continue
        got = (int(row[2]), int(row[3]))
        if got != (f, F):
            problems.append(f"cell ({n}, {m}) = {got}, reference {(f, F)}")
        if m <= n and got != (n - m // 2, n - m // 3):
            problems.append(f"cell ({n}, {m}) = {got} misses n - m//2, n - m//3")
    return problems


def check_oracle(result: CliResult, n: int, m: int, family: str, value: int) -> list[str]:
    problems = exit_problems(result)
    label = "f" if family == "coloring" else "F"
    got = fields(result.out)
    if got.get(f"{label}({n},{m})") != str(value):
        return problems + [f"{label}({n},{m}) line {result.out.strip()!r}, reference {value}"]
    instance = parse_instance(Path(got["instance"]).read_text())
    if family == "coloring":
        routes = (max_mono_clique(instance).size, max_mono_clique_by_enumeration(instance))
        placed = instance.unicolored_count if isinstance(instance, BicoloredGraph) else None
    else:
        routes = (max_transitive_set(instance).size, max_transitive_set_by_enumeration(instance))
        placed = instance.oneway_count if isinstance(instance, SemicompleteDigraph) else None
    if placed != m:
        problems.append(f"extremal instance has m={placed}, expected {m}")
    if routes != (value, value):
        problems.append(f"extremal instance re-solves to {routes}, expected {value}")
    return problems


def check_min_max_scan(result: tuple, value: int) -> list[str]:
    got, tournament = result
    if got != value:
        return [f"min over tournaments of order 7 = {got}, reference {value}"]
    if not tournament.is_tournament() or tournament.n != 7:
        return ["scan attainer is not a 7-vertex tournament"]
    if max_transitive_set(tournament).size != value:
        return ["scan attainer re-solves to another value"]
    return []


def table_ops(tmp: Path, refs: dict) -> list[Op]:
    ops = [
        Op(
            "atlas",
            None,
            cli_call(["atlas", "--n-max", "5", "--budget", BUDGET]),
            lambda r: check_atlas(r, refs["atlas"]),
            cli_answer,
        )
    ]
    # F cells cost a third of f cells, so the digraph family runs one more
    for n, m, family in ((6, 4, "coloring"), (6, 4, "digraph"), (6, 5, "digraph")):
        value = refs["oracle"][f"{n},{m}"][family]
        argv = ["oracle", "--n", str(n), "--m", str(m), "--family", family,
                "--out", str(tmp / "oracle"), "--budget", BUDGET]
        ops.append(
            Op(
                f"oracle_{family}",
                family,
                cli_call(argv),
                lambda r, n=n, m=m, f=family, v=value: check_oracle(r, n, m, f, v),
                cli_answer,
            )
        )
    scan = refs["scan"]
    ops.append(
        Op(
            "scan",
            None,
            lambda: biramsey.exhaustive.min_max_transitive_over_tournaments(7),
            lambda r: check_min_max_scan(r, scan["min_max_transitive_7"]),
            lambda r: f"{r[0]} {r[1].states}",
        )
    )
    ops.append(
        Op(
            "scan",
            None,
            lambda: biramsey.exhaustive.every_tournament_contains_tt(8, 4),
            lambda r: [] if r is scan["every_tournament_contains_tt_8_4"] else [f"TT4 in every T8: {r}"],
        )
    )
    return ops


# --- exact ------------------------------------------------------------------

CERTIFICATES = (
    "matching --n 64 --m 64",
    "matching --n 40 --m 31",
    "triangles --n 40 --m 39",
    "blowup --n 40 --t 4",
    "blowup --n 40 --t 2",
    "packing --n 39 --k 4 --search",
    "packing --n 28 --k 3",
    "lex-cliques --n 64 --c 7",
    "lex-cliques --n 63 --c 2",
    "mixed-coloring --n 64 --k 3 --gamma 1/2",
    "mixed-digraph --n 40 --k 2 --gamma 1/2",
    "mixed-digraph --n 40 --k 3 --gamma 1/2 --search",
)


def check_solve(result: CliResult, instance, optimum: int) -> list[str]:
    problems = exit_problems(result)
    got = fields(result.out)
    if got.get("optimum") != str(optimum):
        return problems + [f"optimum {got.get('optimum')}, reference {optimum}"]
    size = len(ints(got.get("witness", "")))
    if size != optimum:
        return problems + [f"witness has {size} vertices, optimum {optimum}"]
    return problems + witness_problems(instance, got)


def check_verify(result: CliResult) -> list[str]:
    problems = exit_problems(result)
    if not result.out.rstrip().endswith("VERIFIED"):
        problems.append(f"verify printed {result.out.strip()[-80:]!r}")
    return problems


def verify_call(cert_dir: Path) -> Callable[[], CliResult]:
    def call() -> CliResult:
        certs = sorted(str(p) for p in cert_dir.glob("*.cert.json"))
        return cli_call(["verify", *certs])()

    return call


def exact_ops(tmp: Path, refs: dict) -> list[Op]:
    ops = []
    for g in exact_pool():
        text = g.text()
        ref = refs["exact"][g.name]
        if sha256(text) != ref["sha256"]:
            raise RuntimeError(f"input {g.name} no longer matches its stored reference")
        path = tmp / f"{g.name}.txt"
        path.write_text(text)
        instance = parse_instance(text)
        ops.append(
            Op(
                f"solve_{g.family}",
                g.family,
                cli_call(["solve", str(path)]),
                lambda r, i=instance, o=ref["optimum"]: check_solve(r, i, o),
                solve_answer,
            )
        )
    for i, spec in enumerate(CERTIFICATES):
        out = tmp / "certs" / str(i)
        ops.append(
            Op("certify", None, cli_call(["construct", *spec.split(), "--out", str(out)]),
               exit_problems, cli_answer)
        )
        ops.append(Op("certify", None, verify_call(out), check_verify, cli_answer))
    return ops


# --- lowerbound ---------------------------------------------------------------


def reference_trials(adj: np.ndarray, max_earlier: int, trials: int, seed: int):
    """Independent best-of-trials: (best set, mean size, exact expectation).

    Trial i orders the vertices by the permutation drawn from child stream
    i of the seed and keeps each vertex with at most ``max_earlier``
    earlier neighbours; the best set is the largest, then lexicographically
    smallest.
    """
    n = adj.shape[0]
    best: "tuple[int, ...] | None" = None
    total = 0
    rank = np.empty(n, dtype=np.int64)
    for i in range(trials):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rank[np.random.default_rng(stream).permutation(n)] = np.arange(n)
        earlier = (adj & (rank[None, :] < rank[:, None])).sum(axis=1)
        run = tuple(np.flatnonzero(earlier <= max_earlier).tolist())
        total += len(run)
        if best is None or len(run) > len(best) or (len(run) == len(best) and run < best):
            best = run
    guarantee = sum(
        (min(Fraction(1), Fraction(max_earlier + 1, int(d) + 1)) for d in adj.sum(axis=1)),
        Fraction(0),
    )
    return best, Fraction(total, trials), guarantee


def lowerbound_reference(g: Generated, trials: int, seed: int) -> list[str]:
    if g.family == "coloring":
        blue, red = g.adjacency((2,)), g.adjacency((1,))
        obstacle = blue if blue.sum() <= red.sum() else red
        best, mean, guarantee = reference_trials(obstacle, 0, trials, seed)
    else:
        best, mean, guarantee = reference_trials(g.adjacency((1, 2)), 1, trials, seed)
    return [
        f"best_size={len(best)}",
        "witness=" + ",".join(map(str, best)),
        f"mean={mean}",
        f"guarantee={guarantee}",
    ]


def check_lowerbound(result: CliResult, instance, reference: list[str]) -> list[str]:
    problems = exit_problems(result)
    lines = result.out.splitlines()
    got = [ln for ln in lines if ln.split("=", 1)[0] in ("best_size", "witness", "mean", "guarantee")]
    if got != reference:
        line, ref = next(((g, r) for g, r in zip(got, reference) if g != r), (got, reference))
        return problems + [f"{str(line)[:80]!r} differs from the reference {str(ref)[:80]!r}"]
    return problems + witness_problems(instance, fields(result.out))


def lowerbound_ops(tmp: Path, seed: int) -> list[Op]:
    ops = []
    for g in lowerbound_inputs(seed):
        text = g.text()
        path = tmp / f"{g.name}.txt"
        path.write_text(text)
        reference = lowerbound_reference(g, LOWERBOUND_TRIALS, seed)
        argv = ["lowerbound", str(path), "--trials", str(LOWERBOUND_TRIALS), "--seed", str(seed)]
        ops.append(
            Op(
                "lowerbound",
                g.family,
                cli_call(argv),
                lambda r, i=parse_instance(text), ref=reference: check_lowerbound(r, i, ref),
                cli_answer,
            )
        )
    return ops


def build(workload: str, seed: int, tmp: Path, refs: dict) -> list[Op]:
    """The operations of one round; inputs are written under ``tmp`` now,
    outside any timed region."""
    tmp.mkdir(parents=True, exist_ok=True)
    if workload == "table":
        return table_ops(tmp, refs)
    if workload == "exact":
        return exact_ops(tmp, refs)
    if workload == "lowerbound":
        return lowerbound_ops(tmp, seed)
    raise ValueError(f"unknown workload {workload!r}")
