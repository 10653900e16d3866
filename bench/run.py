"""Benchmark runner for biramsey.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process through
``biramsey.cli.cli_main``, built from the ``src/`` tree next to this
directory.  Inputs are generated from ``--seed`` before timing starts.  The
workload's operations run in rounds until ``--seconds`` have passed, every
answer is checked in every round, and each time metric is the median over
rounds.  With ``--trace 1`` untraced and traced rounds alternate: the traced
ones give the per-layer metrics and the tracing overhead, the untraced ones
the per-stage times.

Times are speed-normalised seconds.  On a shared host the processor's speed
drifts by tens of percent within a minute, so a fixed calibration loop is
timed before and after every operation and every 0.05 s while it runs, and
each operation's wall time is rescaled to the speed at which that loop takes
CALIBRATION_NOMINAL_S.  Raw wall times are kept in the results file.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit.  A results file with the run environment, exact counters and, for a
traced run, the spans goes to ``.bench_results/``; scratch files go to
``.bench_tmp/`` and are removed on exit."""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process
os.environ.pop("RAMSEY_BUDGET", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"
WORKLOADS = ("table", "exact", "lowerbound")
HELD_OUT_SEED = 9173  # never used while tuning; confirm claimed gains on it
IMPORT_RUNS = 7
CALIBRATION_LOOPS = 3_000
CALIBRATION_NOMINAL_S = 0.00035  # the loop's time on a quiet 2-vCPU x86 host
CALIBRATION_PERIOD_S = 0.05
STAGES = (
    "atlas", "oracle_coloring", "oracle_digraph", "scan",
    "solve_coloring", "solve_digraph", "certify", "lowerbound",
)
END_TO_END = ("setup_s", "wall_s", "coloring_s", "digraph_s", "peak_rss_mb")
# a fresh interpreter imports biramsey.cli, then times the calibration loop
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import biramsey.cli; seconds = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "from run import calibration_seconds as c; print(seconds, *(c() for _ in range(9)))"
)


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("share.") or name.endswith("_frac"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every metric a traced run reports, in output order."""
    import tracing

    names = list(tracing.layer_metrics([], {}, 1.0))
    names += [f"{stage}_s" for stage in STAGES]
    return names + ["failed_frac", "trace.overhead_frac", "trace.count_mismatches"]


# ---------------------------------------------------------------------------
# timing


def calibration_seconds() -> float:
    """Time of one run of a fixed interpreter-bound loop: the processor's
    current speed, which drifts by tens of percent on a shared host."""
    start = time.perf_counter()
    total, seen = 0, set()
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        seen.add(i & 1023)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples calibration_seconds() every CALIBRATION_PERIOD_S of wall time
    from a SIGALRM handler, so an operation of any length is normalised by
    the speed measured while it ran."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibration_seconds())

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def normalised(seconds: float, calibration: float) -> float:
    """``seconds`` rescaled to the speed at which the calibration loop takes
    CALIBRATION_NOMINAL_S, given the loop's time measured alongside."""
    return seconds * CALIBRATION_NOMINAL_S / calibration


def import_seconds() -> float:
    """Median normalised import time over IMPORT_RUNS fresh processes."""

    def probe() -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, *calibration = map(float, done.stdout.split())
        return normalised(seconds, statistics.median(calibration))

    probe()  # compiles bytecode on a fresh checkout
    return statistics.median(probe() for _ in range(IMPORT_RUNS))


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    traced: bool
    durations: list[float] = field(default_factory=list)  # speed-normalised
    raw: list[float] = field(default_factory=list)  # as measured
    problems: list[list[str]] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def seconds(self, ops, keep=lambda op: True) -> float:
        return sum(d for op, d in zip(ops, self.durations) if keep(op))


def run_round(ops, tracer, probe: SpeedProbe) -> Round:
    result = Round(traced=tracer is not None)
    before = [calibration_seconds() for _ in range(3)]
    for op in ops:
        probe.take()
        if tracer is not None:
            tracer.request += 1
            tracer.recording = True
        start = time.perf_counter()
        try:
            answer, error = op.call(), None
        except Exception as exc:  # an operation that raises counts as failed
            answer, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        during = probe.take()
        after = [calibration_seconds() for _ in range(3)]
        result.raw.append(elapsed)
        result.durations.append(normalised(elapsed, statistics.mean(before + during + after)))
        before = after
        if error is None:
            try:
                problems = op.check(answer)
                result.answers.append(op.answer(answer))
            except Exception as exc:  # a check that cannot read the answer
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                result.answers.append("")
        else:
            problems = [error]
            result.answers.append("")
        result.problems.append(problems)
    if tracer is not None:
        result.spans = list(tracer.spans)
        result.counts = dict(tracer.counts)
        tracer.reset()
    return result


def run_rounds(ops, seconds: float, tracer) -> list[Round]:
    """Rounds until ``seconds`` have passed; untraced and traced rounds
    alternate when a tracer is given, with at least one of each."""
    kinds = (False, True) if tracer is not None else (False,)
    rounds: list[Round] = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            traced = kinds[len(rounds) % len(kinds)]
            rounds.append(run_round(ops, tracer if traced else None, probe))
            if time.perf_counter() - start >= seconds and len(rounds) >= len(kinds):
                return rounds


def mark_changed_answers(rounds: list[Round]) -> None:
    """An answer that differs from the first round's is a failed operation;
    this also holds traced rounds to the untraced answers."""
    first = rounds[0].answers
    for r in rounds[1:]:
        for i, (a, b) in enumerate(zip(first, r.answers)):
            if a != b and not r.problems[i]:
                r.problems[i].append("answer differs from the first round")


# ---------------------------------------------------------------------------
# environment and persistence


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def count_mismatches(rounds: list[Round], key: str) -> int:
    """Exact counters that differ between traced rounds of this run or from
    an earlier run of the same source and seed in this checkout."""
    traced = [r.counts for r in rounds if r.traced]
    mismatches = sum(c != traced[0] for c in traced[1:])
    store = RESULTS / "counts.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known and known[key] != traced[0]:
        mismatches += 1
    known[key] = traced[0]
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return mismatches


# ---------------------------------------------------------------------------
# main


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biramsey" / "cli.py").is_file():
        print(f"error: no biramsey source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biramsey

    if SRC.resolve() not in Path(biramsey.__file__).resolve().parents:
        print(f"error: biramsey imported from {biramsey.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup_s = import_seconds()
    RESULTS.mkdir(exist_ok=True)
    tmp = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        ops = workloads.build(args.workload, args.seed, tmp, workloads.load_references())
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        rounds = run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    mark_changed_answers(rounds)

    plain = [r for r in rounds if not r.traced]
    attempted = len(ops) * len(rounds)
    failed = sum(bool(p) for r in rounds for p in r.problems)

    def median(values) -> float:
        return statistics.median(list(values))

    wall = median(r.seconds(ops) for r in plain)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall,
        "coloring_s": median(r.seconds(ops, lambda op: op.family == "coloring") for r in plain),
        "digraph_s": median(r.seconds(ops, lambda op: op.family == "digraph") for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    stages = {
        f"{stage}_s": median(r.seconds(ops, lambda op: op.stage == stage) for r in plain)
        for stage in STAGES
    }
    layers: dict[str, float] = {}
    if args.trace:
        traced = [r for r in rounds if r.traced]
        per_round = [
            tracing.layer_metrics(r.spans, r.counts, sum(r.raw), r.seconds(ops) / sum(r.raw))
            for r in traced
        ]
        layers = {key: median(m[key] for m in per_round) for key in per_round[0]}
        layers.update(stages)
        layers["failed_frac"] = failed / attempted
        layers["trace.overhead_frac"] = median(r.seconds(ops) for r in traced) / wall - 1
        key = f"{args.workload}/{args.seed}/{source_hash()}"
        layers["trace.count_mismatches"] = count_mismatches(rounds, key)
    metrics = layers if args.trace else e2e
    shown = layers if args.trace else {**e2e, **stages, "failed_frac": failed / attempted}

    problems = [
        f"round {i} op {j} ({ops[j].stage}): {p}"
        for i, r in enumerate(rounds) for j, ps in enumerate(r.problems) for p in ps
    ]
    for line in problems[:20]:
        print(line, file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "rounds": [
            {"traced": r.traced, "durations": r.durations, "raw": r.raw} for r in rounds
        ],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "stages": stages,
        "per_layer": layers,
        "counts": next((r.counts for r in rounds if r.traced), None),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with (RESULTS / f"spans-{stem}.jsonl").open("w") as fh:
            for i, r in enumerate(rounds):
                for span in r.spans:
                    fh.write(json.dumps({"round": i, **asdict(span)}) + "\n")

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed}")
    for name, value in shown.items():
        print(f"  {name:36s} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
