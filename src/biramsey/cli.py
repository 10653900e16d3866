"""Batch command line for reproducible experiments.

Subcommands: construct | solve | oracle | lowerbound | bound | verify |
atlas.  All results go to standard output in plain text or CSV; standard
error carries only errors and atlas's ``# violations=`` line.  A fixed
default seed makes bare invocations reproducible.  The oracle scans a cell
in one process in a fixed (placement, assignment code) order, so its output
is byte-identical from run to run; --budget caps the instances it
enumerates per cell.  Exit codes: 0 success, 1 a certificate claim failed,
2 a usage or input error (an ``OSError`` or a ``ValueError``, which every
library input error subclasses).  The argument parser is built once per
process, on first use.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from . import bounds as bounds_mod
from . import constructions as cons
from .heuristics import mono_clique_trials, transitive_trials
from .model import (
    _INSTANCE_PAIR_CAP, Instance, MonoCliqueWitness, Witness, pair_count, parse_instance,
    serialize_instance,
)
from .solvers import (
    DEFAULT_ORACLE_BUDGET,
    BudgetExceeded,
    _check_oracle_pre,
    max_mono_clique,
    max_transitive_set,
    oracle_cell_slice,
)

DEFAULT_SEED = 0xB1C0

__all__ = ["cli_main", "main", "DEFAULT_SEED"]


# ---------------------------------------------------------------------------
# oracle cells


def _oracle_cell(n: int, m: int, family: str, budget: int) -> tuple[int, str]:
    _check_oracle_pre(n, m, budget)
    value, _, text = oracle_cell_slice(n, m, family, 0, comb(pair_count(n), m))
    return value, text


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args: argparse.Namespace) -> int:
    name = args.name
    params = inspect.signature(cons.BUILDERS[name]).parameters
    # builder options are in ``args`` only when given on the command line
    given = vars(args)
    stray = [f"--{key}" for key in _CONSTRUCT_OPTIONS if key in given and key not in params]
    if stray:
        raise ValueError(f"construct {name} does not take {', '.join(stray)}")
    if pair_count(args.n) > _INSTANCE_PAIR_CAP:  # n and C(n, 2) may be too long to print
        raise ValueError(f"construct --n is too large; cap is C(n,2) <= {_INSTANCE_PAIR_CAP}")
    options = {key: default for key, (_, default) in _CONSTRUCT_OPTIONS.items()} | given
    builder_args = {key: options[key] for key in params if key in options}
    cert = cons.BUILDERS[name](**builder_args)

    slug_bits = [name.replace("-", "_")]
    for key in ("n", "m", "t", "k", "c", "gamma"):
        if key in builder_args:
            slug_bits.append(f"{key}{str(builder_args[key]).replace('/', '-')}")
    base = args.out / "_".join(slug_bits)
    instance_path = base.with_suffix(".txt")
    cert_path = base.with_suffix(".cert.json")
    args.out.mkdir(parents=True, exist_ok=True)
    instance_path.write_text(serialize_instance(cert.instance))
    payload = {
        "construction": name,
        "provenance": cert.provenance,
        "claimed_m": cert.claimed_m,
        "claimed_bound": cert.claimed_bound,
        "equality": cert.equality,
        "direction": "upper-bound-on-guarantee",
        "instance_file": instance_path.name,
        "extras": {k: _plain(v) for k, v in cert.extras.items()},
    }
    cert_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"instance={instance_path}")
    print(f"certificate={cert_path}")
    print(
        f"claimed_m={cert.claimed_m} claimed_bound={cert.claimed_bound} "
        f"equality={str(cert.equality).lower()}"
    )
    return 0


def _plain(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return str(value).lower()
    return value


def _print_witness(witness: Witness) -> None:
    print("witness=" + ",".join(map(str, witness.vertices)))
    if isinstance(witness, MonoCliqueWitness):
        print(f"color={witness.color.token}")
    else:
        print("order=" + ",".join(map(str, witness.order)))


def _cmd_solve(args: argparse.Namespace) -> int:
    for path in args.instances:
        instance = parse_instance(path.read_text())
        solve = max_mono_clique if instance.FAMILY == "bichrome" else max_transitive_set
        result = solve(instance)
        print(f"file={path} family={instance.FAMILY} n={instance.n} m={instance.m}")
        print(f"optimum={result.size}")
        _print_witness(result.witness)
        print(f"nodes={result.nodes_explored}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    families = [p for p in (("coloring", "f"), ("digraph", "F")) if args.family in (p[0], "both")]
    _check_oracle_pre(args.n, args.m, args.budget)  # both families share one estimate
    args.out.mkdir(parents=True, exist_ok=True)
    values: dict[str, tuple[int, Path]] = {}
    for family, label in families:
        value, text = _oracle_cell(args.n, args.m, family, args.budget)
        path = args.out / f"oracle_n{args.n}_m{args.m}_{family}.txt"
        path.write_text(text)
        values[label] = (value, path)
        print(f"{label}({args.n},{args.m})={value} instance={path}")
    if args.csv:
        print("n,m,f,F,instance_file")
        f_val = values.get("f", ("", None))[0]
        big_f_val = values.get("F", ("", None))[0]
        base = args.out / f"oracle_n{args.n}_m{args.m}"
        print(f"{args.n},{args.m},{f_val},{big_f_val},{base}")
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    for path in args.instances:
        instance = parse_instance(path.read_text())
        trials = mono_clique_trials if instance.FAMILY == "bichrome" else transitive_trials
        witness, stats = trials(instance, args.trials, args.seed)
        print(
            f"file={path} family={instance.FAMILY} n={instance.n} "
            f"trials={stats.trials} seed={args.seed}"
        )
        print(f"best_size={len(witness.vertices)}")
        _print_witness(witness)
        print(f"mean={stats.mean}")
        print(f"guarantee={stats.guarantee}")
    return 0


def _format_value(value: "Fraction | float | int | None") -> str:
    return "-" if value is None else str(value)


def _moments(args: argparse.Namespace) -> dict:
    z, y = bounds_mod.moment_compare(args.population, args.successes, args.draws, args.base)
    return {"hypergeometric_moment": z, "binomial_moment": y, "inequality_holds": z <= y}


def _moment_identity(args: argparse.Namespace) -> dict:
    lhs, rhs = bounds_mod.binomial_moment_identity(
        args.population, args.successes, args.draws, args.k
    )
    return {"summed": lhs, "closed_form": rhs, "identity_holds": lhs == rhs}


def _lll(args: argparse.Namespace) -> dict:
    check = bounds_mod.lll_condition(args.n, args.k)
    keys = ("holds", "event_probability", "dependency_bound", "ratio", "ratio_ok")
    return {key: getattr(check, key) for key in keys}


# bound name -> its rows: a list of BoundReport, or a quantity -> value map
_BOUNDS = {
    "classic": lambda args: bounds_mod.classic_bounds(args.n),
    "first-moment": lambda args: [bounds_mod.first_moment_bound(args.p, args.n)],
    "blowup": lambda args: [bounds_mod.blowup_bound(args.p, args.n)],
    "best-upper": lambda args: [bounds_mod.best_upper_bound(args.p, args.n)],
    "moments": _moments,
    "moment-identity": _moment_identity,
    "lll": _lll,
    "lll-threshold": lambda args: [bounds_mod.lll_threshold(args.n)],
    "lower-formulas": lambda args: bounds_mod.lower_bound_formulas(args.n, args.m),
}


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.name == "atlas":
        _bound_atlas(args.n_max, args.m_max)
        return 0
    rows = _BOUNDS[args.name](args)
    # every row is rendered before any is printed: a value too long to
    # print as a decimal then fails the command with nothing on stdout
    try:
        if isinstance(rows, dict):
            lines = ["quantity,value", *(f"{key},{_plain(value)}" for key, value in rows.items())]
        else:
            lines = ["name,side,exact,value,params"]
            for r in rows:
                params = ";".join(f"{k}={_plain(v)}" for k, v in sorted(r.params.items()))
                lines.append(f"{r.name},{r.side},{str(r.exact).lower()},{_format_value(r.value)},{params}")
    except ValueError:  # only int-to-str conversion raises here
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a value has more than {limit} digits, Python's limit for printing an int") from None
    print("\n".join(lines))
    return 0


def _bound_atlas(n_max: int, m_max: "int | None") -> None:
    """CSV of every closed-form value per (n, m) cell."""
    print(
        "n,m,clique_exact_small_m,transitive_exact_small_m,"
        "clique_lower,transitive_lower,first_moment_upper,blowup_upper"
    )
    for n in range(1, n_max + 1):
        total = n * (n - 1) // 2
        top = total if m_max is None else min(m_max, total)
        for m in range(top + 1):
            cells = {r.name: r.value for r in bounds_mod.lower_bound_formulas(n, m)}
            p = Fraction(total - m, total) if total else Fraction(0)
            fm = bu = None
            if n >= 2 and p < 1:
                fm = bounds_mod.first_moment_bound(p, n).value
                if p > 0:
                    bu = bounds_mod.blowup_bound(p, n).value
            row = [
                str(n),
                str(m),
                _format_value(cells.get("clique-exact-small-m")),
                _format_value(cells.get("transitive-exact-small-m")),
                _format_value(cells.get("clique-lower-caro-wei")),
                _format_value(cells.get("transitive-lower-degenerate")),
                _format_value(fm),
                _format_value(bu),
            ]
            print(",".join(row))


def _load_certificate(cert_path: Path) -> tuple[dict, Instance]:
    """A certificate's payload and instance; ValueError on malformed input."""
    payload = json.loads(cert_path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{cert_path}: certificate is not a JSON object")
    for key, kind in (("instance_file", str), ("claimed_m", int), ("claimed_bound", int)):
        if key not in payload:
            raise ValueError(f"{cert_path}: certificate lacks {key}")
        if type(payload[key]) is not kind:
            raise ValueError(f"{cert_path}: {key} is not of type {kind.__name__}")
    if type(payload.get("equality", False)) is not bool:
        raise ValueError(f"{cert_path}: equality is not of type bool")
    name = payload["instance_file"]
    base = cert_path.parent.resolve()
    target = (base / name).resolve()
    if Path(name).is_absolute() or not target.is_relative_to(base):
        raise ValueError(f"{cert_path}: instance_file {name!r} lies outside its directory")
    return payload, parse_instance(target.read_text())


def _cmd_verify(args: argparse.Namespace) -> int:
    all_ok = True
    for cert_path in args.certificates:
        payload, instance = _load_certificate(cert_path)
        failures = cons.verify_claims(
            instance,
            payload["claimed_m"],
            payload["claimed_bound"],
            payload.get("equality", False),
        )
        status = "VERIFIED" if not failures else "FAILED"
        print(f"cert={cert_path} construction={payload.get('construction', '?')} {status}")
        for failure in failures:
            print(f"  violated: {failure}")
            all_ok = False
    return 0 if all_ok else 1


def _cmd_atlas(args: argparse.Namespace) -> int:
    print("n,m,f,F,violations")
    prev_f: "int | None" = None
    prev_F: "int | None" = None
    total_violations = 0
    for n in range(1, args.n_max + 1):
        total = n * (n - 1) // 2
        top = total if args.m_max is None else min(args.m_max, total)
        prev_f = prev_F = None
        for m in range(top + 1):
            try:
                f_val, _ = _oracle_cell(n, m, "coloring", args.budget)
                big_f, _ = _oracle_cell(n, m, "digraph", args.budget)
            except BudgetExceeded:
                print(f"{n},{m},,,skipped-budget")
                prev_f = prev_F = None
                continue
            violations: list[str] = []
            # each formula's report checks the oracle value of its family
            computed = {"clique": ("f", f_val), "transitive": ("F", big_f)}
            for r in bounds_mod.lower_bound_formulas(n, m):
                if r.side not in ("exact", "lower"):
                    continue  # the f <= F note is the sandwich check below
                label, value = computed[r.name.split("-")[0]]
                if value != r.value if r.side == "exact" else value < r.value:
                    violations.append(f"{label}-{r.side}")
            if f_val > big_f:
                violations.append("sandwich")
            if prev_f is not None and f_val > prev_f:
                violations.append("f-monotone")
            if prev_F is not None and big_f > prev_F:
                violations.append("F-monotone")
            if n >= 2 and m >= 1:
                p = Fraction(total - m, total)
                if big_f >= bounds_mod.first_moment_bound(p, n).value:
                    violations.append("F-upper-moment")
            total_violations += len(violations)
            print(f"{n},{m},{f_val},{big_f},{';'.join(violations)}")
            prev_f, prev_F = f_val, big_f
    print(f"# violations={total_violations}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _fraction(text: str) -> Fraction:
    """An exact rational such as 1/2 or 0.25; a zero denominator is a
    usage error, not a crash."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


# construct options that only some builders take: (type, default)
_CONSTRUCT_OPTIONS = {
    "m": (int, 0),
    "t": (int, 1),
    "k": (int, 2),
    "c": (int, 1),
    "gamma": (_fraction, Fraction(1)),
    "seed": (int, DEFAULT_SEED),
}


@functools.cache  # built on first use, once per process, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biramsey",
        description=(
            "Exact solvers, randomized lower bounds, extremal constructions, "
            "and bound calculators for guaranteed monochromatic cliques and "
            "transitive subtournaments."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build an extremal instance plus certificate")
    p.add_argument("name", choices=sorted(cons.BUILDERS))
    p.add_argument("--n", type=int, required=True)
    for key, (kind, _) in _CONSTRUCT_OPTIONS.items():
        p.add_argument(f"--{key}", type=kind, default=argparse.SUPPRESS)
    p.add_argument("--search", action="store_true",
                   help="no effect; all extremal tournaments (orders 1, 3, 7, 13) are bundled")
    p.add_argument("--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve", help="exact optimum of instance files")
    p.add_argument("instances", nargs="+", type=Path)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="worst-case value of one (n, m) cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", choices=["coloring", "digraph", "both"], default="both")
    p.add_argument("--out", type=Path, default=Path("."))
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("lowerbound", help="randomized lower-bound witness")
    p.add_argument("instances", nargs="+", type=Path)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("bound", help="closed-form bound reports")
    p.add_argument("name", choices=[*_BOUNDS, "atlas"])
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--p", type=_fraction, default="1/2")
    p.add_argument("--population", type=int, default=8)
    p.add_argument("--successes", type=int, default=4)
    p.add_argument("--draws", type=int, default=4)
    p.add_argument("--base", type=_fraction, default="2")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="re-check construction certificates")
    p.add_argument("certificates", nargs="+", type=Path)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("atlas", help="oracle grid cross-tabulated against formulas")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    p.set_defaults(func=_cmd_atlas)

    return parser


def cli_main(argv: "list[str] | None" = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every library input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
