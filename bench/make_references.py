"""Regenerate bench/references.json from the library's own exact routes.

    python3 bench/make_references.py

Run it only when the benchmark's inputs change; the stored values are the
answers every later commit must reproduce.  Takes about fifteen seconds
on a 2-core x86 machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biramsey.exhaustive import every_tournament_contains_tt, min_max_transitive_over_tournaments  # noqa: E402
from biramsey.model import parse_instance  # noqa: E402
from biramsey.solvers import brute_force_F, brute_force_f, max_mono_clique, max_transitive_set  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    atlas = {
        str(n): [
            [brute_force_f(n, m).value, brute_force_F(n, m).value]
            for m in range(n * (n - 1) // 2 + 1)
        ]
        for n in range(1, 6)
    }
    oracle = {
        "6,4": {"coloring": brute_force_f(6, 4).value, "digraph": brute_force_F(6, 4).value},
        "6,5": {"digraph": brute_force_F(6, 5).value},
    }
    scan = {
        "min_max_transitive_7": min_max_transitive_over_tournaments(7)[0],
        "every_tournament_contains_tt_8_4": every_tournament_contains_tt(8, 4),
    }
    exact = {}
    for g in workloads.exact_pool():
        text = g.text()
        instance = parse_instance(text)
        solve = max_mono_clique if g.family == "coloring" else max_transitive_set
        exact[g.name] = {"sha256": workloads.sha256(text), "optimum": solve(instance).size}
    refs = {"atlas": atlas, "oracle": oracle, "scan": scan, "exact": exact}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
