"""In-memory spans around biramsey's layer boundaries, recorded from outside.

The tracer replaces each public function at the name its caller looks up:
``cli`` imports ``parse_instance``, the two solvers, ``oracle_cell_slice``
and the trial functions by name, and ``constructions`` imports both solvers
by name, so wrapping only ``biramsey.solvers`` would miss every call made
through ``cli`` or ``verify_claims``.  Spans and counters stay in memory
while recording is on and are summarised or written out afterwards.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

LAYERS = ("cli", "model", "solvers", "exhaustive", "heuristics", "constructions", "bounds")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"  # index of the enclosing span in Tracer.spans
    request: int  # one id per benchmark operation (one CLI call or scan)


class Tracer:
    """Collects spans and exact counters while ``recording`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: "str | Callable[..., str]",
        fn: Callable,
        count: "Callable[[tuple, dict, object], dict[str, int]] | None" = None,
    ) -> Callable:
        """``fn`` with a span per call; ``name`` may depend on the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(label, 0.0, 0.0, parent, self.request))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.request)
                self.counts[label + ".calls"] += 1
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def patch(self, owner: object, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, count)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


# ---------------------------------------------------------------------------
# patch sites


def _nodes(key: str):
    return lambda args, kwargs, result: {key: result.nodes_explored}


def _parse_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"model.parse.bytes": len(text.encode())}


def _trials(args, kwargs, result):
    return {"heuristics.trials": result[1].trials}


def _oracle_name(n, m, family, start, stop):
    return "solvers.oracle_f" if family == "coloring" else "solvers.oracle_F"


def _oracle_instances(args, kwargs, result):
    n, m, family, start, stop = args
    return {_oracle_name(*args) + ".instances": (stop - start) << m}


def _scan_codes(cap: int):
    # codes scanned by the bit-parallel census: every tournament on
    # min(order, cap) vertices; below order 3 nothing is scanned
    def count(args, kwargs, result):
        order = min(args[0], cap)
        return {"exhaustive.codes": 1 << comb(order, 2) if order >= 3 else 0}

    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at each name a caller looks it up by."""
    import biramsey.bounds as bounds
    import biramsey.cli as cli
    import biramsey.constructions as cons
    import biramsey.exhaustive as exhaustive
    import biramsey.heuristics as heuristics
    import biramsey.solvers as solvers

    tracer.patch(cli, "cli_main", "cli")
    tracer.patch(cli, "parse_instance", "model.parse", _parse_bytes)
    for owner in (cli, solvers):
        tracer.patch(owner, "serialize_instance", "model.serialize")
    for owner in (cli, cons):
        tracer.patch(owner, "max_mono_clique", "solvers.clique", _nodes("solvers.clique.nodes"))
        tracer.patch(owner, "max_transitive_set", "solvers.acyclic", _nodes("solvers.acyclic.nodes"))
    tracer.patch(cli, "oracle_cell_slice", _oracle_name, _oracle_instances)
    tracer.patch(cli, "mono_clique_trials", "heuristics", _trials)
    tracer.patch(cli, "transitive_trials", "heuristics", _trials)
    tracer.patch(heuristics, "expected_run_size", "heuristics.expectation")
    for key in list(cons.BUILDERS):
        tracer.patch(cons.BUILDERS, key, "constructions.build")
    tracer.patch(cons, "verify_claims", "constructions.verify")
    for attr in bounds.__all__:
        if inspect.isfunction(getattr(bounds, attr)):
            tracer.patch(bounds, attr, "bounds")
    for attr in ("min_max_transitive_over_tournaments", "every_tournament_contains_tt"):
        tracer.patch(exhaustive, attr, "exhaustive", _scan_codes(exhaustive.SCAN_ORDER_CAP))


# ---------------------------------------------------------------------------
# summaries


def span_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """(inclusive seconds per span name, self seconds per span name).

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another wrapped name is not counted twice.
    Self time is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_time[span.name] += duration - child_time[i]
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            inclusive[span.name] += duration
    return dict(inclusive), dict(self_time)


def layer_metrics(
    spans: list[Span], counts: dict[str, int], wall: float, scale: float = 1.0
) -> dict[str, float]:
    """Per-layer counts, busy seconds, rates and shares of ``wall``.

    ``wall`` is in the spans' clock; reported seconds are multiplied by
    ``scale``, which puts them on the same speed-normalised footing as the
    end-to-end times.
    """
    inclusive, self_time = span_times(spans)
    counts = Counter(counts)

    def secs(name: str) -> float:
        return inclusive.get(name, 0.0) * scale

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for name, work in (
        ("solvers.oracle_f", "instances"),
        ("solvers.oracle_F", "instances"),
        ("exhaustive", "codes"),
        ("heuristics", "trials"),
    ):
        out[f"{name}.{work}"] = counts[f"{name}.{work}"]
        out[f"{name}.s"] = secs(name)
        out[f"{name}.{work}_per_s"] = rate(counts[f"{name}.{work}"], secs(name))
    for name in ("solvers.clique", "solvers.acyclic"):
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.nodes"] = counts[f"{name}.nodes"]
        out[f"{name}.s"] = secs(name)
        out[f"{name}.nodes_per_s"] = rate(counts[f"{name}.nodes"], secs(name))
    out["model.parse.calls"] = counts["model.parse.calls"]
    out["model.parse.bytes"] = counts["model.parse.bytes"]
    out["model.parse.s"] = secs("model.parse")
    out["model.parse.mb_per_s"] = rate(counts["model.parse.bytes"] / 1e6, secs("model.parse"))
    out["heuristics.expectation.s"] = secs("heuristics.expectation")
    for name in ("model.serialize", "constructions.build", "constructions.verify", "bounds"):
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.s"] = secs(name)
    out["cli.calls"] = counts["cli.calls"]
    out["cli.self_s"] = self_time.get("cli", 0.0) * scale
    for layer in LAYERS:
        busy = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
        out[f"share.{layer}"] = rate(busy, wall)
    return out
