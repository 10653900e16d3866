"""Edge-state data model for the two instance families.

Both families live on a complete graph with 0-based dense vertex ids, and
both store exactly one state per unordered pair {u, v}, u < v:

* ``BicoloredGraph`` - each pair is red, blue, or carries both colors.
* ``SemicompleteDigraph`` - each pair is a forward arc (u -> v), a backward
  arc (v -> u), or bioriented (both arcs).

The quantity ``m`` counts unicolored pairs (resp. one-way pairs); the
remaining pairs are bicolored (resp. bioriented).  Instances are immutable
after construction and safe to share between concurrent solver calls.

Text format, one instance per file, LF newlines, '#' starts a comment::

    bichrome <n>          or       semi <n>
    u v S                 one line per pair, every pair exactly once

with S in {R, B, RB} for colorings and {>, <, <>} for digraphs.  Input
line order is free; serialization is canonical (pairs in lexicographic
order) so serialized instances diff cleanly.

Each instance also has ``pair_codes``, the same states as a read-only int8
array in pair order: a state's code is its place in its enum (0 red or
forward, 1 blue or backward, 2 both), so the reduction between the
families keeps the codes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from typing import Iterable, Iterator, Mapping, NoReturn, Union

import numpy as np

__all__ = [
    "EdgeColor",
    "ArcState",
    "BicoloredGraph",
    "SemicompleteDigraph",
    "Instance",
    "MonoCliqueWitness",
    "TransitiveWitness",
    "Witness",
    "pair_index",
    "pair_count",
    "iter_pairs",
    "digraph_to_coloring",
    "coloring_to_digraph",
    "parse_instance",
    "serialize_instance",
    "InstanceFormatError",
    "InvalidHeader",
    "MalformedLine",
    "BadState",
    "VertexOutOfRange",
    "DuplicatePair",
    "MissingPair",
    "random_coloring",
    "random_semicomplete",
    "random_tournament",
]


class EdgeColor(enum.Enum):
    """State of a pair in a two-coloring where both colors may coexist."""

    RED = "R"
    BLUE = "B"
    RED_BLUE = "RB"

    @property
    def token(self) -> str:
        return self.value

    @property
    def code(self) -> int:
        """This state's entry in an instance's ``pair_codes``."""
        return list(type(self)).index(self)


class ArcState(enum.Enum):
    """Orientation of a pair {u, v}, u < v, in a semicomplete digraph."""

    FORWARD = ">"  # u -> v
    BACKWARD = "<"  # v -> u
    BIORIENTED = "<>"

    @property
    def token(self) -> str:
        return self.value

    @property
    def code(self) -> int:
        """This state's entry in an instance's ``pair_codes``."""
        return list(type(self)).index(self)


# State maps of the reduction between the families: ascending arcs are red,
# descending arcs are blue, bioriented pairs carry both colors.
_ARC_TO_COLOR = {
    ArcState.FORWARD: EdgeColor.RED,
    ArcState.BACKWARD: EdgeColor.BLUE,
    ArcState.BIORIENTED: EdgeColor.RED_BLUE,
}
_COLOR_TO_ARC = {v: k for k, v in _ARC_TO_COLOR.items()}


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(u: int, v: int, n: int) -> int:
    """Index of pair (u, v), u < v, in lexicographic pair order."""
    if not 0 <= u < v < n:
        raise ValueError(f"bad pair ({u}, {v}) for n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def iter_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All pairs (u, v), u < v, in lexicographic order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


def _check_states(n: int, states: tuple, kind: type) -> None:
    if n < 1:
        raise ValueError("instances need at least one vertex")
    if len(states) != pair_count(n):
        raise ValueError(
            f"expected {pair_count(n)} pair states for n={n}, got {len(states)}"
        )
    if not all(map(isinstance, states, repeat(kind))):
        bad = next(s for s in states if not isinstance(s, kind))
        raise TypeError(f"pair state {bad!r} is not a {kind.__name__}")


class _PairStates:
    """Pair-code view shared by both families; ``_STATES`` lists the
    state enum in code order."""

    _STATES: tuple

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """Read-only int8 array of the states' codes, in pair order."""
        objects = np.array(self.states, dtype=object)
        codes = np.zeros(len(objects), dtype=np.int8)
        for code, state in enumerate(self._STATES):
            codes[objects == state] = code
        codes.flags.writeable = False
        return codes

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray):
        instance = cls(n, tuple(map(cls._STATES.__getitem__, codes.tolist())))
        codes.flags.writeable = False
        instance.__dict__["pair_codes"] = codes
        return instance


@dataclass(frozen=True)
class BicoloredGraph(_PairStates):
    """Complete graph whose pairs are red, blue, or both.

    ``states`` is indexed by :func:`pair_index`.
    """

    n: int
    states: tuple[EdgeColor, ...]
    _STATES = tuple(EdgeColor)

    def __post_init__(self) -> None:
        _check_states(self.n, self.states, EdgeColor)

    @classmethod
    def from_map(cls, n: int, pairs: Mapping[tuple[int, int], EdgeColor]) -> "BicoloredGraph":
        states = [EdgeColor.RED_BLUE] * pair_count(n)
        seen = set()
        for (u, v), color in pairs.items():
            if u > v:
                u, v = v, u
            idx = pair_index(u, v, n)
            if idx in seen:
                raise ValueError(f"pair ({u}, {v}) listed twice")
            seen.add(idx)
            states[idx] = color
        return cls(n, tuple(states))

    def state(self, u: int, v: int) -> EdgeColor:
        if u > v:
            u, v = v, u
        return self.states[pair_index(u, v, self.n)]

    @property
    def unicolored_count(self) -> int:
        """The quantity m: pairs carrying exactly one color."""
        return sum(1 for s in self.states if s is not EdgeColor.RED_BLUE)

    @property
    def bicolored_count(self) -> int:
        return pair_count(self.n) - self.unicolored_count

    def density(self) -> Fraction:
        """Exact bicolored fraction p = |bicolored pairs| / C(n, 2)."""
        total = pair_count(self.n)
        if total == 0:
            return Fraction(0)
        return Fraction(self.bicolored_count, total)

    def has_color(self, u: int, v: int, color: EdgeColor) -> bool:
        """Whether the pair's state includes the given single color."""
        s = self.state(u, v)
        return s is color or s is EdgeColor.RED_BLUE


@dataclass(frozen=True)
class SemicompleteDigraph(_PairStates):
    """Digraph where every pair carries one or both orientations."""

    n: int
    states: tuple[ArcState, ...]
    _STATES = tuple(ArcState)

    def __post_init__(self) -> None:
        _check_states(self.n, self.states, ArcState)

    @classmethod
    def from_map(cls, n: int, pairs: Mapping[tuple[int, int], ArcState]) -> "SemicompleteDigraph":
        states = [ArcState.BIORIENTED] * pair_count(n)
        seen = set()
        for (u, v), arc in pairs.items():
            if u > v:
                u, v = v, u
                arc = _flip(arc)
            idx = pair_index(u, v, n)
            if idx in seen:
                raise ValueError(f"pair ({u}, {v}) listed twice")
            seen.add(idx)
            states[idx] = arc
        return cls(n, tuple(states))

    @classmethod
    def from_arcs(cls, n: int, arcs: "set[tuple[int, int]] | frozenset[tuple[int, int]]") -> "SemicompleteDigraph":
        """Build from the set of one-way arcs (tail, head); other pairs bioriented."""
        states = [ArcState.BIORIENTED] * pair_count(n)
        for x, y in arcs:
            if x == y:
                raise ValueError("loops are not allowed")
            u, v = (x, y) if x < y else (y, x)
            idx = pair_index(u, v, n)
            if states[idx] is not ArcState.BIORIENTED:
                raise ValueError(f"pair ({u}, {v}) listed twice")
            states[idx] = ArcState.FORWARD if x < y else ArcState.BACKWARD
        return cls(n, tuple(states))

    def state(self, u: int, v: int) -> ArcState:
        if u > v:
            return _flip(self.states[pair_index(v, u, self.n)])
        return self.states[pair_index(u, v, self.n)]

    @property
    def oneway_count(self) -> int:
        """The quantity m: pairs carrying exactly one orientation."""
        return sum(1 for s in self.states if s is not ArcState.BIORIENTED)

    @property
    def bioriented_count(self) -> int:
        return pair_count(self.n) - self.oneway_count

    def density(self) -> Fraction:
        """Exact bioriented fraction p = |bioriented pairs| / C(n, 2)."""
        total = pair_count(self.n)
        if total == 0:
            return Fraction(0)
        return Fraction(self.bioriented_count, total)

    def has_arc(self, x: int, y: int) -> bool:
        """Arc x -> y present (one-way or as half of a bioriented pair)."""
        s = self.state(min(x, y), max(x, y))
        if s is ArcState.BIORIENTED:
            return True
        return (s is ArcState.FORWARD) == (x < y)

    def is_tournament(self) -> bool:
        return all(s is not ArcState.BIORIENTED for s in self.states)

    def one_way_arcs(self) -> Iterator[tuple[int, int]]:
        """One-way arcs as (tail, head), in pair order."""
        for (u, v), s in zip(iter_pairs(self.n), self.states):
            if s is ArcState.FORWARD:
                yield u, v
            elif s is ArcState.BACKWARD:
                yield v, u


def _flip(arc: ArcState) -> ArcState:
    if arc is ArcState.FORWARD:
        return ArcState.BACKWARD
    if arc is ArcState.BACKWARD:
        return ArcState.FORWARD
    return ArcState.BIORIENTED


Instance = Union[BicoloredGraph, SemicompleteDigraph]


# ---------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True)
class MonoCliqueWitness:
    """Vertex set whose internal pairs all carry the named color."""

    vertices: tuple[int, ...]
    color: EdgeColor

    def __post_init__(self) -> None:
        if self.color is EdgeColor.RED_BLUE:
            raise ValueError("witness color must be a single color")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("witness vertices must be sorted and distinct")

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TransitiveWitness:
    """Vertex set plus an ordering respected by every internal one-way arc.

    Bioriented internal pairs are unconstrained.
    """

    vertices: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("witness vertices must be sorted and distinct")
        if sorted(self.order) != list(self.vertices):
            raise ValueError("order must be a permutation of the witness vertices")

    @property
    def size(self) -> int:
        return len(self.vertices)


Witness = Union[MonoCliqueWitness, TransitiveWitness]


# ---------------------------------------------------------------------------
# The reduction between the two families


def digraph_to_coloring(digraph: SemicompleteDigraph) -> BicoloredGraph:
    """Map a semicomplete digraph to a coloring: ascending arcs turn red,
    descending arcs blue, bioriented pairs carry both colors.

    The map preserves m, and any monochromatic clique of the output names a
    transitive vertex set of the input (red: ascending order, blue:
    descending).
    """
    return BicoloredGraph(
        digraph.n, tuple(_ARC_TO_COLOR[s] for s in digraph.states)
    )


def coloring_to_digraph(coloring: BicoloredGraph) -> SemicompleteDigraph:
    """Inverse of :func:`digraph_to_coloring`; a state-wise bijection."""
    return SemicompleteDigraph(
        coloring.n, tuple(_COLOR_TO_ARC[s] for s in coloring.states)
    )


# ---------------------------------------------------------------------------
# Text format


class InstanceFormatError(ValueError):
    """Parse failure; carries the offending line when one exists."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}" + (f" ({line!r})" if line else "")
        super().__init__(message)


class InvalidHeader(InstanceFormatError):
    pass


class MalformedLine(InstanceFormatError):
    pass


class BadState(InstanceFormatError):
    pass


class VertexOutOfRange(InstanceFormatError):
    pass


class DuplicatePair(InstanceFormatError):
    pass


class MissingPair(InstanceFormatError):
    pass


_FAMILIES = {"bichrome": BicoloredGraph, "semi": SemicompleteDigraph}
_CODE_BY_TOKEN = {
    family: {state.token: code for code, state in enumerate(cls._STATES)}
    for family, cls in _FAMILIES.items()
}


class _VertexIds(dict):
    """Vertex-id tokens: the canonical spellings of 0..n-1 map straight to
    ints; any other token goes through ``int`` and must land in range."""

    def __init__(self, n: int):
        super().__init__((str(v), v) for v in range(n))
        self.n = n

    def __missing__(self, token: str) -> int:
        v = int(token)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return v


def parse_instance(text: str) -> Instance:
    """Parse the line-based instance format; see the module docstring.

    Raises a subclass of :class:`InstanceFormatError` naming the offending
    line: :class:`MissingPair`, :class:`DuplicatePair`, :class:`BadState`,
    :class:`VertexOutOfRange`, plus :class:`InvalidHeader` and
    :class:`MalformedLine` for structural problems.

    The pairs take one lean pass, one split per line into flat lists of
    ids and state codes, and numpy places them.  A file that pass rejects
    is walked again line by line to name its first error.
    """
    lines = text.splitlines()
    start, family, n = _parse_header(lines)
    body: Iterable[str] = islice(lines, start, None)
    if "#" in text:
        body = (raw.split("#", 1)[0] for raw in body)
    codes = _place_pairs(body, n, family)
    if codes is None:
        _diagnose_pairs(lines, start, n, family)
    return _FAMILIES[family]._from_codes(n, codes)


def _parse_header(lines: list[str]) -> tuple[int, str, int]:
    """Line number of the header, its family, and n."""
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[0] not in _FAMILIES:
            raise InvalidHeader(
                "expected header 'bichrome <n>' or 'semi <n>'", line_no, raw
            )
        try:
            n = int(tokens[1])
        except ValueError:
            raise InvalidHeader("vertex count is not an integer", line_no, raw)
        if n < 1:
            raise InvalidHeader("vertex count must be at least 1", line_no, raw)
        unlisted = pair_count(n) - (len(lines) - line_no)
        if unlisted > 0:  # caught before C(n, 2) slots are allocated
            raise MissingPair(f"at least {unlisted} pairs never listed", line_no, raw)
        return line_no, tokens[0], n
    raise InvalidHeader("empty input: missing header line")


def _read_pairs(body: Iterable[str], n: int, family: str) -> "tuple[np.ndarray, ...] | None":
    """Ids and state codes of the pair lines (comments removed), or None
    when a line is malformed or names a vertex out of range.  The per-line
    lists die on return, before the pairs are placed, which keeps the
    parse's peak memory near the text's own."""
    ids = _VertexIds(n)
    code_by_token = _CODE_BY_TOKEN[family]
    us: list[int] = []
    vs: list[int] = []
    states: list[int] = []
    add_u, add_v, add_state = us.append, vs.append, states.append
    try:
        for tokens in map(str.split, body):
            if tokens:
                u, v, state = tokens
                add_u(ids[u])
                add_v(ids[v])
                add_state(code_by_token[state])
    except (ValueError, KeyError):
        return None
    return np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp), np.array(states, dtype=np.int8)


def _place_pairs(body: Iterable[str], n: int, family: str) -> "np.ndarray | None":
    """Pair codes of a valid body (comments removed), or None when any line
    is malformed or out of range, or a pair is repeated or missing."""
    pairs = _read_pairs(body, n, family)
    if pairs is None:
        return None
    u, v, code = pairs
    if len(code) != pair_count(n) or (u == v).any():
        return None
    if family == "semi":
        code[(u > v) & (code != ArcState.BIORIENTED.code)] ^= 1  # a reversed arc flips
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # pair_index(lo, hi, n) = lo (2n - 3 - lo) / 2 + hi - 1, in place
    index = 2 * n - 3 - lo
    index *= lo
    index //= 2
    index += hi
    index -= 1
    codes = np.full(len(code), -1, dtype=np.int8)
    codes[index] = code
    # C(n, 2) lines fill every slot exactly when no pair repeats
    return None if (codes < 0).any() else codes


def _diagnose_pairs(lines: list[str], start: int, n: int, family: str) -> NoReturn:
    """Raise the first error of a body :func:`_place_pairs` rejected."""
    table = _CODE_BY_TOKEN[family]
    seen = [False] * pair_count(n)
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise MalformedLine("expected 'u v STATE'", line_no, raw)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedLine("vertex ids are not integers", line_no, raw)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise VertexOutOfRange(
                f"pair ({u}, {v}) does not fit 0 <= u < v < {n}", line_no, raw
            )
        token = tokens[2]
        if token not in table:
            raise BadState(
                f"state {token!r} invalid for family {family!r}", line_no, raw
            )
        if u > v:
            u, v = v, u
        idx = pair_index(u, v, n)
        if seen[idx]:
            raise DuplicatePair(f"pair ({u}, {v}) listed twice", line_no, raw)
        seen[idx] = True
    # six are enough to print five and the ellipsis
    missing = list(islice((p for p, ok in zip(iter_pairs(n), seen) if not ok), 6))
    if missing:
        raise MissingPair(f"pairs never listed: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    raise AssertionError("the lean parse rejected a valid file")


def serialize_instance(instance: Instance) -> str:
    """Canonical text form: header, then pairs in lexicographic order, LF."""
    if isinstance(instance, BicoloredGraph):
        head = f"bichrome {instance.n}"
    elif isinstance(instance, SemicompleteDigraph):
        head = f"semi {instance.n}"
    else:
        raise TypeError(f"not an instance: {instance!r}")
    lines = [head]
    for (u, v), s in zip(iter_pairs(instance.n), instance.states):
        lines.append(f"{u} {v} {s.token}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded random instances (test and default-argument fodder)


def _rng(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_coloring(n: int, seed: "int | np.random.Generator") -> BicoloredGraph:
    """Uniform independent pair states over {R, B, RB}."""
    rng = _rng(seed)
    choices = (EdgeColor.RED, EdgeColor.BLUE, EdgeColor.RED_BLUE)
    draws = rng.integers(0, 3, size=pair_count(n))
    return BicoloredGraph(n, tuple(choices[d] for d in draws))


def random_semicomplete(n: int, seed: "int | np.random.Generator") -> SemicompleteDigraph:
    """Uniform independent pair states over {forward, backward, bioriented}."""
    rng = _rng(seed)
    choices = (ArcState.FORWARD, ArcState.BACKWARD, ArcState.BIORIENTED)
    draws = rng.integers(0, 3, size=pair_count(n))
    return SemicompleteDigraph(n, tuple(choices[d] for d in draws))


def random_tournament(n: int, seed: "int | np.random.Generator") -> SemicompleteDigraph:
    """Uniform random tournament: every pair one-way, orientation a coin flip."""
    rng = _rng(seed)
    draws = rng.integers(0, 2, size=pair_count(n))
    return SemicompleteDigraph(
        n,
        tuple(ArcState.FORWARD if d else ArcState.BACKWARD for d in draws),
    )
