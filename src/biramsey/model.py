"""Edge-state data model for the two instance families.

Both families live on a complete graph with 0-based dense vertex ids, and
both store exactly one state per unordered pair {u, v}, u < v:

* ``BicoloredGraph`` - each pair is red, blue, or carries both colors.
* ``SemicompleteDigraph`` - each pair is a forward arc (u -> v), a backward
  arc (v -> u), or bioriented (both arcs).

The quantity ``m`` counts unicolored pairs (resp. one-way pairs); the
remaining pairs are bicolored (resp. bioriented).  An instance is ``n`` plus
``codes``, one byte per pair in :func:`pair_index` order: the state's place
in its enum (0 red or forward, 1 blue or backward, 2 both).  Instances are
immutable frozen dataclasses, safe to share between concurrent solver calls.

Text format, one instance per file, LF newlines, '#' starts a comment::

    bichrome <n>          or       semi <n>
    u v S                 one line per pair, every pair exactly once

with S in {R, B, RB} for colorings and {>, <, <>} for digraphs.  Input
line order is free; serialization is canonical (pairs in lexicographic
order) so serialized instances diff cleanly.  Parsing reads a file in the
strict grammar serialization writes (single spaces, no comments or blank
lines) in one numpy pass over its bytes; any other spelling the format
allows, and every error message, comes from one per-line routine.

Everything else is derived from the codes: ``states`` (the enum members),
``pair_codes`` (a zero-copy read-only int8 view) and the counts, ``m``
among them.  Each family names itself once, in the class constant
``FAMILY`` (its header token).  The reduction between the families only
changes the tag on the codes.  Every graph derived from an instance (color
classes, one-way arcs, obstacle graphs) is a list of per-vertex neighbour
bitmasks built from a selection of the codes by one helper,
:func:`_pair_masks`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping, Union

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


class _PairState(enum.Enum):
    """A pair state: ``token`` spells it in the text format, ``code`` is its
    byte in an instance's ``codes``."""

    @property
    def token(self) -> str:
        return self.value

    @functools.cached_property
    def code(self) -> int:
        return list(type(self)).index(self)


class EdgeColor(_PairState):
    """State of a pair in a two-coloring where both colors may coexist."""

    RED = "R"
    BLUE = "B"
    RED_BLUE = "RB"


class ArcState(_PairState):
    """Orientation of a pair {u, v}, u < v, in a semicomplete digraph."""

    FORWARD = ">"  # u -> v
    BACKWARD = "<"  # v -> u
    BIORIENTED = "<>"


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


def _pair_masks(n: int, ascending: np.ndarray, descending: np.ndarray) -> list[int]:
    """Per-vertex bitmasks of two bool pair selections in pair order.

    Bit v of ``masks[u]`` is set for each pair (u, v), u < v, selected in
    ``ascending``, and bit u of ``masks[v]`` for each one selected in
    ``descending``.  The same selection twice gives the neighbour masks of
    a simple graph; forward and backward codes give out-neighbour masks.
    """
    us, vs = np.triu_indices(n, 1)
    bits = np.zeros((n, n), dtype=bool)
    bits[us[ascending], vs[ascending]] = True
    bits[vs[descending], us[descending]] = True
    rows = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


_BOTH = 2  # the code of a pair carrying both colors / both orientations


@dataclass(frozen=True)
class _PairStates:
    """One state code per pair, shared by both families.

    ``codes`` holds byte ``pair_index(u, v, n)`` for each pair u < v: the
    state's place in ``_STATES``, the family's enum in code order (0 red /
    forward, 1 blue / backward, 2 both).  ``_REVERSED[code]`` is the code of
    the same pair read as (v, u).  ``FAMILY`` is the family's header token
    in the text format.
    """

    n: int
    codes: bytes

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("instances need at least one vertex")
        if not isinstance(self.codes, bytes):
            raise TypeError(f"pair codes must be bytes, not {type(self.codes).__name__}")
        if len(self.codes) != pair_count(self.n):
            raise ValueError(
                f"expected {pair_count(self.n)} pair codes for n={self.n}, got {len(self.codes)}"
            )
        if self.codes.translate(None, b"\0\1\2"):
            raise ValueError("pair codes must be 0, 1 or 2")

    @classmethod
    def from_map(cls, n: int, pairs: Mapping[tuple[int, int], enum.Enum]) -> "_PairStates":
        """Build from a map of pairs, either way round, to states of the
        family's enum; unlisted pairs carry both states."""
        kind = type(cls._STATES[0])
        codes = bytearray([_BOTH]) * pair_count(n)
        seen = set()
        for (u, v), state in pairs.items():
            if not isinstance(state, kind):
                raise TypeError(f"pair state {state!r} is not a {kind.__name__}")
            code = state.code
            if u > v:
                u, v, code = v, u, cls._REVERSED[code]
            idx = pair_index(u, v, n)
            if idx in seen:
                raise ValueError(f"pair ({u}, {v}) listed twice")
            seen.add(idx)
            codes[idx] = code
        return cls(n, bytes(codes))

    @property
    def pair_codes(self) -> np.ndarray:
        """Read-only int8 view of ``codes``."""
        return np.frombuffer(self.codes, dtype=np.int8)

    @property
    def states(self) -> tuple:
        """The pair states as enum members, in pair order."""
        return tuple(map(self._STATES.__getitem__, self.codes))

    def state(self, u: int, v: int) -> enum.Enum:
        """State of the pair read as (u, v)."""
        if u > v:
            return self._STATES[self._REVERSED[self.codes[pair_index(v, u, self.n)]]]
        return self._STATES[self.codes[pair_index(u, v, self.n)]]

    @property
    def m(self) -> int:
        """Pairs in exactly one state: unicolored resp. one-way."""
        return len(self.codes) - self.codes.count(_BOTH)

    def density(self) -> Fraction:
        """Exact fraction p of pairs carrying both states."""
        return Fraction(self.codes.count(_BOTH), len(self.codes)) if self.codes else Fraction(0)


class BicoloredGraph(_PairStates):
    """Complete graph whose pairs are red, blue, or both."""

    FAMILY = "bichrome"
    _STATES = tuple(EdgeColor)
    _REVERSED = (0, 1, 2)
    unicolored_count = _PairStates.m

    @property
    def bicolored_count(self) -> int:
        return self.codes.count(_BOTH)

    def has_color(self, u: int, v: int, color: EdgeColor) -> bool:
        """Whether the pair's state includes the given single color."""
        s = self.state(u, v)
        return s is color or s is EdgeColor.RED_BLUE


class SemicompleteDigraph(_PairStates):
    """Digraph where every pair carries one or both orientations."""

    FAMILY = "semi"
    _STATES = tuple(ArcState)
    _REVERSED = (1, 0, 2)
    oneway_count = _PairStates.m

    @classmethod
    def from_arcs(cls, n: int, arcs: "set[tuple[int, int]] | frozenset[tuple[int, int]]") -> "SemicompleteDigraph":
        """Build from the set of one-way arcs (tail, head); other pairs bioriented."""
        return cls.from_map(n, dict.fromkeys(arcs, ArcState.FORWARD))

    @property
    def bioriented_count(self) -> int:
        return self.codes.count(_BOTH)

    def has_arc(self, x: int, y: int) -> bool:
        """Arc x -> y present (one-way or as half of a bioriented pair)."""
        return self.state(x, y) is not ArcState.BACKWARD

    def is_tournament(self) -> bool:
        return _BOTH not in self.codes

    def one_way_arcs(self) -> Iterator[tuple[int, int]]:
        """One-way arcs as (tail, head), in pair order."""
        for (u, v), code in zip(iter_pairs(self.n), self.codes):
            if code == 0:
                yield u, v
            elif code == 1:
                yield v, u


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
    descending).  Forward, backward and bioriented share the codes of
    red, blue and both, so the pair codes carry over unchanged.
    """
    return BicoloredGraph(digraph.n, digraph.codes)


def coloring_to_digraph(coloring: BicoloredGraph) -> SemicompleteDigraph:
    """Inverse of :func:`digraph_to_coloring`; a state-wise bijection."""
    return SemicompleteDigraph(coloring.n, coloring.codes)


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


_FAMILIES = {cls.FAMILY: cls for cls in (BicoloredGraph, SemicompleteDigraph)}
# instances with more pairs (n > 5793) are refused before anything
# pair-sized is parsed or built: every step allocates per pair
_INSTANCE_PAIR_CAP = 2**24
_CODE_BY_TOKEN = {
    family: {state.token: code for code, state in enumerate(cls._STATES)}
    for family, cls in _FAMILIES.items()
}


def parse_instance(text: str) -> Instance:
    """Parse the line-based instance format; see the module docstring.

    Raises a subclass of :class:`InstanceFormatError` naming the offending
    line: :class:`MissingPair`, :class:`DuplicatePair`, :class:`BadState`,
    :class:`VertexOutOfRange`, plus :class:`InvalidHeader` and
    :class:`MalformedLine` for structural problems, such as a header n with
    more than 2^24 pairs (n > 5793), refused before anything pair-sized.

    A file in the strict grammar that serialization writes (ASCII, header on
    line 1, no comments, each pair line exactly ``u SP v SP S LF``, the last
    LF optional) is read in one numpy pass over its bytes.  Every other file,
    and every file that pass rejects, is read one line at a time, which
    accepts every spelling the format allows and names the first error.
    """
    parsed = _parse_strict(text)
    if parsed is None:
        lines = text.splitlines()
        start, family, n = _parse_header(lines)
        codes = _parse_lines(lines, start, n, family)
    else:
        family, n, codes = parsed
    return _FAMILIES[family](n, codes)


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
        _check_vertex_count(n, line_no, raw)
        unlisted = pair_count(n) - (len(lines) - line_no)
        if unlisted > 0:  # caught before C(n, 2) slots are allocated
            raise MissingPair(f"at least {unlisted} pairs never listed", line_no, raw)
        return line_no, tokens[0], n
    raise InvalidHeader("empty input: missing header line")


def _check_vertex_count(n: int, line_no: int, raw: str) -> None:
    """Refuse a header's n below 1 or over the instance size cap."""
    if n < 1:
        raise InvalidHeader("vertex count must be at least 1", line_no, raw)
    if pair_count(n) > _INSTANCE_PAIR_CAP:  # C(n, 2) may be too long to print
        raise InvalidHeader(
            f"vertex count is over the cap C(n,2) <= {_INSTANCE_PAIR_CAP}", line_no, raw
        )


def _code_by_key(family: str) -> np.ndarray:
    """State code of each 2-byte key, -1 where the key spells no token.

    A token's key is its first two bytes read as a little-endian word; the
    second byte of a 1-byte token is the LF that ends its line."""
    table = np.full(1 << 16, -1, dtype=np.int8)
    for token, code in _CODE_BY_TOKEN[family].items():
        table[int.from_bytes((token + "\n").encode()[:2], "little")] = code
    return table


_CODE_BY_KEY = {family: _code_by_key(family) for family in _FAMILIES}
_MAX_ID_DIGITS = 9  # below 2^31, so an id never wraps in int32


def _parse_strict(text: str) -> "tuple[str, int, bytes] | None":
    """Family, n and pair codes of a valid file in the strict grammar, or
    None for any other file; a header's n out of range raises at once, as
    on the per-line route.

    The body's spaces and LFs are located with numpy, 3 per line; the state
    token after the second space is read as a 2-byte key, every other body
    byte must be a digit, and each id, at most ``_MAX_ID_DIGITS`` digits,
    is built digit by digit and must be below n.  Nothing C(n, 2)-sized is
    allocated before the lines are counted, positions and ids are int32
    while the text is under 2 GiB, and each mask and position array is
    dropped once read, so the peak stays a few times the text's own size.
    """
    if not text.isascii() or "#" in text:
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    start = data.index(b"\n") + 1
    header = data[: start - 1].decode()
    family, *count = header.split(" ")
    if family not in _FAMILIES or len(count) != 1 or not count[0].isdigit():
        return None
    try:
        n = int(count[0])
    except ValueError:  # more digits than int() takes
        return None
    _check_vertex_count(n, 1, header)
    pairs = pair_count(n)
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    if np.count_nonzero(body == ord("\n")) != pairs:
        return None
    if not pairs:
        return family, n, b""
    # spaces and LFs, in this order on every line, and no other byte below '!'
    if np.count_nonzero(body == ord(" ")) != 2 * pairs:
        return None
    nondigits = len(body) - np.count_nonzero(body - np.uint8(ord("0")) < 10)
    seps = np.flatnonzero(body <= ord(" "))
    if len(seps) != 3 * pairs:
        return None
    position = np.int32 if len(data) <= np.iinfo(np.int32).max else np.intp
    seps = seps.astype(position).reshape(pairs, 3)
    if (body.take(seps[:, 2]) != ord("\n")).any():
        return None
    # bytes between separators: every one a digit but the 1 or 2 token bytes
    width = seps[:, 2] - seps[:, 1] - 1
    if width.min() < 1 or width.max() > 2 or nondigits != 3 * pairs + int(width.sum()):
        return None
    del width
    key = body.take(seps[:, 1] + 2).astype(np.uint16)
    key <<= 8
    key |= body.take(seps[:, 1] + 1)
    code = _CODE_BY_KEY[family].take(key)
    del key
    if (code < 0).any():
        return None
    # u runs from the byte after the previous line's LF (at -1 for the
    # first line) to the first space; one buffer holds both widths
    width = np.empty(pairs, dtype=position)
    width[0] = -1
    width[1:] = seps[:-1, 2]
    np.subtract(seps[:, 0], width, out=width)
    width -= 1
    u = _read_ids(body, seps[:, 0], width, n)
    if u is None:
        return None
    np.subtract(seps[:, 1], seps[:, 0], out=width)
    width -= 1
    v = _read_ids(body, seps[:, 1], width, n)
    del seps, width
    if v is None:
        return None
    codes = _place_pairs(u, v, code, n, family)
    return None if codes is None else (family, n, codes.tobytes())


def _read_ids(body: np.ndarray, stops: np.ndarray, width: np.ndarray, n: int) -> "np.ndarray | None":
    """The ids spelled by the digits ``body[stops[i] - width[i]:stops[i]]``,
    or None when one is empty, longer than ``_MAX_ID_DIGITS`` or not below n."""
    longest = int(width.max())
    if width.min() < 1 or longest > _MAX_ID_DIGITS:
        return None
    at = stops - 1
    ids = body.take(at).astype(stops.dtype)
    ids -= ord("0")
    digit = np.empty_like(ids)
    for k in range(1, longest):  # the digit k places left of the last
        at -= 1
        digit[:] = body.take(at)
        digit -= ord("0")
        digit *= 10**k
        digit *= width > k  # a shorter id has no digit here
        ids += digit
    return None if int(ids.max()) >= n else ids


def _place_pairs(u: np.ndarray, v: np.ndarray, code: np.ndarray, n: int, family: str) -> "np.ndarray | None":
    """Pair codes of C(n, 2) pair lines read as ids ``u``, ``v`` in range
    and state codes ``code``, or None when a line names u == v, or a pair
    is repeated (and so another is missing)."""
    if (u == v).any():
        return None
    if family == "semi":
        code[(u > v) & (code != _BOTH)] ^= 1  # a reversed arc flips
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # pair_index(lo, hi, n) = lo (2n - 3 - lo) / 2 + hi - 1, in place
    index = 2 * n - 3 - lo
    index *= lo
    index //= 2
    index += hi
    index -= 1
    del lo, hi
    codes = np.full(len(code), -1, dtype=np.int8)
    codes[index] = code
    # C(n, 2) lines fill every slot exactly when no pair repeats
    return None if (codes < 0).any() else codes


_UNLISTED = 3  # a slot no pair line has filled yet


def _parse_lines(lines: list[str], start: int, n: int, family: str) -> bytes:
    """Pair codes of the body after header line ``start``, read one line at
    a time; raises the first error of an invalid body."""
    table = _CODE_BY_TOKEN[family]
    reverse = _FAMILIES[family]._REVERSED
    codes = bytearray([_UNLISTED]) * pair_count(n)
    for line_no, raw in enumerate(islice(lines, start, None), start=start + 1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
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
        code = table[token]
        if u > v:
            u, v, code = v, u, reverse[code]
        idx = u * (2 * n - 3 - u) // 2 + v - 1  # pair_index(u, v, n)
        if codes[idx] != _UNLISTED:
            raise DuplicatePair(f"pair ({u}, {v}) listed twice", line_no, raw)
        codes[idx] = code
    if _UNLISTED in codes:
        # six are enough to print five and the ellipsis
        unlisted = (p for p, code in zip(iter_pairs(n), codes) if code == _UNLISTED)
        missing = list(islice(unlisted, 6))
        raise MissingPair(f"pairs never listed: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return bytes(codes)


def serialize_instance(instance: Instance) -> str:
    """Canonical text form: header, then pairs in lexicographic order, LF.

    The text is joined from one string per row u (its pairs (u, v), v > u),
    so the peak stays near twice the text: the rows plus their join."""
    if not isinstance(instance, _PairStates):
        raise TypeError(f"not an instance: {instance!r}")
    n, codes = instance.n, instance.codes
    ends = [f" {state.token}\n" for state in instance._STATES]
    names = [str(v) for v in range(n)]
    rows = [f"{instance.FAMILY} {n}\n"]
    start = 0
    for u in range(n):
        stop = start + n - 1 - u
        head, pairs = f"{u} ", zip(names[u + 1 :], codes[start:stop])
        rows.append("".join([head + v + ends[code] for v, code in pairs]))
        start = stop
    return "".join(rows)


# ---------------------------------------------------------------------------
# Seeded random instances (test and default-argument fodder)


def random_coloring(n: int, seed: "int | np.random.Generator") -> BicoloredGraph:
    """Uniform independent pair states over {R, B, RB}."""
    draws = np.random.default_rng(seed).integers(0, 3, size=pair_count(n))
    return BicoloredGraph(n, draws.astype(np.int8).tobytes())


def random_semicomplete(n: int, seed: "int | np.random.Generator") -> SemicompleteDigraph:
    """Uniform independent pair states over {forward, backward, bioriented}."""
    return coloring_to_digraph(random_coloring(n, seed))


def random_tournament(n: int, seed: "int | np.random.Generator") -> SemicompleteDigraph:
    """Uniform random tournament: every pair one-way, orientation a coin flip
    (a draw of 1 is forward, code 0)."""
    draws = np.random.default_rng(seed).integers(0, 2, size=pair_count(n))
    return SemicompleteDigraph(n, (1 - draws).astype(np.int8).tobytes())
