"""Exact solvers and desk-scale exhaustive oracles.

* :func:`max_mono_clique` - largest clique that is monochromatic in one
  color, over both colors (bicolored pairs belong to both), by a bitset
  branch and bound on the vertex labels as given.  Besides its
  greedy-coloring bound it has one reduction: a candidate v that misses
  at most one other candidate u is taken without branching, because a
  maximum clique without v holds u, and swapping u for v keeps it a
  maximum clique.
* :func:`max_transitive_set` - largest vertex set whose induced one-way
  arcs are acyclic; equivalently n minus a minimum directed feedback
  vertex set of the one-way digraph.  Its strongly connected components
  come from mask reachability, and its witness order from Kahn's
  algorithm on the same masks.
* :func:`brute_force_f` / :func:`brute_force_F` - the worst-case values
  f(n, m) and F(n, m): minimum over every placement of m unicolored /
  one-way pairs and every color / orientation assignment of the maximum
  substructure, at tiny n.  A numpy scan, independent of the
  branch-and-bound searches, scores blocks of instances held as the pair
  bitmasks of codes 0 and 1, as are the tournaments of ``exhaustive``.

All searches are deterministic; ties between optimal witnesses break to
the lexicographically smallest vertex set (and red before blue), so
outputs are reproducible across runs and platforms.

Both branch-and-bound searches take a private ``floor``: a maximum at or
below it reads as the floor, so a search that only has to beat a known
size, or decide whether one is reached, prunes from the start.  The clique
search also takes a ``ceiling``, a known upper bound at which it stops.
Both pick their witness with one loop, :func:`_lex_min_subset`, which asks
each vertex in turn a yes/no question of the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Callable, Iterable

import numpy as np

from .model import (
    ArcState,
    BicoloredGraph,
    EdgeColor,
    Instance,
    MonoCliqueWitness,
    SemicompleteDigraph,
    TransitiveWitness,
    Witness,
    _pair_masks,
    iter_pairs,
    pair_count,
    pair_index,
    serialize_instance,
)

__all__ = [
    "SolveResult",
    "OracleTable",
    "SizeLimitExceeded",
    "BudgetExceeded",
    "KindMismatch",
    "max_mono_clique",
    "max_transitive_set",
    "verify_witness",
    "brute_force_f",
    "brute_force_F",
    "max_mono_clique_by_enumeration",
    "max_transitive_set_by_enumeration",
    "CLIQUE_SIZE_CAP",
    "TRANSITIVE_SIZE_CAP",
    "DEFAULT_ORACLE_BUDGET",
]

CLIQUE_SIZE_CAP = 64
TRANSITIVE_SIZE_CAP = 40
DEFAULT_ORACLE_BUDGET = 10**8


class SizeLimitExceeded(ValueError):
    """Instance larger than the solver's configured cap."""


class BudgetExceeded(ValueError):
    """Enumeration would exceed the configured budget; carries the estimate."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


class KindMismatch(TypeError):
    """Witness kind does not match the instance family."""


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: Witness
    nodes_explored: int


@dataclass(frozen=True)
class OracleTable:
    """One worst-case cell: the value and a serialized extremal instance."""

    n: int
    m: int
    value: int
    extremal_instance: str


# ---------------------------------------------------------------------------
# Lexicographic witness extraction, shared by both exact solvers


def _bits(mask: int) -> Iterable[int]:
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _lex_min_subset(vertices: int, target: int, extends: Callable[[int, int], bool]) -> int:
    """Lexicographically smallest ``target``-subset of ``vertices`` with a
    hereditary property that some such subset has: each v in ascending
    order is kept iff ``extends(keep, higher)`` says the kept vertices plus
    v, ``keep``, grow to one with vertices of ``higher``, those above v."""
    kept = 0
    for v in _bits(vertices):
        if kept.bit_count() == target:
            break
        if extends(kept | 1 << v, vertices & ~((2 << v) - 1)):
            kept |= 1 << v
    return kept


# ---------------------------------------------------------------------------
# Maximum clique core (bitset branch and bound, greedy-coloring bound)


class _CliqueSolver:
    """Max-clique searches over one adjacency relation, on its vertex labels
    as given, with a node counter.

    Bitset branch and bound with a greedy-coloring bound, plus one
    reduction: a candidate v that misses at most one other candidate u lies
    in some maximum clique of the candidates, so it is taken without
    branching.  (A maximum clique K without v holds u, or K + v would be
    larger, and then K - u + v is a clique of the same size.)  The test is
    made on each vertex the search is about to branch on; where it holds,
    one pass over the candidates takes every vertex that qualifies, and the
    node colors what is left.  Where no branch vertex qualifies, the
    reduction costs one test per branch.
    """

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj
        # the non-neighbours of each vertex but itself, as negative ints: an
        # AND with one drops the vertex and its neighbours
        self.non = [~(a | 1 << v) for v, a in enumerate(adj)]
        self.nodes = 0

    def max_size(
        self, candidates: int | None = None, floor: int = 0, ceiling: int | None = None
    ) -> int:
        """Size of a maximum clique inside ``candidates``.

        With a ``floor`` the search only decides whether some clique is
        larger: a maximum at or below ``floor`` reads as ``floor``.  A
        ``ceiling`` must be a known upper bound on the maximum; the search
        stops as soon as it finds a clique that large.
        """
        cand = (1 << self.n) - 1 if candidates is None else candidates
        self._best = floor
        self._ceiling = self.n if ceiling is None else ceiling
        if cand:
            self._expand(cand, 0)
        return self._best

    def _expand(self, cand: int, size: int) -> None:
        self.nodes += 1
        adj, non = self.adj, self.non
        while True:
            # greedy coloring: vertices listed with nondecreasing class
            # number; a class no larger than _best - size is never branched
            # on (_best only grows), so its vertices are not listed
            order: list[int] = []
            bounds: list[int] = []
            color = 0
            rest = cand
            while rest:
                color += 1
                listed = size + color > self._best
                avail = rest
                while avail:
                    bit = avail & -avail
                    v = bit.bit_length() - 1
                    avail &= non[v]
                    rest ^= bit
                    if listed:
                        order.append(v)
                        bounds.append(color)
            for i in range(len(order) - 1, -1, -1):
                if size + bounds[i] <= self._best:
                    return
                v = order[i]
                missed = cand & non[v]
                if not missed & (missed - 1):
                    cand, size = self._take_forced(cand, size)
                    if size > self._best:
                        self._best = size
                    if not cand or self._best >= self._ceiling:
                        return
                    break  # color what is left
                nxt = cand & adj[v]
                if size + 1 > self._best:
                    self._best = size + 1
                if nxt:
                    self._expand(nxt, size + 1)
                if self._best >= self._ceiling:
                    return
                cand ^= 1 << v
            else:
                return

    def _take_forced(self, cand: int, size: int) -> tuple[int, int]:
        """One ascending pass over ``cand`` that takes each vertex missing at
        most one other candidate; each is tested on the candidates left
        after the takes before it."""
        adj, non = self.adj, self.non
        rest = cand
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            missed = cand & non[v]
            if not missed & (missed - 1):
                size += 1
                cand &= adj[v]
                rest &= cand
        return cand, size


def _color_adjacency(graph: BicoloredGraph, color: EdgeColor) -> list[int]:
    """Bitmask adjacency of the simple graph whose edges include ``color``."""
    codes = graph.pair_codes
    edges = (codes == color.code) | (codes == EdgeColor.RED_BLUE.code)
    return _pair_masks(graph.n, edges, edges)


def max_mono_clique(graph: BicoloredGraph) -> SolveResult:
    """Largest monochromatic clique over both colors.

    Ties break to larger size, then red over blue, then the
    lexicographically smallest vertex set.  Only the red search is a full
    maximisation: blue runs against a floor of red's size, which it has to
    beat to win.
    """
    if graph.n > CLIQUE_SIZE_CAP:
        raise SizeLimitExceeded(f"n={graph.n} exceeds clique solver cap {CLIQUE_SIZE_CAP}")
    red = _CliqueSolver(graph.n, _color_adjacency(graph, EdgeColor.RED))
    blue = _CliqueSolver(graph.n, _color_adjacency(graph, EdgeColor.BLUE))
    red_size = red.max_size()
    blue_size = blue.max_size(floor=red_size)
    solver, color = (red, EdgeColor.RED) if red_size >= blue_size else (blue, EdgeColor.BLUE)
    size = max(red_size, blue_size)

    def extends(keep: int, higher: int) -> bool:
        # keep is a clique but for its top vertex v, just added; no clique is
        # larger than size, so the search for the need vertices missing is a
        # yes/no one with floor need - 1 and ceiling need
        v = keep.bit_length() - 1
        if keep & ~solver.adj[v] != 1 << v:
            return False
        common = higher
        for u in _bits(keep):
            common &= solver.adj[u]
        need = size - keep.bit_count()
        return need == 0 or solver.max_size(common, need - 1, need) == need

    kept = _lex_min_subset((1 << graph.n) - 1, size, extends)
    return SolveResult(size, MonoCliqueWitness(tuple(_bits(kept)), color), red.nodes + blue.nodes)


# ---------------------------------------------------------------------------
# Maximum transitive set (minimum directed feedback vertex set on the
# one-way digraph; bioriented pairs are simply absent arcs)


class _AcyclicSolver:
    """Maximum induced acyclic subset of a digraph given as out-masks.

    Branch and bound over (allowed, forced) pairs: ``forced`` vertices may
    not be deleted.  The search starts from its floor and prunes by a
    vertex-disjoint cycle packing (each packed cycle forces one deletion).
    A node branches on the packed cycle with the fewest free (unforced)
    vertices, and its children are disjoint: the i-th deletes the i-th free
    vertex and forces the ones before it, so no acyclic set is searched
    twice, and a cycle with one free vertex is a forced deletion.  A cycle
    with no free vertex ends the branch, so a cyclic ``forced`` set finds
    nothing.  The in-masks come from :func:`_transpose`, the mask helper
    that also serves the strongly connected components (with
    :func:`_reach`) and the topological order around the search.
    """

    def __init__(self, n: int, out: list[int]):
        self.n = n
        self.out = out
        self.into = _transpose(out, (1 << n) - 1)
        self.nodes = 0
        self._memo: dict[tuple[int, int], int] = {}

    def _core(self, mask: int) -> int:
        """What is left of ``mask`` after repeatedly deleting vertices with no
        in-arc or no out-arc inside it; every cycle lies in the core."""
        out, into = self.out, self.into
        while True:
            core = mask
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if not into[v] & core or not out[v] & core:
                    core ^= bit
            if core == mask:
                return core
            mask = core

    def _longer_cycle(self, mask: int) -> tuple[int, ...] | None:
        """Shortest directed cycle within a triangle-free ``mask``.

        Breadth-first search from every vertex, smallest first, with depth
        capped by the best cycle found so far; a vertex's tree parent is the
        first frontier vertex (in discovery order) with an arc to it, and the
        cycle closes at the first frontier vertex with an arc back to the
        start.  Without triangles no cycle is shorter than 4, so the first
        4-cycle ends the search.

        The search runs inside :meth:`_core`, which returns the same cycle:
        from a start s, only the vertices that s reaches and that reach s
        back (its strongly connected component) can close the cycle or be
        tree parents on the way, their order of discovery depends on no
        other vertex, and the core keeps all of them.
        """
        out, into = self.out, self.into
        mask = self._core(mask)
        best: tuple[int, ...] | None = None
        limit = mask.bit_count() + 1
        starts = mask
        while starts:
            s = (starts & -starts).bit_length() - 1
            starts &= starts - 1
            back = into[s] & mask
            parent = {}
            seen = reached = 1 << s
            frontier = [s]
            depth = 1  # length of the cycles the current frontier can close
            while True:
                if reached & back:
                    cycle = [next(x for x in frontier if back >> x & 1)]
                    while cycle[-1] != s:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()  # starts at s, follows arcs
                    best = tuple(cycle)
                    if len(best) == 4:
                        return best
                    limit = len(best)
                    break
                depth += 1
                if depth >= limit:
                    break
                nxt: list[int] = []
                reached = 0
                for x in frontier:
                    new = out[x] & mask & ~seen
                    seen |= new
                    reached |= new
                    while new:
                        y = (new & -new).bit_length() - 1
                        new &= new - 1
                        parent[y] = x
                        nxt.append(y)
                if not nxt:
                    break
                frontier = nxt
        return best

    def max_acyclic(self, allowed: int, forced: int = 0, floor: int = -1) -> int:
        """Max size of an acyclic S with forced <= S <= allowed; -1 if none.

        With a ``floor`` the search only decides whether some S is larger:
        a maximum at or below ``floor`` reads as ``floor``, and so does a
        ``forced`` set that holds a cycle.  The memo keeps upper bounds on
        each subtree's maximum, which a floor only loosens.
        """
        self._best = floor
        self._search(allowed, forced)
        return self._best

    def _cycle_packing(self, allowed: int, enough: int) -> list[tuple[int, ...]]:
        """Vertex-disjoint directed cycles, greedily shortest-first, stopping
        at ``enough`` cycles.

        Each cycle is a shortest one of what is left, the first a
        breadth-first search from each vertex, smallest first, meets.  One-way
        digraphs carry at most one arc per pair, so the shortest possible
        cycle is a triangle, read off the masks: from s the search reaches
        the out-neighbours x of s in ascending order, then theirs, and the
        first y with an arc back to s closes (s, x, y).  A vertex on no
        triangle stays on none as the mask shrinks, so the triangle scan
        resumes after the start of the last triangle; once no triangle is
        left, :meth:`_longer_cycle` searches for the rest.
        """
        out, into = self.out, self.into
        packing: list[tuple[int, ...]] = []
        mask = starts = allowed
        while len(packing) < enough:
            cycle = None
            while starts and cycle is None:
                bit = starts & -starts
                starts ^= bit
                s = bit.bit_length() - 1
                back = into[s] & mask
                ahead = out[s] & mask if back else 0
                while ahead:
                    x = (ahead & -ahead).bit_length() - 1
                    ahead &= ahead - 1
                    closing = out[x] & back
                    if closing:
                        cycle = (s, x, (closing & -closing).bit_length() - 1)
                        break
            if cycle is None:
                cycle = self._longer_cycle(mask)
                if cycle is None:
                    break
            packing.append(cycle)
            for v in cycle:
                mask &= ~(1 << v)
            starts &= mask
        return packing

    def _search(self, allowed: int, forced: int) -> None:
        self.nodes += 1
        size = allowed.bit_count()
        if size <= self._best:
            return
        key = (allowed, forced)
        cached = self._memo.get(key)
        if cached is not None and cached <= self._best:
            return
        # every packed cycle costs at least one deletion, so size - best
        # cycles are enough to prune
        packing = self._cycle_packing(allowed, size - self._best)
        if not packing:
            self._best = size
            self._memo[key] = size
            return
        if size - len(packing) <= self._best:
            self._memo[key] = max(self._memo.get(key, -1), size - len(packing))
            return
        # the packed cycle with the fewest free (unforced) vertices
        branchable = min(
            ([v for v in cycle if not forced >> v & 1] for cycle in packing), key=len
        )
        if not branchable:
            return  # a cycle lies entirely inside the forced set
        # disjoint children: each S misses some free vertex of the cycle, and
        # the first one it misses is the one child that holds S
        for v in sorted(branchable):
            self._search(allowed & ~(1 << v), forced)
            forced |= 1 << v
        self._memo[key] = self._best


def _one_way_out_masks(digraph: SemicompleteDigraph) -> list[int]:
    """Bitmask of each vertex's one-way out-neighbors."""
    codes = digraph.pair_codes
    return _pair_masks(
        digraph.n, codes == ArcState.FORWARD.code, codes == ArcState.BACKWARD.code
    )


def _transpose(out: list[int], mask: int) -> list[int]:
    """In-masks of the arcs inside ``mask``."""
    into = [0] * len(out)
    for u in _bits(mask):
        for v in _bits(out[u] & mask):
            into[v] |= 1 << u
    return into


def _reach(out: list[int], seen: int, mask: int) -> int:
    """``seen`` plus every vertex reachable from it along arcs inside ``mask``."""
    frontier = seen
    while frontier:
        step = 0
        for v in _bits(frontier):
            step |= out[v]
        frontier = step & mask & ~seen
        seen |= frontier
    return seen


def _strongly_connected_components(out: list[int], mask: int) -> list[int]:
    """Component masks of the sub-digraph on ``mask``, forward-backward: the
    lowest vertex left reaches, and is reached from, exactly its component."""
    into = _transpose(out, mask)
    components = []
    while mask:
        low = mask & -mask
        comp = _reach(out, low, mask) & _reach(into, low, mask)
        components.append(comp)
        mask ^= comp
    return components


def _topological_order(vertices: tuple[int, ...], out: list[int]) -> tuple[int, ...]:
    """Deterministic topological order of the one-way arcs on ``vertices``
    (smallest vertex id first among available)."""
    vset = sum(1 << v for v in vertices)
    into = _transpose(out, vset)
    ready = sum(1 << v for v in vertices if not into[v])
    placed = 0
    order = []
    while ready:
        bit = ready & -ready
        ready ^= bit
        placed |= bit
        v = bit.bit_length() - 1
        order.append(v)
        for w in _bits(out[v] & vset):
            if not into[w] & ~placed:
                ready |= 1 << w
    if len(order) != len(vertices):
        raise ValueError("selected vertex set is not acyclic")
    return tuple(order)


def max_transitive_set(digraph: SemicompleteDigraph) -> SolveResult:
    """Largest vertex set whose induced one-way arcs form a DAG.

    The witness carries a topological order of the chosen set (bioriented
    pairs are unconstrained and ordered by vertex id).  Ties break to the
    lexicographically smallest vertex set.

    Per strongly connected component, each witness decision is a search
    against a floor of optimum - 1: it only asks whether an optimal acyclic
    set holds the kept vertices and otherwise only higher ones.

    The size cap guards memory-style blowup, not runtime: the search is
    exact on an NP-hard problem.  On one core of a 2-vCPU x86 host (seeds
    1-3), random tournaments take about 0.06 s at n = 28 and 0.2 s at
    n = 32, uniform random semicomplete digraphs 0.15-0.3 s at n = 32,
    0.6-1.0 s at n = 36 and 1.7-2.3 s at the cap, n = 40.
    """
    if digraph.n > TRANSITIVE_SIZE_CAP:
        raise SizeLimitExceeded(f"n={digraph.n} exceeds transitive solver cap {TRANSITIVE_SIZE_CAP}")
    out = _one_way_out_masks(digraph)
    solver = _AcyclicSolver(digraph.n, out)
    chosen = 0
    # cycles never cross strongly connected components, so solve per SCC
    for comp in sorted(_strongly_connected_components(out, (1 << digraph.n) - 1)):
        if comp & (comp - 1) == 0:
            chosen |= comp
            continue
        target = solver.max_acyclic(comp)
        chosen |= _lex_min_subset(
            comp,
            target,
            lambda keep, higher: solver.max_acyclic(keep | higher, keep, target - 1) >= target,
        )
    vertices = tuple(_bits(chosen))
    witness = TransitiveWitness(vertices, _topological_order(vertices, out))
    return SolveResult(len(vertices), witness, solver.nodes)


# ---------------------------------------------------------------------------
# Witness checking (pure, no solver state)


def verify_witness(instance: Instance, witness: Witness) -> bool:
    """True iff the witness satisfies its kind's invariant on the instance.

    Raises :class:`KindMismatch` when a clique witness is checked against a
    digraph or a transitive witness against a coloring.
    """
    if isinstance(witness, MonoCliqueWitness):
        if not isinstance(instance, BicoloredGraph):
            raise KindMismatch("clique witness on a non-coloring instance")
        if witness.vertices and witness.vertices[-1] >= instance.n:
            raise ValueError("witness vertex out of range")
        return all(
            instance.has_color(u, v, witness.color)
            for u, v in combinations(witness.vertices, 2)
        )
    if isinstance(witness, TransitiveWitness):
        if not isinstance(instance, SemicompleteDigraph):
            raise KindMismatch("transitive witness on a non-digraph instance")
        if witness.vertices and witness.vertices[-1] >= instance.n:
            raise ValueError("witness vertex out of range")
        position = {v: i for i, v in enumerate(witness.order)}
        for u, v in combinations(witness.vertices, 2):
            s = instance.state(u, v)
            if s is ArcState.BIORIENTED:
                continue
            tail, head = (u, v) if s is ArcState.FORWARD else (v, u)
            if position[tail] > position[head]:
                return False
        return True
    raise KindMismatch(f"unknown witness type {type(witness).__name__}")


# ---------------------------------------------------------------------------
# Reference subset-enumeration oracles (independent of the branch-and-bound
# paths; used to cross-check the solvers at small n)


def max_mono_clique_by_enumeration(graph: BicoloredGraph) -> int:
    """Maximum over all 2^n subsets; O(2^n) dynamic program per color."""
    n = graph.n
    best = 1
    for color in (EdgeColor.RED, EdgeColor.BLUE):
        adj = _color_adjacency(graph, color)
        ok = bytearray(1 << n)
        ok[0] = 1
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            if ok[rest] and rest & adj[low] == rest:
                ok[mask] = 1
                best = max(best, mask.bit_count())
    return best


def _subset_is_acyclic(mask: int, out: list[int]) -> bool:
    """True iff the arcs inside ``mask`` form no cycle: repeatedly peel the
    sinks, vertices with no out-arc inside what is left."""
    while mask:
        rest = mask
        for v in _bits(mask):
            if not out[v] & rest:
                rest ^= 1 << v
        if rest == mask:
            return False
        mask = rest
    return True


def max_transitive_set_by_enumeration(digraph: SemicompleteDigraph) -> int:
    """Maximum over all 2^n subsets, each checked for acyclicity."""
    out = _one_way_out_masks(digraph)
    n = digraph.n
    best = 1
    for mask in range(1, 1 << n):
        if mask.bit_count() > best and _subset_is_acyclic(mask, out):
            best = mask.bit_count()
    return best


# ---------------------------------------------------------------------------
# Exhaustive worst-case oracles
#
# A cell (n, m) is scanned in one fixed order: placements of the m unicolored
# (one-way) pairs in lexicographic order, and for each placement every
# assignment code 0 .. 2^m - 1 ascending, code bit b deciding the b-th placed
# pair (1 = red / forward, 0 = blue / backward).  In both families an
# instance is held as the pair bitmasks of ``model``'s codes 0 (red / forward)
# and 1 (blue / backward), and whole blocks are scored by one numpy pass.

_ORACLE_PAIR_CAP = 15  # C(n,2) cap for exhaustive enumeration
_ORACLE_BLOCK = 1 << 16  # instances per numpy pass; keeps peak memory flat


def oracle_budget_estimate(n: int, m: int) -> int:
    """Number of instances the oracle enumerates for a cell: every placement
    of m unicolored / one-way pairs times every 2^m assignment."""
    return comb(pair_count(n), m) * (2**m)


def _check_oracle_pre(n: int, m: int, budget: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = pair_count(n)
    if not 0 <= m <= pairs:
        raise ValueError(f"m={m} outside 0..C({n},2)")
    # the cap comes first: a large cell's instance count is a huge integer,
    # slow to compute and too long to print; 2^min(m, 64) bounds it below
    if pairs > _ORACLE_PAIR_CAP:
        raise BudgetExceeded(
            f"cell (n={n}, m={m}) has C({n},2)={pairs} pair slots; "
            f"cap is C(n,2) <= {_ORACLE_PAIR_CAP}",
            estimate=1 << min(m, 64),
        )
    estimate = oracle_budget_estimate(n, m)
    if estimate > budget:
        raise BudgetExceeded(
            f"cell (n={n}, m={m}) needs {estimate} enumerated instances; budget is {budget}",
            estimate=estimate,
        )


def _block_masks(positions: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Pair bitmasks of code 0 (red / forward) and code 1 (blue / backward)
    of every instance of the placements in ``positions`` (one row of pair
    indices each), flattened in (placement, code) order."""
    bits = (1 << positions).astype(dtype)
    placed = np.bitwise_or.reduce(bits, axis=1, keepdims=True)
    assigned = np.zeros((len(positions), 1), dtype=dtype)  # placed pairs with code bit 1
    for b in range(positions.shape[1]):
        assigned = np.concatenate([assigned, assigned | bits[:, b : b + 1]], axis=1)
    return assigned.ravel(), (placed ^ assigned).ravel()


def _mono_clique_sizes(n: int, red: np.ndarray, blue: np.ndarray, cap: int) -> np.ndarray:
    """Largest monochromatic clique of every instance, exact up to ``cap``:
    a size of ``cap`` or more reads as ``cap`` (sizes up to 2 are always
    exact).

    A vertex set S is a red (blue) clique iff its pair mask P_S misses
    ``blue`` (``red``), the pairs of that color only.  Every pair carries
    red or blue, and cliques are hereditary, so the size is 2 plus the
    number of orders k >= 3 with some monochromatic k-set.
    """
    sizes = np.full(len(red), min(n, 2), dtype=np.int8)
    inside = np.empty_like(red)
    hit = np.empty(len(red), dtype=bool)
    for k in range(3, min(n, cap) + 1):
        found = np.zeros(len(red), dtype=bool)
        for subset in combinations(range(n), k):
            mask = sum(1 << pair_index(u, v, n) for u, v in combinations(subset, 2))
            for color in (red, blue):
                np.bitwise_and(color, mask, out=inside)
                np.equal(inside, 0, out=hit)
                found |= hit
        if not found.any():
            break
        sizes += found
    return sizes


def _transitive_sizes(n: int, forward: np.ndarray, backward: np.ndarray, cap: int) -> np.ndarray:
    """Largest transitive vertex set of every instance, exact up to ``cap``:
    a size of ``cap`` or more reads as ``cap`` (sizes up to 2 are always
    exact).

    Subset dynamic program: S is acyclic iff some v in S is a source of S
    (no one-way arc from S \\ v into v) and S \\ v is acyclic.  A one-way
    digraph has at most one arc per pair, so every set of at most 2 vertices
    is acyclic; acyclicity is hereditary, so the size is 2 plus the number
    of orders k >= 3 with an acyclic k-set.
    """
    vertex_dtype = np.min_scalar_type((1 << n) - 1)
    into = [np.zeros(len(forward), dtype=vertex_dtype) for _ in range(n)]
    arc = np.empty_like(forward)
    for p, (u, v) in enumerate(iter_pairs(n)):
        for mask, tail, head in ((forward, u, v), (backward, v, u)):
            np.right_shift(mask, p, out=arc)
            arc &= 1
            arc <<= tail
            into[head] |= arc
    sizes = np.full(len(forward), min(n, 2), dtype=np.int8)
    every = np.ones(len(forward), dtype=bool)
    acyclic = {(1 << u) | (1 << v): every for u, v in iter_pairs(n)}
    arcs_in = np.empty(len(forward), dtype=vertex_dtype)
    source = np.empty(len(forward), dtype=bool)
    for k in range(3, min(n, cap) + 1):
        level = {}
        found = np.zeros(len(forward), dtype=bool)
        for subset in combinations(range(n), k):
            s = sum(1 << v for v in subset)
            ok = np.zeros(len(forward), dtype=bool)
            for v in subset:
                rest = s ^ (1 << v)
                np.bitwise_and(into[v], rest, out=arcs_in)
                np.equal(arcs_in, 0, out=source)
                source &= acyclic[rest]
                ok |= source
            level[s] = ok
            found |= ok
        if not found.any():
            break
        sizes += found
        acyclic = level
    return sizes


_SCORERS = {"coloring": _mono_clique_sizes, "digraph": _transitive_sizes}


def _cell_instance(n: int, family: str, placement: tuple[int, ...], code: int) -> Instance:
    """Instance ``code`` of a placement in the oracle's enumeration; a set
    code bit places pair code 0 (red / forward), a clear one code 1."""
    codes = np.full(pair_count(n), EdgeColor.RED_BLUE.code, dtype=np.int8)
    codes[list(placement)] = [1 - (code >> bit & 1) for bit in range(len(placement))]
    kind = BicoloredGraph if family == "coloring" else SemicompleteDigraph
    return kind(n, codes.tobytes())


def oracle_cell_slice(
    n: int, m: int, family: str, start: int, stop: int
) -> tuple[int, int, str]:
    """Scan placements [start, stop) of cell (n, m) for ``family``
    ("coloring" or "digraph").

    Returns (value, global attainer index, serialized instance): the
    smallest maximum substructure over the slice and the first instance in
    (placement, code) order attaining it, indexed over the whole cell as
    placement * 2^m + code.
    """
    if family not in _SCORERS:
        raise ValueError(f"unknown family {family!r}")
    placements = list(islice(combinations(range(pair_count(n)), m), start, stop))
    if not placements:
        raise ValueError(f"placement slice [{start}, {stop}) of cell (n={n}, m={m}) is empty")
    positions = np.array(placements, dtype=np.int64).reshape(len(placements), m)
    dtype = np.min_scalar_type((1 << pair_count(n)) - 1)
    per_block = max(1, _ORACLE_BLOCK >> m)
    best, best_index = n + 1, -1
    for lo in range(0, len(placements), per_block):
        first, second = _block_masks(positions[lo : lo + per_block], dtype)
        sizes = _SCORERS[family](n, first, second, best)
        i = int(sizes.argmin())
        if sizes[i] < best:
            best, best_index = int(sizes[i]), (lo << m) + i
    row, code = divmod(best_index, 1 << m)
    instance = _cell_instance(n, family, placements[row], code)
    return best, ((start + row) << m) + code, serialize_instance(instance)


def _brute_force(n: int, m: int, family: str, budget: int) -> OracleTable:
    _check_oracle_pre(n, m, budget)
    value, _, text = oracle_cell_slice(n, m, family, 0, comb(pair_count(n), m))
    return OracleTable(n, m, value, text)


def brute_force_f(n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleTable:
    """Exhaustive worst-case monochromatic-clique value f(n, m)."""
    return _brute_force(n, m, "coloring", budget)


def brute_force_F(n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleTable:
    """Exhaustive worst-case transitive-subtournament value F(n, m)."""
    return _brute_force(n, m, "digraph", budget)
