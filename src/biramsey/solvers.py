"""Exact solvers and desk-scale exhaustive oracles.

* :func:`max_mono_clique` - largest clique that is monochromatic in one
  color, over both colors (bicolored pairs belong to both).
* :func:`max_transitive_set` - largest vertex set whose induced one-way
  arcs are acyclic; equivalently n minus a minimum directed feedback
  vertex set of the one-way digraph.
* :func:`brute_force_f` / :func:`brute_force_F` - the worst-case values
  f(n, m) and F(n, m): minimum over every placement of m unicolored /
  one-way pairs and every color / orientation assignment of the maximum
  substructure, at tiny n.  A numpy scan scores blocks of instances held
  as pair bitmasks, independent of the branch-and-bound searches.

All searches are deterministic; ties between optimal witnesses break to
the lexicographically smallest vertex set (and red before blue), so
outputs are reproducible across runs, platforms, and thread counts.

Both branch-and-bound searches take a private ``floor``: a maximum at or
below it reads as the floor, so a search that only has to beat a known
size, or decide whether one is reached, prunes from the start.  The clique
search also takes a ``ceiling``, a known upper bound at which it stops.
Witness extraction, one yes/no search per vertex, runs on both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterable

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
# Maximum clique core (bitset branch and bound, greedy-coloring bound)


def _degeneracy_order(n: int, adj: list[int]) -> list[int]:
    """Repeatedly remove a minimum-degree vertex, smallest id first."""
    remaining = (1 << n) - 1
    degs = [bin(adj[v] & remaining).count("1") for v in range(n)]
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if remaining >> v & 1 and (best < 0 or degs[v] < degs[best]):
                best = v
        order.append(best)
        remaining &= ~(1 << best)
        for u in range(n):
            if remaining >> u & 1 and adj[best] >> u & 1:
                degs[u] -= 1
    return order


class _CliqueSolver:
    """Max-clique searches over one adjacency relation, with a node counter.

    Vertices are relabeled internally by degeneracy order; all public masks
    and results use the original labels.
    """

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj
        order = _degeneracy_order(n, adj)
        self._to_int = [0] * n  # original -> internal
        for internal, original in enumerate(order):
            self._to_int[original] = internal
        self._adj_int = [0] * n
        for u in range(n):
            mask = 0
            a = adj[u]
            while a:
                v = (a & -a).bit_length() - 1
                a &= a - 1
                mask |= 1 << self._to_int[v]
            self._adj_int[self._to_int[u]] = mask
        self.nodes = 0

    def _translate(self, mask: int) -> int:
        out = 0
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            out |= 1 << self._to_int[v]
        return out

    def max_size(
        self, candidates: int | None = None, floor: int = 0, ceiling: int | None = None
    ) -> int:
        """Size of a maximum clique inside ``candidates`` (original labels).

        With a ``floor`` the search only decides whether some clique is
        larger: a maximum at or below ``floor`` reads as ``floor``.  A
        ``ceiling`` must be a known upper bound on the maximum; the search
        stops as soon as it finds a clique that large.
        """
        cand = self._translate(candidates) if candidates is not None else (1 << self.n) - 1
        self._best = floor
        self._ceiling = self.n if ceiling is None else ceiling
        if cand:
            self._expand(cand, 0)
        return self._best

    def _expand(self, cand: int, size: int) -> None:
        self.nodes += 1
        adj = self._adj_int
        # greedy coloring: vertices listed with nondecreasing class number
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                avail &= ~adj[v]
                avail ^= bit
                rest ^= bit
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= self._best:
                return
            v = order[i]
            nxt = cand & adj[v]
            if size + 1 > self._best:
                self._best = size + 1
            if nxt:
                self._expand(nxt, size + 1)
            if self._best >= self._ceiling:
                return
            cand ^= 1 << v

    def lex_min_maximum_clique(self, target: int) -> tuple[int, ...]:
        """Lexicographically smallest vertex set among cliques of size
        ``target``, the maximum.

        Each vertex v in ascending order is kept iff the common
        neighbourhood of the kept vertices and v, above v, holds a clique
        of the ``need`` vertices still missing.  No clique there is larger,
        so each step is a yes/no search with floor need - 1 and ceiling
        need.
        """
        chosen: list[int] = []
        common = (1 << self.n) - 1  # common neighborhood of chosen, original labels
        for v in range(self.n):
            if len(chosen) == target:
                break
            if not common >> v & 1:
                continue
            higher = ((1 << self.n) - 1) & ~((1 << (v + 1)) - 1)
            cand = common & self.adj[v] & higher
            need = target - 1 - len(chosen)
            if need == 0 or self.max_size(cand, need - 1, need) == need:
                chosen.append(v)
                common &= self.adj[v]
        return tuple(chosen)


def _color_adjacency(graph: BicoloredGraph, color: EdgeColor) -> list[int]:
    """Bitmask adjacency of the simple graph whose edges include ``color``."""
    adj = [0] * graph.n
    for (u, v), s in zip(iter_pairs(graph.n), graph.states):
        if s is color or s is EdgeColor.RED_BLUE:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def max_mono_clique(graph: BicoloredGraph, size_cap: int = CLIQUE_SIZE_CAP) -> SolveResult:
    """Largest monochromatic clique over both colors.

    Ties break to larger size, then red over blue, then the
    lexicographically smallest vertex set.

    Only the red search is a full maximisation.  Blue runs against a floor
    of red's size, since it has to beat red to win, and the witness
    extraction decides each vertex against a floor and a ceiling derived
    from the optimum.
    """
    if graph.n > size_cap:
        raise SizeLimitExceeded(f"n={graph.n} exceeds clique solver cap {size_cap}")
    red = _CliqueSolver(graph.n, _color_adjacency(graph, EdgeColor.RED))
    blue = _CliqueSolver(graph.n, _color_adjacency(graph, EdgeColor.BLUE))
    red_size = red.max_size()
    blue_size = blue.max_size(floor=red_size)
    if red_size >= blue_size:
        vertices = red.lex_min_maximum_clique(red_size)
        witness = MonoCliqueWitness(vertices, EdgeColor.RED)
        size = red_size
    else:
        vertices = blue.lex_min_maximum_clique(blue_size)
        witness = MonoCliqueWitness(vertices, EdgeColor.BLUE)
        size = blue_size
    return SolveResult(size, witness, red.nodes + blue.nodes)


# ---------------------------------------------------------------------------
# Maximum transitive set (minimum directed feedback vertex set on the
# one-way digraph; bioriented pairs are simply absent arcs)


class _AcyclicSolver:
    """Maximum induced acyclic subset of a digraph given as out-masks.

    Branch and bound: find a shortest directed cycle of the current vertex
    set and branch on deleting each of its vertices.  ``forced`` vertices
    may not be deleted (used for lexicographic witness extraction).
    Pruning uses a greedy incumbent plus a vertex-disjoint cycle packing
    (each packed cycle forces one deletion).
    """

    def __init__(self, n: int, out: list[int]):
        self.n = n
        self.out = out
        self.into = [0] * n
        for u in range(n):
            for v in _bits(out[u]):
                self.into[v] |= 1 << u
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

    def _shortest_cycle(self, mask: int) -> tuple[int, ...] | None:
        """Shortest directed cycle within ``mask``; deterministic choice."""
        packing = self._cycle_packing(mask, 1)
        return packing[0] if packing else None

    def _greedy_incumbent(self, allowed: int, forced: int) -> int:
        """A feasible acyclic superset of ``forced`` built greedily, or -1.

        Vertices of ``allowed`` join in ascending order whenever the set
        stays acyclic.  The set is acyclic before v is tried, so any new
        cycle runs through v: v joins iff nothing it reaches inside the set
        has an arc back to v.
        """
        if not _subset_is_acyclic(forced, self.out):
            return -1
        out, into = self.out, self.into
        chosen = forced
        rest = allowed & ~forced
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            back = into[v] & chosen
            reach = frontier = out[v] & chosen if back else 0
            while frontier and not reach & back:
                step = 0
                while frontier:
                    x = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    step |= out[x]
                frontier = step & chosen & ~reach
                reach |= frontier
            if not reach & back:
                chosen |= bit
        return chosen

    def max_acyclic(self, allowed: int, forced: int = 0, floor: int = -1) -> int:
        """Max size of an acyclic S with forced <= S <= allowed; -1 if none.

        With a ``floor`` the search only decides whether some S is larger:
        a maximum at or below ``floor`` reads as ``floor``.  The memo keeps
        upper bounds on each subtree's maximum, which a floor only loosens.
        """
        incumbent = self._greedy_incumbent(allowed, forced)
        if incumbent < 0:
            return -1  # the forced set itself contains a cycle
        if self._shortest_cycle(incumbent) is not None:
            raise AssertionError("acyclicity check disagrees with cycle search")
        self._best = max(incumbent.bit_count(), floor)
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
        branchable = [v for v in packing[0] if not forced >> v & 1]
        if not branchable:
            return  # a cycle lies entirely inside the forced set
        for v in sorted(branchable):
            self._search(allowed & ~(1 << v), forced)
        self._memo[key] = self._best


def _one_way_out_masks(digraph: SemicompleteDigraph) -> list[int]:
    """Bitmask of each vertex's one-way out-neighbors."""
    n = digraph.n
    us, vs = np.triu_indices(n, 1)
    arcs = np.zeros((n, n), dtype=bool)
    forward = digraph.pair_codes == ArcState.FORWARD.code
    backward = digraph.pair_codes == ArcState.BACKWARD.code
    arcs[us[forward], vs[forward]] = True
    arcs[vs[backward], us[backward]] = True
    rows = np.packbits(arcs, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _strongly_connected_components(n: int, out: list[int], mask: int) -> list[int]:
    """Tarjan SCCs of the sub-digraph on ``mask``; returns component masks."""
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    components: list[int] = []
    counter = 0

    for root in range(n):
        if not mask >> root & 1 or root in index:
            continue
        work = [(root, iter(_bits(out[root] & mask)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(_bits(out[w] & mask))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = 0
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp |= 1 << w
                    if w == v:
                        break
                components.append(comp)
    return components


def _bits(mask: int) -> Iterable[int]:
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _topological_order(vertices: tuple[int, ...], out: list[int]) -> tuple[int, ...]:
    """Deterministic topological order of the one-way arcs on ``vertices``
    (smallest vertex id first among available)."""
    vset = 0
    for v in vertices:
        vset |= 1 << v
    indeg = {v: 0 for v in vertices}
    for v in vertices:
        for w in _bits(out[v] & vset):
            indeg[w] += 1
    heap = [v for v in vertices if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in _bits(out[v] & vset):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != len(vertices):
        raise ValueError("selected vertex set is not acyclic")
    return tuple(order)


def max_transitive_set(
    digraph: SemicompleteDigraph, size_cap: int = TRANSITIVE_SIZE_CAP
) -> SolveResult:
    """Largest vertex set whose induced one-way arcs form a DAG.

    The witness carries a topological order of the chosen set (bioriented
    pairs are unconstrained and ordered by vertex id).  Ties break to the
    lexicographically smallest vertex set.

    Per strongly connected component, once its optimum is known, each
    vertex v in ascending order is kept iff an optimal acyclic set holds
    the vertices kept so far, v, and otherwise only vertices above v.  That
    search runs against a floor of optimum - 1: it only has to decide
    whether such a set exists.

    The size cap guards memory-style blowup, not runtime: the search is
    exact on an NP-hard problem.  On one core of a 2-vCPU x86 host, random
    tournaments take about 0.45 s at n = 28 and 3.7 s at n = 32, uniform
    random semicomplete digraphs about 2.4 s at n = 32, 11 s at n = 36 and
    110 s at the cap, n = 40.
    """
    if digraph.n > size_cap:
        raise SizeLimitExceeded(f"n={digraph.n} exceeds transitive solver cap {size_cap}")
    out = _one_way_out_masks(digraph)
    solver = _AcyclicSolver(digraph.n, out)
    full = (1 << digraph.n) - 1
    chosen = 0
    # cycles never cross strongly connected components, so solve per SCC
    for comp in sorted(_strongly_connected_components(digraph.n, out, full)):
        if bin(comp).count("1") == 1:
            chosen |= comp
            continue
        target = solver.max_acyclic(comp)
        picked = 0
        picked_count = 0
        for v in _bits(comp):
            if picked_count == target:
                break
            higher = comp & ~((1 << (v + 1)) - 1)
            keep = picked | (1 << v)
            if solver.max_acyclic(keep | higher, keep, floor=target - 1) >= target:
                picked = keep
                picked_count += 1
        chosen |= picked
    vertices = tuple(_bits(chosen))
    order = _topological_order(vertices, out)
    witness = TransitiveWitness(vertices, order)
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
                c = bin(mask).count("1")
                if c > best:
                    best = c
    return best


def _subset_is_acyclic(mask: int, out: list[int]) -> bool:
    # repeatedly peel vertices with no in-arcs inside the set
    remaining = mask
    while remaining:
        progress = False
        m = remaining
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            has_in = False
            others = remaining & ~bit
            o = others
            while o:
                b2 = o & -o
                u = b2.bit_length() - 1
                o ^= b2
                if out[u] >> v & 1:
                    has_in = True
                    break
            if not has_in:
                remaining ^= bit
                progress = True
        if not progress:
            return False
    return True


def max_transitive_set_by_enumeration(digraph: SemicompleteDigraph) -> int:
    """Maximum over all 2^n subsets, each checked for acyclicity."""
    out = _one_way_out_masks(digraph)
    n = digraph.n
    best = 1
    for mask in range(1, 1 << n):
        if bin(mask).count("1") > best and _subset_is_acyclic(mask, out):
            best = bin(mask).count("1")
    return best


# ---------------------------------------------------------------------------
# Exhaustive worst-case oracles
#
# A cell (n, m) is scanned in one fixed order: placements of the m unicolored
# (one-way) pairs in lexicographic order, and for each placement every
# assignment code 0 .. 2^m - 1 ascending, code bit b deciding the b-th placed
# pair (1 = red / forward, 0 = blue / backward).  Each instance is held as
# two pair bitmasks, (red, blue) or (forward, backward), and whole blocks of
# instances are scored by one numpy pass.

_ORACLE_PAIR_CAP = 15  # C(n,2) cap for exhaustive enumeration
_ORACLE_BLOCK = 1 << 16  # instances per numpy pass; keeps peak memory flat


def oracle_budget_estimate(n: int, m: int) -> int:
    """Number of instances the oracle enumerates for a cell: every placement
    of m unicolored / one-way pairs times every 2^m assignment."""
    return comb(pair_count(n), m) * (2**m)


def _check_oracle_pre(n: int, m: int, budget: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= m <= pair_count(n):
        raise ValueError(f"m={m} outside 0..C({n},2)")
    estimate = oracle_budget_estimate(n, m)
    if pair_count(n) > _ORACLE_PAIR_CAP or estimate > budget:
        raise BudgetExceeded(
            f"cell (n={n}, m={m}) needs {estimate} enumerated instances over "
            f"C({n},2)={pair_count(n)} pair slots; cap is C(n,2) <= {_ORACLE_PAIR_CAP} "
            f"and budget {budget}",
            estimate=estimate,
        )


def _block_masks(
    family: str, positions: np.ndarray, full: np.generic
) -> tuple[np.ndarray, np.ndarray]:
    """Pair bitmasks of every instance of the placements in ``positions``
    (one row of pair indices each), flattened in (placement, code) order:
    (red, blue) for colorings, (forward, backward) for digraphs."""
    bits = (1 << positions).astype(full.dtype)
    placed = np.bitwise_or.reduce(bits, axis=1, keepdims=True)
    assigned = np.zeros((len(positions), 1), dtype=full.dtype)  # placed pairs with code bit 1
    for b in range(positions.shape[1]):
        assigned = np.concatenate([assigned, assigned | bits[:, b : b + 1]], axis=1)
    if family == "coloring":
        return ((full ^ placed) | assigned).ravel(), (full ^ assigned).ravel()
    return assigned.ravel(), (placed ^ assigned).ravel()


def _mono_clique_sizes(n: int, red: np.ndarray, blue: np.ndarray, cap: int) -> np.ndarray:
    """Largest monochromatic clique of every instance, exact up to ``cap``:
    a size of ``cap`` or more reads as ``cap`` (sizes up to 2 are always
    exact).

    A vertex set S is a red clique iff red covers its pair mask P_S.  Every
    pair lies in red or blue, and cliques are hereditary, so the size is 2
    plus the number of orders k >= 3 with some monochromatic k-set.
    """
    sizes = np.full(len(red), min(n, 2), dtype=np.int8)
    covered = np.empty_like(red)
    hit = np.empty(len(red), dtype=bool)
    for k in range(3, min(n, cap) + 1):
        found = np.zeros(len(red), dtype=bool)
        for subset in combinations(range(n), k):
            mask = sum(1 << pair_index(u, v, n) for u, v in combinations(subset, 2))
            for color in (red, blue):
                np.bitwise_and(color, mask, out=covered)
                np.equal(covered, mask, out=hit)
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
    """Instance ``code`` of a placement in the oracle's enumeration."""
    kind, free, one, zero = (
        (BicoloredGraph, EdgeColor.RED_BLUE, EdgeColor.RED, EdgeColor.BLUE)
        if family == "coloring"
        else (SemicompleteDigraph, ArcState.BIORIENTED, ArcState.FORWARD, ArcState.BACKWARD)
    )
    states = [free] * pair_count(n)
    for bit, idx in enumerate(placement):
        states[idx] = one if code >> bit & 1 else zero
    return kind(n, tuple(states))


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
    full_mask = (1 << pair_count(n)) - 1
    full = np.min_scalar_type(full_mask).type(full_mask)
    per_block = max(1, _ORACLE_BLOCK >> m)
    best, best_index = n + 1, -1
    for lo in range(0, len(placements), per_block):
        first, second = _block_masks(family, positions[lo : lo + per_block], full)
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
