"""Exact solvers and desk-scale exhaustive oracles.

* :func:`max_mono_clique` - largest clique that is monochromatic in one
  color, over both colors (bicolored pairs belong to both), by a bitset
  branch and bound.  Besides its greedy-coloring bound it has one
  reduction: a candidate v that misses at most one other candidate u is
  taken without branching, because a maximum clique without v holds u,
  and swapping u for v keeps it a maximum clique.
* :func:`max_transitive_set` - largest vertex set whose induced one-way
  arcs are acyclic; equivalently n minus a minimum directed feedback
  vertex set of the one-way digraph.  Its strongly connected components
  come from mask reachability, and its witness order from Kahn's
  algorithm on the input's masks.
* :func:`brute_force_f` / :func:`brute_force_F` - the worst-case values
  f(n, m) and F(n, m): minimum over every placement of m unicolored /
  one-way pairs and every color / orientation assignment of the maximum
  substructure, at tiny n.  One bit-plane kernel, independent of the
  branch-and-bound searches, scores blocks of instances for both families
  and the tournaments of ``exhaustive``: a clique is an acyclic set once
  each pair of the other color only carries arcs both ways.  It scores
  one instance per complement pair (colors swapped, or arcs reversed).

Both searches relabel the vertices by one rule, :func:`_search_labels`:
nonincreasing out-degree x in-degree.  On a simple graph that is degree
squared, Tomita & Seki's degree order (DMTCS 2003): the greedy coloring
puts high-degree vertices first, so the clique search branches first on
the small candidate sets of the low-degree ones, then drops them.  On a
digraph it counts the two-arc paths through a vertex, a bound on its
triangles, so the cycle packing, lowest labels first, meets those first;
plain degree is n - 1 on every vertex of a tournament.

All searches are deterministic; ties between optimal witnesses break to
the lexicographically smallest vertex set of the input labels (and red
before blue), so outputs are reproducible across runs and platforms.  The
vertex order only changes how fast a search runs: each entry point packs
its masks on the search's labels, decides its witness there, and maps
only the finished witness back to the input labels.

Both branch-and-bound searches answer one question, ``max_size(allowed,
forced, floor, ceiling)``: the size of a largest set S with forced <= S <=
allowed.  A maximum at or below ``floor`` reads as the floor, so a search
that only has to beat a known size, or decide whether one is reached,
prunes from the start; at ``ceiling``, a known upper bound, it stops.  Each
keeps in ``found`` the set that last raised its best size, and neither
keeps a memo, so their memory does not grow with the nodes they visit.
Both pick their witness with one loop, :func:`_lex_min_subset`, which asks
each vertex in turn, in input-label order, whether a maximum holds it, and
answers from the maxima found so far where it can.  :func:`optimum` runs
the searches alone, for callers that read only the size.
"""

from __future__ import annotations

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
    _pair_masks,
    iter_pairs,
    pair_count,
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
    "optimum",
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


def _lex_min_subset(vertices: list[int], target: int, solver: _CliqueSolver | _AcyclicSolver, found: int) -> int:
    """First ``target``-subset of ``vertices``, in their listed order, that
    is a maximum of ``solver``, whose maximum over ``vertices`` is
    ``target`` and ``found`` one such set.  Each v in turn is kept iff some
    maximum holds the vertices kept so far plus v and otherwise only
    vertices listed after v.  A maximum found so far that holds them
    answers yes without a search; otherwise ``solver.max_size`` decides
    between a floor of ``target - 1`` and a ceiling of ``target``, and the
    maximum a yes finds joins them."""
    higher = [0] * len(vertices)
    for i in range(len(vertices) - 1, 0, -1):
        higher[i - 1] = higher[i] | 1 << vertices[i]
    optima = [found]
    kept = 0
    for v, after in zip(vertices, higher):
        if kept.bit_count() == target:
            break
        keep = kept | 1 << v
        # a found maximum that holds keep holds no vertex rejected before v:
        # the first it held would have been kept
        if any(s & keep == keep for s in optima):
            kept = keep
        elif solver.max_size(keep | after, keep, target - 1, target) == target:
            kept = keep
            optima.append(solver.found)
    return kept


# ---------------------------------------------------------------------------
# Maximum clique core (bitset branch and bound, greedy-coloring bound)


class _CliqueSolver:
    """Max-clique searches over one adjacency relation, on whatever vertex
    labels it is given, with a node counter.

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
        self.found = 0  # the clique that last raised the best size

    def max_size(
        self, allowed: int | None = None, forced: int = 0, floor: int = 0, ceiling: int | None = None
    ) -> int:
        """Size of a maximum clique K with forced <= K <= allowed.

        With a ``floor`` the search only decides whether some K is larger:
        a maximum at or below ``floor`` reads as ``floor``, and so does a
        ``forced`` set that is no clique inside ``allowed``.  A ``ceiling``
        must be a known upper bound on the maximum; the search stops as soon
        as it finds a K that large.
        """
        cand = (1 << self.n) - 1 if allowed is None else allowed
        self._best = floor
        self._ceiling = self.n if ceiling is None else ceiling
        for u in _bits(forced):
            if not cand >> u & 1:
                return floor  # u is not allowed or misses a forced vertex before it
            cand &= self.adj[u]
        if forced.bit_count() > floor:
            self._best, self.found = forced.bit_count(), forced
        if cand:
            self._expand(cand, forced)
        return self._best

    def _expand(self, cand: int, clique: int) -> None:
        self.nodes += 1
        adj, non = self.adj, self.non
        size = clique.bit_count()
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
                    cand, clique = self._take_forced(cand, clique)
                    size = clique.bit_count()
                    if size > self._best:
                        self._best, self.found = size, clique
                    if not cand or self._best >= self._ceiling:
                        return
                    break  # color what is left
                nxt = cand & adj[v]
                if size + 1 > self._best:
                    self._best, self.found = size + 1, clique | 1 << v
                if nxt:
                    self._expand(nxt, clique | 1 << v)
                if self._best >= self._ceiling:
                    return
                cand ^= 1 << v
            else:
                return

    def _take_forced(self, cand: int, clique: int) -> tuple[int, int]:
        """One ascending pass over ``cand`` that adds to ``clique`` each
        vertex missing at most one other candidate; each is tested on the
        candidates left after the takes before it."""
        adj, non = self.adj, self.non
        rest = cand
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            missed = cand & non[v]
            if not missed & (missed - 1):
                clique |= bit
                cand &= adj[v]
                rest &= cand
        return cand, clique


def _color_pairs(graph: BicoloredGraph, color: EdgeColor) -> tuple[np.ndarray, np.ndarray]:
    """The pair selections of the simple graph whose edges include ``color``."""
    codes = graph.pair_codes
    edges = (codes == color.code) | (codes == EdgeColor.RED_BLUE.code)
    return edges, edges


def _color_adjacency(graph: BicoloredGraph, color: EdgeColor) -> list[int]:
    """Bitmask adjacency of the simple graph whose edges include ``color``."""
    return _pair_masks(graph.n, *_color_pairs(graph, color))


def _search_labels(n: int, ascending: np.ndarray, descending: np.ndarray) -> tuple[list[int], list[int]]:
    """The order of both exact searches, nonincreasing out-degree x in-degree
    with ties to the smaller label, and the :func:`model._pair_masks` on it:
    search vertex i is input vertex ``order[i]``."""
    us, vs = np.triu_indices(n, 1)
    tails = np.concatenate([us[ascending], vs[descending]])
    heads = np.concatenate([vs[ascending], us[descending]])
    key = np.bincount(tails, minlength=n) * np.bincount(heads, minlength=n)
    order = np.argsort(-key, kind="stable").tolist()
    return order, _pair_masks(n, ascending, descending, order)


def _clique_optimum(graph: BicoloredGraph) -> tuple[int, list[tuple[_CliqueSolver, list[int], EdgeColor]]]:
    """The optimum and each color's (search, labels, color), the winner first;
    blue's search only has to beat red's size."""
    if graph.n > CLIQUE_SIZE_CAP:
        raise SizeLimitExceeded(f"n={graph.n} exceeds clique solver cap {CLIQUE_SIZE_CAP}")
    searches = []
    for color in (EdgeColor.RED, EdgeColor.BLUE):
        order, adj = _search_labels(graph.n, *_color_pairs(graph, color))
        searches.append((_CliqueSolver(graph.n, adj), order, color))
    red_size = searches[0][0].max_size()
    blue_size = searches[1][0].max_size(floor=red_size)
    return max(red_size, blue_size), searches[::-1] if blue_size > red_size else searches


def max_mono_clique(graph: BicoloredGraph) -> SolveResult:
    """Largest monochromatic clique over both colors.

    Ties break to larger size, then red over blue, then the
    lexicographically smallest vertex set, decided on the winning search's
    labels (:func:`_search_labels`) and only then mapped back.
    """
    size, searches = _clique_optimum(graph)
    solver, order, color = searches[0]
    kept = _lex_min_subset(sorted(range(graph.n), key=order.__getitem__), size, solver, solver.found)
    witness = MonoCliqueWitness(tuple(sorted(order[i] for i in _bits(kept))), color)
    return SolveResult(size, witness, sum(search[0].nodes for search in searches))


# ---------------------------------------------------------------------------
# Maximum transitive set (minimum directed feedback vertex set on the
# one-way digraph; bioriented pairs are simply absent arcs)


class _AcyclicSolver:
    """Maximum induced acyclic subset of a digraph given as out-masks.

    Branch and bound over (allowed, forced) pairs: ``forced`` vertices may
    not be deleted.  The search starts from its floor and prunes by a
    vertex-disjoint cycle packing (each packed cycle forces one deletion):
    directed triangles from a table built once, then cycles that a walk in
    the :meth:`_core` of what is left closes, each kept as its vertex mask.
    A node branches on the packed cycle with the fewest free (unforced)
    vertices, and its children are disjoint: the i-th deletes the i-th free
    vertex and forces the ones before it, so no acyclic set is searched
    twice.  Each vertex forced on the way deletes its *closers*, the free
    vertices that would close a cycle with the forced set
    (:meth:`_closers`): they are in no set the branch can return.  So no
    free vertex closes a cycle with the forced set, which stays acyclic,
    and every packed cycle has at least two free vertices; a ``forced`` set
    that holds a cycle is caught while it is forced and finds nothing.  The
    in-masks come from :func:`_transpose`, which also serves the witness's
    topological order; the strongly connected components around the
    search read them (with :func:`_reach`).
    """

    def __init__(self, n: int, out: list[int]):
        self.n = n
        self.out = out
        self.into = into = _transpose(out, (1 << n) - 1)
        self.nodes = 0
        self.found = 0  # the set of the leaf that last raised the best size
        self._ceiling = n
        # the vertex mask of each directed triangle s -> x -> y -> s under its
        # smallest vertex s, in (x, y) order
        self._triangles: list[list[int]] = []
        for s in range(n):
            above = -2 << s
            self._triangles.append([
                1 << s | 1 << x | 1 << y
                for x in _bits(out[s] & above)
                for y in _bits(out[x] & into[s] & above)
            ])

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

    def _longer_cycle(self, mask: int) -> int:
        """The mask of a directed cycle within ``mask``; 0 if it has none.

        A walk inside :meth:`_core` starts at its lowest vertex and follows
        each vertex's lowest out-arc in the core, until a vertex has an arc
        back onto the walk; the cycle runs from the latest walk vertex that
        arc reaches.  Every core vertex has an out-arc inside the core, so
        the walk always moves on until it closes, and one-way digraphs have
        no 2-cycles, so the cycle has at least 3 vertices.
        """
        out = self.out
        core = self._core(mask)
        if not core:
            return 0
        v = (core & -core).bit_length() - 1
        path, on_path = [v], 1 << v
        while not out[v] & on_path:
            step = out[v] & core
            v = (step & -step).bit_length() - 1
            path.append(v)
            on_path |= 1 << v
        cycle, start = 1 << v, len(path) - 2
        while not out[v] >> path[start] & 1:
            cycle |= 1 << path[start]
            start -= 1
        return cycle | 1 << path[start]

    def max_size(
        self, allowed: int, forced: int = 0, floor: int = -1, ceiling: int | None = None
    ) -> int:
        """Max size of an acyclic S with forced <= S <= allowed; -1 if none.

        With a ``floor`` the search only decides whether some S is larger:
        a maximum at or below ``floor`` reads as ``floor``, and so does a
        ``forced`` set that holds a cycle.  A ``ceiling`` must be a known
        upper bound on the maximum; the search stops as soon as it finds an
        S that large.
        """
        self._best = floor
        self._ceiling = self.n if ceiling is None else ceiling
        placed = 0
        for v in _bits(forced):
            if not allowed >> v & 1:
                return floor  # v is not allowed or closes a cycle with those before it
            placed |= 1 << v
            allowed &= ~self._closers(v, placed)
        self._search(allowed, forced)
        return self._best

    def _closers(self, u: int, forced: int) -> int:
        """The vertices w outside ``forced`` for which ``forced`` + w holds a
        cycle through u, a vertex of ``forced``: w has an arc into a vertex
        that reaches u inside ``forced`` and one from a vertex that u reaches.
        Such a w is in no acyclic set that holds ``forced``.  A u with no
        neighbour in ``forced`` has none, as one-way digraphs have no
        2-cycles."""
        out, into = self.out, self.into
        if not (out[u] | into[u]) & forced:
            return 0
        return _union(into, _reach(into, 1 << u, forced)) & _union(out, _reach(out, 1 << u, forced)) & ~forced

    def _cycle_packing(self, allowed: int, enough: int) -> list[int]:
        """Vertex masks of disjoint directed cycles inside ``allowed``, up to
        ``enough`` of them: the table's triangles, then any cycle of the core.

        Any disjoint cycles bound the deletions from below, each costing
        one; triangles, the shortest cycles a one-way digraph can hold, go
        first, as they leave the most vertices for the rest.  Each is the
        first triangle in the table, which lists each triangle under its
        smallest vertex in (x, y) order, that lies inside what is left.  A
        vertex on no triangle stays on none as the mask shrinks, so the scan
        resumes after the start of the last triangle; once no triangle is
        left, :meth:`_longer_cycle` walks to each further cycle.
        """
        triangles = self._triangles
        packing: list[int] = []
        mask = starts = allowed
        while len(packing) < enough:
            cycle = 0
            while starts and not cycle:
                bit = starts & -starts
                starts ^= bit
                for triangle in triangles[bit.bit_length() - 1]:
                    if triangle & mask == triangle:
                        cycle = triangle
                        break
            if not cycle:
                cycle = self._longer_cycle(mask)
                if not cycle:
                    break
            packing.append(cycle)
            mask ^= cycle
            starts &= mask
        return packing

    def _search(self, allowed: int, forced: int) -> None:
        self.nodes += 1
        size = allowed.bit_count()
        if size <= self._best:
            return
        # every packed cycle costs at least one deletion, so size - best
        # cycles are enough to prune
        packing = self._cycle_packing(allowed, size - self._best)
        if not packing:
            self._best = size
            self.found = allowed
            return
        if size - len(packing) <= self._best:
            return
        # the free (unforced) vertices of the packed cycle with the fewest
        branchable = min((cycle & ~forced for cycle in packing), key=int.bit_count)
        # disjoint children: each S misses some free vertex of the cycle, and
        # the first one it misses is the one child that holds S
        for v in _bits(branchable):
            self._search(allowed & ~(1 << v), forced)
            if self._best >= self._ceiling:
                return
            if not allowed >> v & 1:
                break  # v closes a cycle with the forced set: no later child holds it
            forced |= 1 << v
            allowed &= ~self._closers(v, forced)


def _one_way_pairs(digraph: SemicompleteDigraph) -> tuple[np.ndarray, np.ndarray]:
    """The pair selections of the one-way arcs: forward, then backward."""
    codes = digraph.pair_codes
    return codes == ArcState.FORWARD.code, codes == ArcState.BACKWARD.code


def _one_way_out_masks(digraph: SemicompleteDigraph) -> list[int]:
    """Bitmask of each vertex's one-way out-neighbors."""
    return _pair_masks(digraph.n, *_one_way_pairs(digraph))


def _transpose(out: list[int], mask: int) -> list[int]:
    """In-masks of the arcs inside ``mask``."""
    into = [0] * len(out)
    for u in _bits(mask):
        for v in _bits(out[u] & mask):
            into[v] |= 1 << u
    return into


def _union(masks: list[int], mask: int) -> int:
    """The union of ``masks[v]`` over the vertices v of ``mask``."""
    union = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        union |= masks[bit.bit_length() - 1]
    return union


def _reach(out: list[int], seen: int, mask: int) -> int:
    """``seen`` plus every vertex reachable from it along arcs inside ``mask``."""
    frontier = seen
    while frontier:
        frontier = _union(out, frontier) & mask & ~seen
        seen |= frontier
    return seen


def _strongly_connected_components(out: list[int], into: list[int], mask: int) -> list[int]:
    """Component masks of the sub-digraph on ``mask``, forward-backward: the
    lowest vertex left reaches, and is reached from, exactly its component."""
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


def _transitive_optimum(digraph: SemicompleteDigraph) -> tuple[int, list[int], _AcyclicSolver, list[tuple]]:
    """The optimum, the labels, the solver and each strongly connected
    component's (mask, optimum, a maximum set): cycles never cross them."""
    if digraph.n > TRANSITIVE_SIZE_CAP:
        raise SizeLimitExceeded(f"n={digraph.n} exceeds transitive solver cap {TRANSITIVE_SIZE_CAP}")
    order, out = _search_labels(digraph.n, *_one_way_pairs(digraph))
    solver = _AcyclicSolver(digraph.n, out)
    parts = [
        (comp, solver.max_size(comp), solver.found) if comp & (comp - 1) else (comp, 1, comp)
        for comp in _strongly_connected_components(solver.out, solver.into, (1 << digraph.n) - 1)
    ]
    return sum(part[1] for part in parts), order, solver, parts


def max_transitive_set(digraph: SemicompleteDigraph) -> SolveResult:
    """Largest vertex set whose induced one-way arcs form a DAG.

    The witness carries a topological order of the chosen set (bioriented
    pairs are unconstrained and ordered by vertex id).  Ties break to the
    lexicographically smallest vertex set.

    Components, searches and witness decisions (:func:`_lex_min_subset`)
    run on the labels of :func:`_search_labels`; only the chosen set is
    mapped back and ordered on the input's masks.

    The size cap bounds runtime, not memory: the search is exact on an
    NP-hard problem.  On one core of a 2-vCPU x86 host (seeds 1-3), random
    tournaments take 0.008-0.010 s at n = 28 and 0.028-0.033 s at n = 32,
    uniform random semicomplete digraphs 0.02-0.03 s at n = 32, 0.04-0.13 s
    at n = 36 and 0.09-0.30 s at the cap, n = 40, where the traced peak of
    Python allocations is about 0.07 MB.
    """
    size, order, solver, parts = _transitive_optimum(digraph)
    by_input_label = sorted(range(digraph.n), key=order.__getitem__)
    chosen = 0
    for comp, target, found in parts:
        chosen |= _lex_min_subset([i for i in by_input_label if comp >> i & 1], target, solver, found)
    vertices = tuple(sorted(order[i] for i in _bits(chosen)))
    witness = TransitiveWitness(vertices, _topological_order(vertices, _one_way_out_masks(digraph)))
    return SolveResult(size, witness, solver.nodes)


def optimum(instance: Instance) -> int:
    """Size of a largest monochromatic clique / transitive set: the witness
    solvers' searches and size caps, without their witness loop."""
    return (_clique_optimum if instance.FAMILY == "bichrome" else _transitive_optimum)(instance)[0]


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
    elif isinstance(witness, TransitiveWitness):
        if not isinstance(instance, SemicompleteDigraph):
            raise KindMismatch("transitive witness on a non-digraph instance")
    else:
        raise KindMismatch(f"unknown witness type {type(witness).__name__}")
    vertices = witness.vertices  # sorted in both kinds
    if vertices and not (0 <= vertices[0] and vertices[-1] < instance.n):
        raise ValueError("witness vertex out of range")
    if isinstance(witness, MonoCliqueWitness):
        return all(instance.has_color(u, v, witness.color) for u, v in combinations(vertices, 2))
    position = {v: i for i, v in enumerate(witness.order)}
    for u, v in combinations(vertices, 2):
        s = instance.state(u, v)
        if s is ArcState.BIORIENTED:
            continue
        tail, head = (u, v) if s is ArcState.FORWARD else (v, u)
        if position[tail] > position[head]:
            return False
    return True


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
# pair (1 = red / forward, 0 = blue / backward).  Codes c and c ^ (2^m - 1)
# differ by a color swap or by reversing every arc, so share one value, and a
# placement's first attainer has the top bit clear: only codes 0 ..
# 2^(m - 1) - 1 are scored.  In both families an instance is held as the pair
# bitmasks of ``model``'s codes 0 (red / forward) and 1 (blue / backward),
# and whole blocks are scored at a time.

_ORACLE_PAIR_CAP = 15  # C(n,2) cap for exhaustive enumeration
_ORACLE_BLOCK = 1 << 16  # instances per scored block; keeps peak memory flat


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
    of the scored codes 0 .. 2^(m - 1) - 1 of each placement in ``positions``
    (one row of pair indices each), flattened in (placement, code) order."""
    bits = (1 << positions).astype(dtype)
    placed = np.bitwise_or.reduce(bits, axis=1, keepdims=True)
    assigned = np.zeros((len(positions), 1), dtype=dtype)  # placed pairs with code bit 1
    for b in range(positions.shape[1] - 1):
        assigned = np.concatenate([assigned, assigned | bits[:, b : b + 1]], axis=1)
    return assigned.ravel(), (placed ^ assigned).ravel()


def _pair_planes(masks: np.ndarray, n: int) -> list[int]:
    """Bit plane of each pair: bit i of int p is set iff mask i lacks pair p."""
    return [
        int.from_bytes(np.packbits(masks & (1 << p) == 0, bitorder="little").tobytes(), "little")
        for p in range(pair_count(n))
    ]


def _acyclic_sizes(n: int, count: int, no_ahead: list[int], no_behind: list[int], cap: int) -> np.ndarray:
    """Largest acyclic vertex set of each of ``count`` digraphs, read as
    ``cap`` from ``cap`` up and as ``min(n, 2)`` below 2.

    Pair p = (u, v) lacks the arc u -> v in the digraphs of bit plane
    ``no_ahead[p]`` and v -> u in those of ``no_behind[p]`` (bit i for
    digraph i), the planes the program reads, so it makes no copies.
    Subset dynamic program, one plane per set: S is acyclic iff some source
    v of S (no arc from S \\ v into v) leaves an acyclic S \\ v; "no arc from
    R into v" is that of R minus its lowest vertex u ANDed with "no arc
    u -> v".  Only the previous order's planes are kept, and the scan stops
    at the first order no digraph reaches.  If ``no_ahead is no_behind``,
    every arc runs both ways and only the lowest vertex of S is tried.  A
    2-set plane with every bit set, as each one of a one-way digraph is,
    is stored as one shared int.
    """
    no_arc = [[0] * n for _ in range(n)]  # [tail][head]: no arc tail -> head
    for p, (u, v) in enumerate(iter_pairs(n)):
        no_arc[u][v], no_arc[v][u] = no_ahead[p], no_behind[p]
    sources = 1 if no_ahead is no_behind else n
    sizes = np.full(count, min(n, 2), dtype=np.int8)
    no_in = {(v, 1 << u): no_arc[u][v] for u in range(n) for v in range(n) if u != v}
    every = (1 << count) - 1
    acyclic = {}
    for u, v in iter_pairs(n):
        plane = no_arc[u][v] | no_arc[v][u]
        acyclic[(1 << u) | (1 << v)] = every if plane == every else plane
    for k in range(3, min(n, cap) + 1):
        level_in, level, found = {}, {}, 0
        for subset in combinations(range(n), k):
            s = sum(1 << v for v in subset)
            ok = 0
            for v in subset[:sources]:
                rest = s ^ (1 << v)
                low = rest & -rest
                source = level_in[v, rest] = no_in[v, rest ^ low] & no_arc[low.bit_length() - 1][v]
                ok |= source & acyclic[rest]
            level[s] = ok
            found |= ok
        if not found:
            break
        found_bytes = np.frombuffer(found.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
        sizes += np.unpackbits(found_bytes, count=count, bitorder="little")
        no_in, acyclic = level_in, level
    return sizes


def _mono_clique_sizes(n: int, red: np.ndarray, blue: np.ndarray, cap: int) -> np.ndarray:
    """Largest monochromatic clique of every instance, read as ``cap`` from
    ``cap`` up.  A red (blue) clique is an acyclic set once each pair of
    ``blue`` (``red``), the pairs of that color only, carries both arcs;
    every pair carries a color, so the larger of the two sizes is exact."""
    planes = _pair_planes(np.concatenate([blue, red]), n)
    sizes = _acyclic_sizes(n, 2 * len(red), planes, planes, cap)
    return np.maximum(sizes[: len(red)], sizes[len(red) :])


def _transitive_sizes(n: int, forward: np.ndarray, backward: np.ndarray, cap: int) -> np.ndarray:
    """Largest transitive vertex set of every instance, read as ``cap`` from
    ``cap`` up; a one-way digraph has no 2-cycle, so a size of 2 is exact."""
    return _acyclic_sizes(n, len(forward), _pair_planes(forward, n), _pair_planes(backward, n), cap)


_SCORERS = {"coloring": _mono_clique_sizes, "digraph": _transitive_sizes}


def _cell_instance(n: int, family: str, placement: tuple[int, ...], code: int) -> Instance:
    """Instance ``code`` of a placement in the oracle's enumeration; a set
    code bit places pair code 0 (red / forward), a clear one code 1."""
    codes = np.full(pair_count(n), EdgeColor.RED_BLUE.code, dtype=np.int8)
    codes[list(placement)] = [1 - (code >> bit & 1) for bit in range(len(placement))]
    kind = BicoloredGraph if family == "coloring" else SemicompleteDigraph
    return kind(n, codes.tobytes())


def oracle_cell_slice(n: int, m: int, family: str, start: int, stop: int) -> tuple[int, Instance]:
    """Scan placements [start, stop) of cell (n, m) for ``family``
    ("coloring" or "digraph").

    Returns (value, instance): the smallest maximum substructure over the
    slice and the first instance in (placement, code) order attaining it.
    """
    if family not in _SCORERS:
        raise ValueError(f"unknown family {family!r}")
    placements = list(islice(combinations(range(pair_count(n)), m), start, stop))
    if not placements:
        raise ValueError(f"placement slice [{start}, {stop}) of cell (n={n}, m={m}) is empty")
    positions = np.array(placements, dtype=np.int64).reshape(len(placements), m)
    dtype = np.min_scalar_type((1 << pair_count(n)) - 1)
    half = max(m - 1, 0)  # scored code bits per placement
    per_block = max(1, _ORACLE_BLOCK >> half)
    best, best_index = n + 1, -1
    for lo in range(0, len(placements), per_block):
        first, second = _block_masks(positions[lo : lo + per_block], dtype)
        sizes = _SCORERS[family](n, first, second, best)
        i = int(sizes.argmin())
        if sizes[i] < best:
            best, best_index = int(sizes[i]), (lo << half) + i
    row, code = divmod(best_index, 1 << half)
    return best, _cell_instance(n, family, placements[row], code)


def _brute_force(n: int, m: int, family: str, budget: int) -> OracleTable:
    _check_oracle_pre(n, m, budget)
    value, instance = oracle_cell_slice(n, m, family, 0, comb(pair_count(n), m))
    return OracleTable(n, m, value, serialize_instance(instance))


def brute_force_f(n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleTable:
    """Exhaustive worst-case monochromatic-clique value f(n, m)."""
    return _brute_force(n, m, "coloring", budget)


def brute_force_F(n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleTable:
    """Exhaustive worst-case transitive-subtournament value F(n, m)."""
    return _brute_force(n, m, "digraph", budget)
