"""Extremal instance builders, each emitting a re-checkable certificate.

Every builder returns a :class:`ConstructionCert`: the instance, its exact
unicolored / one-way pair count, and a claimed ceiling on the maximum
monochromatic clique resp. transitive set.  The exact solver can re-verify
every certificate; ``equality=True`` marks the constructions whose ceiling
is known to be attained exactly.

Constructions:

* :func:`matching_coloring` - alternating red/blue near-matchings; ceiling
  n - floor(m/2), attained.
* :func:`triangle_digraph` - disjoint directed triangles; ceiling
  n - floor(m/3), attained.
* :func:`blowup` - partition into classes spanning tournaments, all cross
  pairs bioriented; ceiling is the sum of per-class optima.
* :func:`tournament_packing` - disjoint copies of a largest tournament with
  no transitive (k+1)-subset; ceiling k * n / order.
* :func:`lex_clique_packing` - two edge-disjoint clique unions (blue on
  consecutive blocks, red on blocks of the transposed order); ceiling
  n / (c+1), attained.
* :func:`mixed_coloring` / :func:`mixed_digraph` - two consecutive block
  sizes mixed by a weight, interpolating between pure packings; the floor
  losses are recorded explicitly as slack.

The two clique packings share one painter of a near-equal Turan pair, and
the three tournament builders one disjoint union, so
``lex_clique_packing(n, c)`` is ``mixed_coloring(n, c, 0)`` and
``tournament_packing(n, 2)`` is ``mixed_digraph(n, 2, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb
from typing import Mapping

import numpy as np

from .model import (
    BicoloredGraph,
    EdgeColor,
    Instance,
    SemicompleteDigraph,
    pair_count,
    pair_index,
    random_tournament,
)
from .solvers import TRANSITIVE_SIZE_CAP, SizeLimitExceeded, max_mono_clique, max_transitive_set

__all__ = [
    "ConstructionCert",
    "ExtremalTournament",
    "InfeasibleParams",
    "ClassSizeMismatch",
    "UnsupportedK",
    "DivisibilityViolation",
    "PackingCollision",
    "EXTREMAL_ORDER",
    "matching_coloring",
    "triangle_digraph",
    "blowup",
    "extremal_tournament",
    "tournament_packing",
    "lex_clique_packing",
    "mixed_coloring",
    "mixed_digraph",
    "verify_claims",
    "BUILDERS",
]


class InfeasibleParams(ValueError):
    pass


class ClassSizeMismatch(ValueError):
    pass


class UnsupportedK(ValueError):
    pass


class DivisibilityViolation(ValueError):
    pass


class PackingCollision(RuntimeError):
    """The red and blue packings touched the same pair; an internal bug."""


# k -> offsets D of the largest tournament with no transitive (k+1)-subset:
# the circulant i -> i + d (mod q) for d in D.  A circulant tournament of
# order q has (q - 1) / 2 offsets.  Orders 3 and 7 are the directed triangle
# and the quadratic-residue tournament; the order-13 entry is one of the four
# circulants on 13 vertices with no transitive 5-subset.
_EXTREMAL_OFFSETS = {1: (), 2: (1,), 3: (1, 2, 4), 4: (1, 3, 7, 8, 9, 11)}

# order of the largest tournament with no transitive (k+1)-subset,
# i.e. one less than the smallest order forcing a transitive (k+1)-set
EXTREMAL_ORDER = {k: 2 * len(offsets) + 1 for k, offsets in _EXTREMAL_OFFSETS.items()}


@dataclass(frozen=True)
class ConstructionCert:
    """A built instance plus its claimed (m, ceiling) pair.

    ``claimed_bound`` upper-bounds the instance's maximum monochromatic
    clique / transitive set; with ``equality`` the optimum attains it.
    """

    instance: Instance
    claimed_m: int
    claimed_bound: int
    provenance: str
    equality: bool = False
    extras: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.instance.m != self.claimed_m:
            raise ValueError(
                f"{self.provenance}: built {self.instance.m} unicolored/one-way pairs, "
                f"claimed {self.claimed_m}"
            )


@dataclass(frozen=True)
class ExtremalTournament:
    """A tournament whose largest transitive subtournament has size k."""

    k: int
    order: int
    digraph: SemicompleteDigraph


def verify_claims(
    instance: Instance, claimed_m: int, claimed_bound: int, equality: bool
) -> list[str]:
    """Re-check a certificate's claims with the exact solver.

    Returns a list of violated invariants (empty when everything checks).
    """
    failures: list[str] = []
    solve = max_mono_clique if instance.FAMILY == "bichrome" else max_transitive_set
    optimum = solve(instance).size
    if instance.m != claimed_m:
        failures.append(f"m-accounting: instance has m={instance.m}, claimed {claimed_m}")
    if optimum > claimed_bound:
        failures.append(f"ceiling: solver optimum {optimum} exceeds claimed {claimed_bound}")
    if equality and optimum != claimed_bound:
        failures.append(f"equality: solver optimum {optimum} != claimed {claimed_bound}")
    return failures


# ---------------------------------------------------------------------------
# Small-m exact constructions


def matching_coloring(n: int, m: int) -> ConstructionCert:
    """Unicolored edges laid along a path (or, at m = n, a cycle) with
    alternating colors, so each color class is a matching; at m = n with n
    odd the red class has one shared endpoint, which does not move the
    ceiling.  No monochromatic clique exceeds n - floor(m/2), and one
    attains it.
    """
    if not 0 <= m <= n:
        raise InfeasibleParams(f"need 0 <= m <= n, got n={n}, m={m}")
    codes = bytearray([EdgeColor.RED_BLUE.code]) * pair_count(n)
    for i in range(m):
        u, v = i, i + 1
        if v == n:  # m == n closes the cycle
            u, v = 0, n - 1
        codes[pair_index(u, v, n)] = (EdgeColor.RED if i % 2 == 0 else EdgeColor.BLUE).code
    return ConstructionCert(
        instance=BicoloredGraph(n, bytes(codes)),
        claimed_m=m,
        claimed_bound=n - m // 2,
        provenance="independent-color-classes",
        equality=True,
        extras={"n": n, "m": m},
    )


def triangle_digraph(n: int, m: int) -> ConstructionCert:
    """floor(m/3) disjoint directed triangles, the rest bioriented; a
    transitive set must drop a vertex per triangle, so the ceiling is
    n - floor(m/3), attained.

    When m is not divisible by 3 the 1-2 leftover arcs form an ascending
    path over the free vertices, borrowing base vertices of distinct
    triangles (their pairs are still bioriented) where those run out: it
    closes no cycle and keeps the pair count at exactly m.
    """
    if m < 0 or m > pair_count(n):
        raise InfeasibleParams(f"m={m} outside 0..C({n},2)")
    triangles, rest = divmod(m, 3)
    if 3 * triangles > n:
        raise InfeasibleParams(
            f"{triangles} disjoint triangles do not fit on {n} vertices"
        )
    arcs: set[tuple[int, int]] = set()
    for j in range(triangles):
        a = 3 * j
        arcs.update({(a, a + 1), (a + 1, a + 2), (a + 2, a)})
    borrow = max(0, rest + 1 - (n - 3 * triangles)) if rest else 0
    if borrow > triangles:
        raise InfeasibleParams(f"no room for {rest} leftover one-way arcs on {n} vertices")
    path = [3 * j for j in range(borrow)] + list(range(3 * triangles, n))
    arcs.update(zip(path, path[1 : rest + 1]))
    return ConstructionCert(
        instance=SemicompleteDigraph.from_arcs(n, arcs),
        claimed_m=m,
        claimed_bound=n - triangles,
        provenance="disjoint-directed-triangles",
        equality=True,
        extras={"n": n, "m": m, "triangles": triangles},
    )


# ---------------------------------------------------------------------------
# Disjoint unions of tournaments: blow-ups and packings


def _disjoint_union(n: int, parts: list[SemicompleteDigraph]) -> SemicompleteDigraph:
    """The parts' one-way arcs side by side from vertex 0, in order; every
    cross pair and every vertex past the last part is bioriented."""
    arcs: set[tuple[int, int]] = set()
    offset = 0
    for d in parts:
        arcs.update((tail + offset, head + offset) for tail, head in d.one_way_arcs())
        offset += d.n
    return SemicompleteDigraph.from_arcs(n, arcs)


def blowup(
    n: int,
    t: int,
    inner: "list[SemicompleteDigraph] | None" = None,
    seed: int = 0xB1C0,
) -> ConstructionCert:
    """Partition the vertices into t near-equal classes, each spanning a
    tournament, with every cross pair bioriented.

    Any transitive set meets each class in a transitive subset of its
    tournament, so the ceiling is the sum of per-class optima (computed
    here with the exact solver).  The bioriented fraction is at least
    1 - 1/t exactly.
    """
    if not 1 <= t <= n:
        raise InfeasibleParams(f"need 1 <= t <= n, got t={t}, n={n}")
    big = n % t
    sizes = [n // t + 1] * big + [n // t] * (t - big)
    if sizes[0] > TRANSITIVE_SIZE_CAP:  # refused before any class is drawn
        raise SizeLimitExceeded(
            f"class size {sizes[0]} exceeds transitive solver cap {TRANSITIVE_SIZE_CAP}"
        )
    if inner is None:
        inner = [random_tournament(s, np.random.default_rng([seed, i])) for i, s in enumerate(sizes)]
    if [d.n for d in inner] != sizes:
        raise ClassSizeMismatch(
            f"inner sizes {[d.n for d in inner]} do not match classes {sizes}"
        )
    for d in inner:
        if not d.is_tournament():
            raise ClassSizeMismatch("inner digraphs must be tournaments")
    return ConstructionCert(
        instance=_disjoint_union(n, inner),
        claimed_m=sum(pair_count(s) for s in sizes),
        claimed_bound=sum(max_transitive_set(d).size for d in inner),
        provenance="blow-up-partition",
        equality=False,
        extras={"n": n, "t": t, "class_sizes": sizes},
    )


# ---------------------------------------------------------------------------
# Extremal tournaments and their packings


def extremal_tournament(k: int) -> ExtremalTournament:
    """Largest tournament with no transitive (k+1)-subset, for k = 1..4.

    All four are circulants, bundled as offset tables (orders 1, 3, 7 and
    13).  Every returned tournament is re-verified at load by the exact
    solver.
    """
    if k not in _EXTREMAL_OFFSETS:
        raise UnsupportedK(f"no extremal tournament bundled for k={k}")
    order = EXTREMAL_ORDER[k]
    d = SemicompleteDigraph.from_arcs(
        order, {(u, (u + s) % order) for u in range(order) for s in _EXTREMAL_OFFSETS[k]}
    )
    if not d.is_tournament():
        raise UnsupportedK(f"internal: offsets for k={k} do not give a tournament")
    found = max_transitive_set(d).size
    if found != k:
        raise UnsupportedK(
            f"internal: extremal tournament for k={k} verified to {found}"
        )
    return ExtremalTournament(k, order, d)


def tournament_packing(n: int, k: int) -> ConstructionCert:
    """Disjoint copies of the k-extremal tournament (k = 1..4, orders 1, 3,
    7, 13), cross pairs bioriented.

    With order q = one less than the forcing order, m = n(q-1)/2 and the
    ceiling is k * n / q, attained (each copy contributes exactly k).
    """
    extremal = extremal_tournament(k)
    q = extremal.order
    if n % q != 0:
        raise DivisibilityViolation(f"{q} must divide n, got n={n}")
    return ConstructionCert(
        instance=_disjoint_union(n, [extremal.digraph] * (n // q)),
        claimed_m=n * (q - 1) // 2,
        claimed_bound=k * n // q,
        provenance="extremal-tournament-packing",
        equality=True,
        extras={"n": n, "k": k, "copy_order": q, "copies": n // q},
    )


# ---------------------------------------------------------------------------
# Clique self-packings


def _turan_pair(n: int, sizes: list[int]) -> BicoloredGraph:
    """Two edge-disjoint clique packings with the given block sizes (at
    most two consecutive values, larger first): blue cliques on consecutive
    vertices, red cliques on consecutive runs of the transposed order, in
    which row i lists the i-th member of every block having one.  Vertices
    past sum(sizes) and all other pairs stay bicolored.
    """
    starts = list(accumulate(sizes, initial=0))
    blue = [range(a, b) for a, b in zip(starts, starts[1:])]
    transposed = [block[i] for i in range(max(sizes)) for block in blue if i < len(block)]
    red = [transposed[a:b] for a, b in zip(starts, starts[1:])]
    both = EdgeColor.RED_BLUE.code
    codes = bytearray([both]) * pair_count(n)
    for blocks, code in ((blue, EdgeColor.BLUE.code), (red, EdgeColor.RED.code)):
        for members in blocks:
            for u, v in combinations(sorted(members), 2):
                idx = pair_index(u, v, n)
                if codes[idx] != both:
                    raise PackingCollision(f"pair ({u}, {v}) would receive both unicolors")
                codes[idx] = code
    return BicoloredGraph(n, bytes(codes))


def lex_clique_packing(n: int, c: int) -> ConstructionCert:
    """Blue cliques on consecutive blocks of size c+1; red cliques on the
    blocks of the transposed (lexicographic) order.  Endpoints of a blue
    edge sit at least n/(c+1) >= c+1 apart in the transposed order, so no
    pair receives both colors; m = c*n and the ceiling n/(c+1) is attained
    by any transversal of the blue blocks.
    """
    if c < 0:
        raise InfeasibleParams("c must be nonnegative")
    size = c + 1
    if n % size != 0:
        raise DivisibilityViolation(f"c+1={size} must divide n={n}")
    blocks = n // size
    if size > blocks:
        raise InfeasibleParams(
            f"self-packing needs c+1 <= n/(c+1); got {size} > {blocks}"
        )
    return ConstructionCert(
        instance=_turan_pair(n, [size] * blocks),
        claimed_m=c * n,
        claimed_bound=blocks,
        provenance="clique-self-packing",
        equality=True,
        extras={"n": n, "c": c, "clique_size": size},
    )


def _check_mix(k: int, gamma: Fraction) -> None:
    """The parameter check both mixed constructions share."""
    if k < 2:
        raise InfeasibleParams("k must be at least 2")
    if not 0 <= gamma <= 1:
        raise InfeasibleParams("gamma must lie in [0, 1]")


def _mixed_blocks(n: int, k: int, gamma: Fraction) -> tuple[list[int], int]:
    """Block sizes for the mixed clique packing: larger blocks first, then
    the isolated-vertex count."""
    _check_mix(k, gamma)
    small = int(n * gamma / k)  # floor
    large = int(n * (1 - gamma) / (k + 1))
    sizes = [k + 1] * large + [k] * small
    isolated = n - sum(sizes)
    assert isolated >= 0
    return sizes, isolated


def mixed_coloring(n: int, k: int, gamma: "Fraction | int | float") -> ConstructionCert:
    """Self-packing of a union of k-cliques and (k+1)-cliques, mixed by the
    weight gamma (gamma = 1 degenerates to pure k-cliques).

    Blue cliques occupy consecutive blocks, larger blocks first; red
    cliques occupy blocks of the transposed order, which stays edge-disjoint
    whenever there are at least k+1 blocks.  The certificate records the
    clean weighted formula value next to the integer ceiling; their gap is
    the floor-loss slack.
    """
    gamma = Fraction(gamma)
    if (k + 1) ** 2 > n:
        raise InfeasibleParams(f"self-packing needs (k+1)^2 <= n, got k={k}, n={n}")
    sizes, isolated = _mixed_blocks(n, k, gamma)
    blocks = len(sizes)
    if blocks < k + 1:
        raise InfeasibleParams(
            f"need at least k+1={k + 1} blocks for the transposed packing, got {blocks}"
        )
    formula = n * (gamma / k + (1 - gamma) / (k + 1))
    bound = blocks + isolated
    cert_m = 2 * sum(comb(s, 2) for s in sizes)
    return ConstructionCert(
        instance=_turan_pair(n, sizes),
        claimed_m=cert_m,
        claimed_bound=bound,
        provenance="mixed-clique-self-packing",
        equality=False,
        extras={
            "n": n,
            "k": k,
            "gamma": str(gamma),
            "formula_value": str(formula),
            "slack": str(bound - formula),
            "block_sizes": sizes,
            "isolated": isolated,
        },
    )


def mixed_digraph(n: int, k: int, gamma: "Fraction | int | float") -> ConstructionCert:
    """Disjoint extremal tournaments of two consecutive orders plus isolated
    vertices, cross pairs bioriented; the per-copy optima sum to the integer
    ceiling, recorded next to the clean weighted formula value.
    """
    gamma = Fraction(gamma)
    _check_mix(k, gamma)
    if k not in EXTREMAL_ORDER or (k + 1) not in EXTREMAL_ORDER:
        raise UnsupportedK(f"k={k} needs extremal tournaments for k and k+1")
    small = extremal_tournament(k)
    large = extremal_tournament(k + 1)
    copies_small = int(n * gamma / small.order)
    copies_large = int(n * (1 - gamma) / large.order)
    # the counts are floors, so covered <= n (the instance refuses n < 1)
    covered = copies_small * small.order + copies_large * large.order
    isolated = n - covered
    instance = _disjoint_union(
        n, [small.digraph] * copies_small + [large.digraph] * copies_large
    )
    bound = copies_small * k + copies_large * (k + 1) + isolated
    formula = n * (
        gamma * k / small.order + (1 - gamma) * (k + 1) / large.order
    )
    return ConstructionCert(
        instance=instance,
        claimed_m=copies_small * pair_count(small.order)
        + copies_large * pair_count(large.order),
        claimed_bound=bound,
        provenance="mixed-tournament-packing",
        equality=False,
        extras={
            "n": n,
            "k": k,
            "gamma": str(gamma),
            "formula_value": str(formula),
            "slack": str(bound - formula),
            "copies": [copies_small, copies_large],
            "isolated": isolated,
        },
    )


# name -> builder, for the command-line `construct` dispatch
BUILDERS = {
    "matching": matching_coloring,
    "triangles": triangle_digraph,
    "blowup": blowup,
    "packing": tournament_packing,
    "lex-cliques": lex_clique_packing,
    "mixed-coloring": mixed_coloring,
    "mixed-digraph": mixed_digraph,
}
