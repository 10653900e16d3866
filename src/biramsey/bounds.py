"""Closed-form bound evaluators and decidable probabilistic conditions.

Everything that can be exact is exact: binomial coefficients, probability
mass functions, and moment sums are big-integer rationals, so inequality
checks are decisions rather than float comparisons.  Logarithmic bounds
destined for human-readable reports are 64-bit floats and flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Mapping

__all__ = [
    "BoundReport",
    "ParameterOutOfRange",
    "DegenerateDensity",
    "classic_bounds",
    "first_moment_bound",
    "blowup_bound",
    "best_upper_bound",
    "hypergeometric_pmf",
    "binomial_pmf",
    "moment_compare",
    "binomial_moment_identity",
    "LocalLemmaCheck",
    "lll_condition",
    "lll_threshold",
    "lower_bound_formulas",
    "EULER_UPPER",
]

# rational over-approximation of Euler's e; rounding up only strengthens
# the certified condition
EULER_UPPER = Fraction(27183, 10000)

# local-lemma work caps: lll_threshold(2^128) takes about 0.2 s on one x86
# core, and the time grows steeply with n.  k is capped at the
# Erdos-Moser ceiling floor(2*log2 n) + 1 at the n cap; no threshold search
# below the cap reaches it.
_LLL_N_CAP = 2**128
_LLL_K_CAP = 2 * 128 + 1

# exact moment work caps: moment_compare at population = draws = 1000 and a
# base with a 10-bit numerator and denominator takes about 1.3 s on one x86
# core, and the time grows steeply with both.  A population within its cap
# gives a success probability within the bit cap.
_MOMENT_N_CAP = 1000
_MOMENT_BITS_CAP = 10


class ParameterOutOfRange(ValueError):
    pass


class DegenerateDensity(ValueError):
    pass


@dataclass(frozen=True)
class BoundReport:
    """One named bound value with its validity metadata.

    ``exact`` distinguishes big-integer rationals from 64-bit floats (the
    floats carry ordinary half-ulp-per-operation error and feed reports,
    never certificates).  ``side`` is "lower", "upper", "exact", or "note".
    """

    name: str
    side: str
    value: "Fraction | float | int | None"
    exact: bool
    source: str
    params: Mapping[str, object] = field(default_factory=dict)


def _floor_log2(x: int) -> int:
    if x < 1:
        raise ParameterOutOfRange("log of a nonpositive integer")
    return x.bit_length() - 1


def classic_bounds(n: int) -> list[BoundReport]:
    """The known unrestricted bounds at order n.

    Guaranteed clique: between log2(n)/2 and 2*log2(n).  Guaranteed
    transitive subtournament: at least floor(log2 n) + 1 (Stearns) and
    floor(log2(n/55)) + 7 for n >= 55 (Sanchez-Flores), at most
    floor(2*log2 n) + 1 (Erdos-Moser).  The floors are computed in integer
    arithmetic, so those reports are exact.
    """
    if n < 2:
        raise ParameterOutOfRange("need n >= 2")
    reports = [
        BoundReport(
            "clique-lower-half-log", "lower", math.log2(n) / 2, False,
            "probabilistic-coloring", {"n": n},
        ),
        BoundReport(
            "clique-upper-double-log", "upper", 2 * math.log2(n), False,
            "neighbourhood-halving", {"n": n},
        ),
        BoundReport(
            "stearns-doubling", "lower", _floor_log2(n) + 1, True,
            "doubling-recursion", {"n": n},
        ),
        BoundReport(
            "erdos-moser", "upper", _floor_log2(n * n) + 1, True,
            "first-moment-count", {"n": n},
        ),
    ]
    if n >= 55:
        reports.append(
            BoundReport(
                "sanchez-flores", "lower", _floor_log2(n // 55) + 7, True,
                "computer-verified-base-plus-doubling", {"n": n},
            )
        )
    return reports


def first_moment_bound(p: "Fraction | float | int", n: int) -> BoundReport:
    """Strict upper bound on the guaranteed transitive size of p-dense
    instances: 2 / log2(2/(1+p)) * log2(n) + 1.

    At p = 0 this is exactly 2*log2(n) + 1; at p = 1 the bound diverges and
    :class:`DegenerateDensity` is raised.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterOutOfRange(f"density p={p} outside [0, 1]")
    if p == 1:
        raise DegenerateDensity("the first-moment bound diverges at density 1")
    if n < 2:
        raise ParameterOutOfRange("need n >= 2")
    value = 2 / math.log2(2 / (1 + float(p))) * math.log2(n) + 1
    return BoundReport(
        "first-moment-upper", "upper", value, False,
        "expected-transitive-subset-count", {"p": p, "n": n},
    )


def blowup_bound(p: "Fraction | float | int", n: int) -> BoundReport:
    """Upper bound from the blow-up construction at density p: t =
    ceil(1/(1-p)) near-equal classes, the fewest with p <= 1 - 1/t, each
    adding its Erdos-Moser ceiling floor(2*log2 s) + 1 for s vertices.  An
    exact integer, or None when t > n would leave a class empty."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ParameterOutOfRange(f"density p={p} outside (0, 1)")
    if n < 2:
        raise ParameterOutOfRange("need n >= 2")
    t = math.ceil(1 / (1 - p))
    size, big = divmod(n, t)  # big classes of size + 1, the rest of size
    value = None
    if size:
        value = big * ((size + 1) ** 2).bit_length() + (t - big) * (size**2).bit_length()
    return BoundReport(
        "blow-up-upper", "upper", value, True,
        "blow-up-partition", {"p": p, "n": n, "t": t},
    )


def best_upper_bound(p: "Fraction | float | int", n: int) -> BoundReport:
    """Minimum of the two density-driven upper bounds; the first-moment
    route wins at small p, the blow-up route at large p.  A blow-up bound
    with no value (more classes than vertices) does not compete."""
    candidates = [first_moment_bound(p, n)]
    if Fraction(p) > 0:
        candidates.append(blowup_bound(p, n))
    best = min((r for r in candidates if r.value is not None), key=lambda r: r.value)
    return BoundReport(
        "best-upper", "upper", best.value, best.exact, best.source,
        {"p": Fraction(p), "n": n, "winner": best.name},
    )


# ---------------------------------------------------------------------------
# Exact-rational moment computations


def _check_moment_bits(value: Fraction, name: str) -> None:
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > _MOMENT_BITS_CAP:
        raise ParameterOutOfRange(
            f"{name} numerator or denominator above the moment cap of {_MOMENT_BITS_CAP} bits"
        )


def hypergeometric_pmf(population: int, successes: int, draws: int) -> list[Fraction]:
    """P(Z = t) for t = 0..draws, drawing without replacement."""
    if not (0 <= successes <= population and 0 <= draws <= population):
        raise ParameterOutOfRange(
            f"bad hypergeometric parameters ({population}, {successes}, {draws})"
        )
    if population > _MOMENT_N_CAP:
        raise ParameterOutOfRange(f"population above the moment cap {_MOMENT_N_CAP}")
    denom = comb(population, draws)
    return [
        Fraction(comb(successes, t) * comb(population - successes, draws - t), denom)
        for t in range(draws + 1)
    ]


def binomial_pmf(draws: int, success_probability: Fraction) -> list[Fraction]:
    """P(Y = t) for t = 0..draws, drawing with replacement."""
    p = Fraction(success_probability)
    _check_moment_bits(p, "probability")
    if not 0 <= p <= 1:
        raise ParameterOutOfRange(f"probability {p} outside [0, 1]")
    if draws < 0:
        raise ParameterOutOfRange(f"negative draws {draws}")
    if draws > _MOMENT_N_CAP:
        raise ParameterOutOfRange(f"draws above the moment cap {_MOMENT_N_CAP}")
    q = 1 - p
    return [comb(draws, t) * p**t * q ** (draws - t) for t in range(draws + 1)]


def moment_compare(
    population: int, successes: int, draws: int, base: "Fraction | int"
) -> tuple[Fraction, Fraction]:
    """Exact E[base^Z] for the hypergeometric draw and E[base^Y] for the
    matched binomial (success probability successes/population), via full
    pmf summation.  For base >= 1 the hypergeometric side never exceeds
    the binomial side; the caller asserts it.
    """
    base = Fraction(base)
    _check_moment_bits(base, "base")
    if base < 1:
        raise ParameterOutOfRange(f"base {base} must be at least 1")
    if population < 1:
        raise ParameterOutOfRange("population must be at least 1")
    z_pmf = hypergeometric_pmf(population, successes, draws)
    y_pmf = binomial_pmf(draws, Fraction(successes, population))
    expect_z = sum(pr * base**t for t, pr in enumerate(z_pmf))
    expect_y = sum(pr * base**t for t, pr in enumerate(y_pmf))
    return expect_z, expect_y


def binomial_moment_identity(
    population: int, successes: int, draws: int, k: int
) -> tuple[Fraction, Fraction]:
    """Exact binomial moment of the hypergeometric draw two ways:
    lhs = sum_t C(t, k) P(Z = t) and the closed form
    rhs = C(draws, k) * C(successes, k) / C(population, k).
    """
    if not 0 <= k <= draws:
        raise ParameterOutOfRange(f"need 0 <= k <= draws, got k={k}")
    if population < 1:
        raise ParameterOutOfRange("population must be at least 1")
    z_pmf = hypergeometric_pmf(population, successes, draws)
    lhs = sum(comb(t, k) * pr for t, pr in enumerate(z_pmf))
    rhs = Fraction(comb(draws, k) * comb(successes, k), comb(population, k))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Local-lemma certificate for the unrestricted transitive bound


@dataclass(frozen=True)
class LocalLemmaCheck:
    """Decidable local-lemma condition at one (n, k).

    ``holds`` certifies that some tournament on n vertices has no
    transitive k-subset: e_upper * (dependency_bound + 1) * event_probability < 1,
    with e over-approximated rationally.  ``ratio`` is the geometric-series
    ratio of the dependency majorization; the written argument needs its
    series sum below 1.2, i.e. ratio < 1/6 (``ratio_ok``).
    """

    holds: bool
    dependency_bound: Fraction
    event_probability: Fraction
    ratio: Fraction

    @property
    def series_sum(self) -> Fraction:
        return 1 / (1 - self.ratio)

    @property
    def ratio_ok(self) -> bool:
        return self.ratio < Fraction(1, 6)


def _check_lll_n(n: int) -> None:
    if n < 55:
        raise ParameterOutOfRange("local lemma evaluated only for n >= 55")
    if n > _LLL_N_CAP:  # not printed: n may be too long for a decimal string
        raise ParameterOutOfRange("n above the local-lemma cap 2^128")


def lll_condition(n: int, k: int) -> LocalLemmaCheck:
    """Evaluate the local-lemma condition certifying that a random
    tournament avoids transitive k-subsets with positive probability.

    A k-subset is transitive with probability k!/2^C(k,2); each such event
    depends on at most C(k,2) * C(n-k, k-2) / (1 - ratio) others, with
    ratio = (k-2)^2 / (3(n - 2k + 3)).  All quantities are exact rationals.
    """
    _check_lll_n(n)
    if k > _LLL_K_CAP:  # 2^C(k, 2) alone would take k^2 / 16 bytes
        raise ParameterOutOfRange(f"k above the local-lemma cap {_LLL_K_CAP}")
    if not (4 < k and k * k < n):
        raise ParameterOutOfRange(f"need 4 < k < sqrt(n), got k={k}, n={n}")
    probability = Fraction(factorial(k), 2 ** comb(k, 2))
    # below 1 in range: n - 2k + 3 >= (k - 1)^2 + 3, so 3(n - 2k + 3) > (k - 2)^2
    ratio = Fraction((k - 2) ** 2, 3 * (n - 2 * k + 3))
    dependency = comb(k, 2) * comb(n - k, k - 2) / (1 - ratio)
    holds = EULER_UPPER * (dependency + 1) * probability < 1
    return LocalLemmaCheck(holds, dependency, probability, ratio)


def lll_threshold(n: int) -> BoundReport:
    """Smallest k in (4, sqrt(n)) whose local-lemma condition holds, turned
    into an inclusive ceiling: no transitive k-subset is guaranteed, so the
    guaranteed transitive size is at most k - 1 (that is the report value,
    comparable with the Erdos-Moser ceiling floor(2*log2 n) + 1).

    The float 2*log2(n) - 1 is reported alongside in the params.  When no k
    in range satisfies the condition the report carries value None and
    ``feasible: False`` rather than failing.
    """
    _check_lll_n(n)
    comparison = 2 * math.log2(n) - 1
    k = 5
    while k * k < n:
        check = lll_condition(n, k)
        if check.holds:
            return BoundReport(
                "local-lemma-upper", "upper", k - 1, True,
                "lovasz-local-lemma",
                {
                    "n": n,
                    "smallest_certified_k": k,
                    "two_log2_n_minus_1": comparison,
                    "ratio": check.ratio,
                    "feasible": True,
                },
            )
        k += 1
    return BoundReport(
        "local-lemma-upper", "upper", None, True, "lovasz-local-lemma",
        {"n": n, "two_log2_n_minus_1": comparison, "feasible": False},
    )


# ---------------------------------------------------------------------------
# Per-cell formula bounds


def lower_bound_formulas(n: int, m: int) -> list[BoundReport]:
    """Every closed-form statement applying to the cell (n, m).

    For m <= n the worst-case values are exact: n - floor(m/2) for cliques
    and n - floor(m/3) for transitive sets.  For m >= n the rational lower
    bounds n^2/(m+n) and 2n^2/(2m+n) apply.  The clique value never exceeds
    the transitive value (the orientation-to-color transfer); that ordering
    is emitted as a note.
    """
    if n < 1:
        raise ParameterOutOfRange("need n >= 1")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ParameterOutOfRange(f"m={m} outside 0..C({n},2)")
    reports: list[BoundReport] = []
    if m <= n:
        reports.append(
            BoundReport(
                "clique-exact-small-m", "exact", n - m // 2, True,
                "independent-color-classes", {"n": n, "m": m},
            )
        )
        reports.append(
            BoundReport(
                "transitive-exact-small-m", "exact", n - m // 3, True,
                "disjoint-directed-triangles", {"n": n, "m": m},
            )
        )
    if m >= n:
        reports.append(
            BoundReport(
                "clique-lower-caro-wei", "lower", Fraction(n * n, m + n), True,
                "random-permutation-independent-set", {"n": n, "m": m},
            )
        )
        reports.append(
            BoundReport(
                "transitive-lower-degenerate", "lower",
                Fraction(2 * n * n, 2 * m + n), True,
                "random-permutation-forest", {"n": n, "m": m},
            )
        )
    reports.append(
        BoundReport(
            "clique-at-most-transitive", "note", None, True,
            "orientation-to-color-transfer", {"n": n, "m": m},
        )
    )
    return reports
