"""Torus-invariant divisors: curve intersections, positivity, restriction.

An invariant divisor is an integer coefficient per ray.  On a smooth cone
sigma with dual basis m_i, the character m = -sum a_rho m_rho over chosen
rays rho of sigma makes D + div(chi^m) vanish on those rays; ``_zero_on``
is that one rule, read off the fan's dual pairing table.  Wall intersection
numbers, restriction to strata and ``class_representative`` (the one class
rule of the engine and the sweep) all use it.  Positivity on a complete fan
is decided through intersection numbers with the invariant wall curves, all
in exact arithmetic; tests/test_divisors.py pins the sign of the wall
formula (O(1) . line = 1 on P^2).  ``hypothesis_feasible`` decides the paper's
hypothesis, L - dD' ample for some d in [0,1]^{D'}: an interval bound, the
candidate point d = 0 and the exact LP, with no cache of its own.
``restrict_to_stratum`` is cached on (fan, coefficients, sorted int cone):
the certificates of a sweep restrict the same twists again and again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul, sub
from typing import Optional, Sequence

from .exactmath import json_ints, lp_feasible_strict
from .fan import (Fan, Wall, _cone_indices, _dual_pairings, require_smooth_complete,
                  stratum_fan, walls)


@dataclass(frozen=True)
class InvariantDivisor:
    """Integer coefficient a_rho per ray; models sums a_1 D_1 + ... + a_n D_n.

    Any other coefficient (a Fraction, float or bool) is a ValueError.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", json_ints(self.coeffs, "coefficient"))

    def __add__(self, other: "InvariantDivisor") -> "InvariantDivisor":
        return InvariantDivisor(tuple(map(add, self.coeffs, self._same_length(other))))

    def __sub__(self, other: "InvariantDivisor") -> "InvariantDivisor":
        return InvariantDivisor(tuple(map(sub, self.coeffs, self._same_length(other))))

    def _same_length(self, other: "InvariantDivisor") -> tuple:
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(f"divisors with {len(self.coeffs)} and {len(other.coeffs)} "
                             "coefficients do not live on one fan")
        return other.coeffs

    def __neg__(self) -> "InvariantDivisor":
        return InvariantDivisor(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "InvariantDivisor":
        return InvariantDivisor(tuple(scalar * a for a in self.coeffs))


def zero_divisor(f: Fan) -> InvariantDivisor:
    return InvariantDivisor((0,) * f.n_rays)


def ray_divisor(f: Fan, i: int) -> InvariantDivisor:
    """D_i; ValueError unless the index i is an int naming a ray."""
    (i,) = json_ints([i], "ray index")
    if not 0 <= i < f.n_rays:
        raise ValueError(f"ray index {i} out of range")
    return InvariantDivisor(tuple(int(j == i) for j in range(f.n_rays)))


def boundary_divisor(f: Fan) -> InvariantDivisor:
    """The full toric boundary, sum of all ray divisors."""
    return InvariantDivisor((1,) * f.n_rays)


def canonical_divisor(f: Fan) -> InvariantDivisor:
    return InvariantDivisor((-1,) * f.n_rays)


def sorted_logset(f: Fan, dprime: Sequence[int]) -> tuple:
    """D' as the sorted tuple of its distinct ray indices; ValueError if one
    is not an int (``json_ints``) or not a ray of the fan."""
    rays = set(dprime)
    if not {int}.issuperset(map(type, rays)):
        json_ints(rays, "log ray")
    dprime = tuple(sorted(rays))
    if dprime and not 0 <= dprime[0] <= dprime[-1] < len(f.rays):
        raise ValueError(f"logset ray index out of range in {dprime}")
    return dprime


def rayset_divisor(f: Fan, rays: Sequence[int]) -> InvariantDivisor:
    rays = set(rays)
    return InvariantDivisor(tuple(int(i in rays) for i in range(f.n_rays)))


def _zero_on(f: Fan, coeffs: tuple, cone: int, rays) -> tuple:
    """coeffs + div(chi^m) with m = -sum a_rho m_rho over ``rays``, a subset
    of ``max_cones[cone]`` whose dual basis is m_i.

    The result is 0 at ``rays`` and keeps the cone's other rays' entries;
    it is coeffs - sum a_rho row_rho in the cone's dual pairing table.
    ValueError unless there is one coefficient per ray.
    """
    if len(coeffs) != f.n_rays:
        raise ValueError(f"divisor has {len(coeffs)} coefficients for {f.n_rays} rays")
    table = _dual_pairings(f, cone)
    out = coeffs
    for row, ray in zip(table, f.max_cones[cone]):
        a = coeffs[ray]
        if a and ray in rays:
            out = tuple(c - a * x for c, x in zip(out, row))
    return out


def class_representative(f: Fan, coeffs: tuple) -> tuple:
    """D - div(chi^m0), the representative of the class of D that vanishes
    on the rays of ``max_cones[0]``; m0 = sum of a_rho dual_rho over them.

    Two divisors are linearly equivalent iff their representatives are
    equal, so it keys everything that reads only O(D).  The margin of weight
    m under D is the margin of m + m0 under the representative, so both have
    the same cohomology at shifted weights.
    """
    return _zero_on(f, coeffs, 0, f.max_cones[0])


def intersect_wall(f: Fan, d: InvariantDivisor, w: Wall) -> int:
    """Intersection number of the divisor with the wall curve C_tau.

    With m_sigma the character making D vanish on sigma, this is
    <m_sigma - m_sigma', u'> for u' completing tau in sigma'; since
    <m_sigma', u'> = -a_u', it is the entry at u' of D + div(chi^{m_sigma}).
    """
    require_smooth_complete(f)
    zero = _zero_on(f, d.coeffs, w.sigma, f.max_cones[w.sigma])
    return zero[w.u_extra_prime]


@lru_cache(maxsize=None)
def wall_matrix(f: Fan) -> tuple:
    """Integer matrix W with W[wall][ray] = D_ray . C_wall; intersection
    numbers of any divisor are W applied to its coefficient vector."""
    ws = walls(f)
    rows = []
    for w in ws:
        row = tuple(intersect_wall(f, ray_divisor(f, i), w) for i in range(f.n_rays))
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=262_144)
def _wall_targets(f: Fan, coeffs: tuple) -> tuple:
    if len(coeffs) != f.n_rays:
        raise ValueError(f"divisor has {len(coeffs)} coefficients for {f.n_rays} rays")
    return tuple(sum(map(mul, row, coeffs)) for row in wall_matrix(f))


def wall_numbers(f: Fan, d: InvariantDivisor) -> tuple:
    return _wall_targets(f, d.coeffs)


def is_ample(f: Fan, d: InvariantDivisor) -> bool:
    """Strict positivity on every wall curve; for complete fans this is
    strict convexity of the support function."""
    return all(v > 0 for v in wall_numbers(f, d))


def is_projective(f: Fan) -> bool:
    """A complete fan is projective iff some divisor is ample (strict LP).

    The LP runs over coefficients a >= 0, which loses no fan: adding
    div(chi^m) to an ample D, for m in the interior of its polytope P_D,
    makes every coefficient > 0 and leaves the wall numbers unchanged.
    """
    require_smooth_complete(f)
    w = wall_matrix(f)
    rows = [[-x for x in row] for row in w]
    witness = lp_feasible_strict(rows, [0] * len(rows))
    return witness is not None


@lru_cache(maxsize=65_536)
def _dprime_rows(f: Fan, dprime: tuple) -> tuple:
    """Per-wall coefficient rows of the hypothesis LP, with each row's box
    minimum (depends on D' only)."""
    w = wall_matrix(f)
    cols = tuple(tuple(row[j] for j in dprime) for row in w)
    minsums = tuple(sum(c for c in col if c < 0) for col in cols)
    return cols, minsums


def hypothesis_feasible(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int]
) -> Optional[tuple]:
    """Rational witness d in [0,1]^{D'} with l - sum d_j D_j ample, or None.

    An interval bound per wall rules out the instances that no d in the box
    can make ample on that wall; then d = 0 is tried as the witness (L
    itself ample), and the exact LP (wall rows strict, box rows not) decides
    the rest.
    """
    require_smooth_complete(f)
    dprime = sorted_logset(f, dprime)
    targets = wall_numbers(f, l)
    k = len(dprime)
    cols, minsums = _dprime_rows(f, dprime)

    # Necessary condition per wall: the box minimum of the row must beat it.
    if any(ms >= b for ms, b in zip(minsums, targets)):
        return None

    if all(b > 0 for b in targets):
        return (0,) * k

    rows = [list(col) for col in cols] + [[int(i == j) for i in range(k)] for j in range(k)]
    rhs = list(targets) + [1] * k
    strict = [True] * len(cols) + [False] * k
    witness = lp_feasible_strict(rows, rhs, strict)
    return None if witness is None else tuple(witness)


def residual_divisor(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int], witness: Sequence
) -> InvariantDivisor:
    """N (l - sum_j d_j D_j), N the lcm of the denominators of the witness
    (aligned with sorted(dprime)): an integer class, ample exactly when
    l - dD', and restricting to N times its restriction."""
    dprime = tuple(sorted(set(dprime)))
    n = lcm(*(d.denominator for d in witness))
    coeffs = [n * c for c in l.coeffs]
    for j, d in zip(dprime, witness):
        coeffs[j] -= d.numerator * (n // d.denominator)
    return InvariantDivisor(tuple(coeffs))


def require_witness(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int], witness: Sequence
) -> InvariantDivisor:
    """Check a supplied hypothesis witness and return its integer residual
    class N (l - dD') (see ``residual_divisor``).

    L must have one coefficient per ray, and the witness one int or
    Fraction entry per ray of D' (in sorted order); it must lie in [0,1]^{D'}
    and make the residual ample.  Otherwise ValueError.
    """
    dprime = sorted_logset(f, dprime)
    if len(l.coeffs) != f.n_rays:
        raise ValueError(f"divisor has {len(l.coeffs)} coefficients for {f.n_rays} rays")
    if len(witness) != len(dprime):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         f"{len(witness)} entries for {len(dprime)} log rays")
    if any(type(d) not in (int, Fraction) or not 0 <= d <= 1 for d in witness):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         "it is not an int or Fraction vector in the unit box")
    residual = residual_divisor(f, l, dprime, witness)
    if not is_ample(f, residual):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         "L - dD' is not ample")
    return residual


def restrict_to_stratum(f: Fan, d: InvariantDivisor, tau: Sequence[int]) -> InvariantDivisor:
    """Divisor class restricted to the stratum V(tau), on stratum_fan(f, tau).

    The class is moved by the character that makes it vanish on tau and
    leaves the other rays of the base cone alone (``_zero_on``), after which
    the adjacent-ray coefficients restrict verbatim.  Another such character
    would change the result only up to linear equivalence.  A cone index
    that is not an int (a bool or float) is MalformedInput, checked before
    the cache behind this function would take True for ray 1.
    """
    return _restriction(f, d.coeffs, _cone_indices(tau))


@lru_cache(maxsize=262_144)
def _restriction(f: Fan, coeffs: tuple, tau: tuple) -> InvariantDivisor:
    """``restrict_to_stratum`` at int coefficients and a sorted tuple of int
    ray indices."""
    sp = stratum_fan(f, tau)
    zero = _zero_on(f, coeffs, sp.base_cone, tau)
    return InvariantDivisor(tuple(zero[i] for i in sp.adjacent))


def divisor_from_dict(data: dict) -> InvariantDivisor:
    try:
        return InvariantDivisor(data["coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad divisor data: {exc}") from exc
