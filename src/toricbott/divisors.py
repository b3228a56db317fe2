"""Torus-invariant divisors: Cartier data, curve intersections, positivity.

An invariant R-divisor is a rational coefficient per ray.  Positivity on a
complete fan is decided through intersection numbers with the invariant
wall curves, all in exact arithmetic.  The sign convention of the wall
formula is pinned once by a startup self-test: O(1) . line = 1 on P^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactmath import QMatrix, as_rational, lp_feasible_strict
from .fan import (
    Fan,
    NotACone,
    Wall,
    _dual_basis,
    is_cone,
    require_smooth_complete,
    stratum_fan,
    walls,
)


@dataclass(frozen=True)
class InvariantDivisor:
    """Rational coefficient a_rho per ray; models sums a_1 D_1 + ... + a_n D_n."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_rational(x) for x in self.coeffs))

    @property
    def integral(self) -> bool:
        return all(isinstance(x, int) for x in self.coeffs)

    def __add__(self, other: "InvariantDivisor") -> "InvariantDivisor":
        return InvariantDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "InvariantDivisor") -> "InvariantDivisor":
        return InvariantDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "InvariantDivisor":
        return InvariantDivisor(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar) -> "InvariantDivisor":
        return InvariantDivisor(tuple(as_rational(scalar * a) for a in self.coeffs))


@dataclass(frozen=True)
class CartierData:
    """One rational covector m_sigma per maximal cone with <m_sigma, u_rho> = -a_rho."""

    per_cone: tuple


def zero_divisor(f: Fan) -> InvariantDivisor:
    return InvariantDivisor((0,) * f.n_rays)


def ray_divisor(f: Fan, i: int) -> InvariantDivisor:
    if not 0 <= i < f.n_rays:
        raise ValueError(f"ray index {i} out of range")
    return InvariantDivisor(tuple(int(j == i) for j in range(f.n_rays)))


def boundary_divisor(f: Fan) -> InvariantDivisor:
    """The full toric boundary, sum of all ray divisors."""
    return InvariantDivisor((1,) * f.n_rays)


def canonical_divisor(f: Fan) -> InvariantDivisor:
    return InvariantDivisor((-1,) * f.n_rays)


def rayset_divisor(f: Fan, rays: Sequence[int]) -> InvariantDivisor:
    rays = set(rays)
    return InvariantDivisor(tuple(int(i in rays) for i in range(f.n_rays)))


def principal_divisor(f: Fan, m: Sequence[int]) -> InvariantDivisor:
    """div(chi^m) = sum <m, u_rho> D_rho."""
    return InvariantDivisor(
        tuple(sum(mk * uk for mk, uk in zip(m, ray)) for ray in f.rays)
    )


def cartier_data(f: Fan, d: InvariantDivisor) -> CartierData:
    """Per-cone trivializing covectors, unique since the fan is smooth."""
    require_smooth_complete(f)
    if len(d.coeffs) != f.n_rays:
        raise ValueError("coefficient count does not match the fan")
    per_cone = []
    for cone in f.max_cones:
        duals = _dual_basis(f, cone)
        m = tuple(
            as_rational(sum(-d.coeffs[ray] * duals[pos][k] for pos, ray in enumerate(cone)))
            for k in range(f.dim)
        )
        per_cone.append(m)
    return CartierData(tuple(per_cone))


def intersect_wall(f: Fan, d: InvariantDivisor, w: Wall):
    """Intersection number of the R-divisor with the wall curve C_tau.

    Computed as <m_sigma - m_sigma', u'> where u' completes tau in sigma';
    the expression is symmetric in the two cones by the wall relation.
    """
    cd = cartier_data(f, d)
    ma = cd.per_cone[w.sigma]
    mb = cd.per_cone[w.sigma_prime]
    u = f.rays[w.u_extra_prime]
    return as_rational(sum((a - b) * x for a, b, x in zip(ma, mb, u)))


@lru_cache(maxsize=None)
def wall_matrix(f: Fan) -> tuple:
    """Integer matrix W with W[wall][ray] = D_ray . C_wall; intersection
    numbers of any divisor are W applied to its coefficient vector."""
    ws = walls(f)
    rows = []
    for w in ws:
        row = tuple(intersect_wall(f, ray_divisor(f, i), w) for i in range(f.n_rays))
        rows.append(row)
    _convention_selftest()
    return tuple(rows)


@lru_cache(maxsize=1)
def _convention_selftest() -> bool:
    """Pin the wall-formula sign: O(1) . line = 1 on P^2."""
    from .fan import projective_space

    p2 = projective_space(2)
    d = ray_divisor(p2, 0)
    values = [intersect_wall(p2, d, w) for w in walls(p2)]
    if values != [1, 1, 1]:
        raise AssertionError(f"sign convention self-test failed: {values}")
    return True


@lru_cache(maxsize=262_144)
def _wall_targets(f: Fan, coeffs: tuple) -> tuple:
    return tuple(
        as_rational(sum(c * x for c, x in zip(row, coeffs))) for row in wall_matrix(f)
    )


def wall_numbers(f: Fan, d: InvariantDivisor) -> tuple:
    return _wall_targets(f, d.coeffs)


def is_nef(f: Fan, d: InvariantDivisor) -> bool:
    return all(v >= 0 for v in wall_numbers(f, d))


def is_ample(f: Fan, d: InvariantDivisor) -> bool:
    """Strict positivity on every wall curve; for complete fans this is
    strict convexity of the support function."""
    values = wall_numbers(f, d)
    if f.dim == 0:
        return True
    return all(v > 0 for v in values)


def is_projective(f: Fan) -> bool:
    """A complete fan is projective iff some divisor is ample (strict LP)."""
    require_smooth_complete(f)
    if f.dim == 0:
        return True
    w = wall_matrix(f)
    rows = [[-x for x in row] for row in w]
    witness = lp_feasible_strict(QMatrix.from_rows(rows), [0] * len(rows))
    return witness is not None


@lru_cache(maxsize=65_536)
def _dprime_rows(f: Fan, dprime: tuple) -> tuple:
    """Per-wall coefficient rows of the hypothesis LP plus precomputed
    interval bounds and candidate sums (depends on D' only)."""
    w = wall_matrix(f)
    cols = tuple(tuple(row[j] for j in dprime) for row in w)
    minsums = tuple(sum(c for c in col if c < 0) for col in cols)
    fullsums = tuple(sum(col) for col in cols)
    greedy = tuple(int(all(c <= 0 for c in col)) for col in zip(*cols)) if cols else ()
    greedy_sums = tuple(sum(g * c for g, c in zip(greedy, col)) for col in cols)
    return cols, minsums, fullsums, greedy, greedy_sums


def hypothesis_feasible(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int]
) -> Optional[tuple]:
    """Rational witness d in [0,1]^{D'} with l - sum d_j D_j ample, or None.

    Wall rows are strict, the box rows are not.  Cheap interval bounds and a
    few candidate vectors short-circuit most instances before the exact LP.
    """
    require_smooth_complete(f)
    if not l.integral:
        raise ValueError("l must be integral")
    dprime = tuple(sorted(set(dprime)))
    if any(not 0 <= j < f.n_rays for j in dprime):
        raise ValueError("logset ray index out of range")
    targets = wall_numbers(f, l)
    k = len(dprime)
    if k == 0:
        return () if is_ample(f, l) else None
    _, minsums, fullsums, greedy, greedy_sums = _dprime_rows(f, dprime)

    # Necessary condition per wall: the box minimum of the row must beat it.
    if any(ms >= b for ms, b in zip(minsums, targets)):
        return None

    # Cheap sufficient candidates before the LP (all integer arithmetic).
    if all(b > 0 for b in targets):
        return (0,) * k
    if all(s < b for s, b in zip(fullsums, targets)):
        return (1,) * k
    if all(s < 2 * b for s, b in zip(fullsums, targets)):
        return (Fraction(1, 2),) * k
    if any(greedy) and all(s < b for s, b in zip(greedy_sums, targets)):
        return greedy

    return _hypothesis_lp(f, dprime, targets)


@lru_cache(maxsize=65_536)
def _hypothesis_lp(f: Fan, dprime: tuple, targets: tuple) -> Optional[tuple]:
    """The exact strict LP of the hypothesis, keyed on the wall numbers of L.

    Linearly equivalent L have the same wall numbers and share one solve;
    the witness serves each of them, since L - dD' is ample iff
    targets - cols.d > 0 on every wall.
    """
    cols = _dprime_rows(f, dprime)[0]
    k = len(dprime)
    rows = [list(col) for col in cols] + [[int(i == j) for i in range(k)] for j in range(k)]
    rhs = list(targets) + [1] * k
    strict = [True] * len(cols) + [False] * k
    witness = lp_feasible_strict(QMatrix.from_rows(rows), rhs, strict, nonneg=True)
    if witness is None:
        return None
    return tuple(as_rational(x) for x in witness)


def residual_divisor(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int], witness: Sequence
) -> InvariantDivisor:
    """l - sum_j d_j D_j for a witness vector aligned with sorted(dprime)."""
    dprime = tuple(sorted(set(dprime)))
    coeffs = list(l.coeffs)
    for j, d in zip(dprime, witness):
        coeffs[j] -= d
    return InvariantDivisor(tuple(coeffs))


def require_witness(
    f: Fan, l: InvariantDivisor, dprime: Sequence[int], witness: Sequence
) -> InvariantDivisor:
    """Check a supplied hypothesis witness and return its residual l - dD'.

    The witness must have one entry per ray of D' (in sorted order), lie in
    [0,1]^{D'} and make the residual ample; otherwise ValueError.
    """
    dprime = tuple(sorted(set(dprime)))
    if len(witness) != len(dprime):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         f"{len(witness)} entries for {len(dprime)} log rays")
    if any(not 0 <= as_rational(d) <= 1 for d in witness):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         "it leaves the unit box")
    residual = residual_divisor(f, l, dprime, witness)
    if not is_ample(f, residual):
        raise ValueError("supplied witness does not satisfy the hypothesis: "
                         "L - dD' is not ample")
    return residual


def restrict_to_stratum(
    f: Fan, d: InvariantDivisor, tau: Sequence[int], character: Optional[Sequence] = None
) -> InvariantDivisor:
    """Divisor class restricted to the stratum V(tau), on stratum_fan(f, tau).

    The class is normalized by a character m* with <m*, u_rho> = -a_rho on
    tau, after which the adjacent-ray coefficients restrict verbatim.  The
    output depends on the character only up to linear equivalence.
    """
    tau = tuple(sorted(tau))
    if not is_cone(f, tau):
        raise NotACone(f"{tau} does not span a cone of the fan")
    sp = stratum_fan(f, tau)
    if tau == ():
        return d
    base_cone = f.max_cones[sp.base_cone]
    duals = _dual_basis(f, base_cone)
    if character is None:
        mstar = [Fraction(0)] * f.dim
        for pos, ray in enumerate(base_cone):
            if ray in tau:
                for kk in range(f.dim):
                    mstar[kk] += -Fraction(d.coeffs[ray]) * duals[pos][kk]
    else:
        mstar = [Fraction(x) for x in character]
        for ray in tau:
            val = sum(m * u for m, u in zip(mstar, f.rays[ray]))
            if val != -d.coeffs[ray]:
                raise ValueError("character does not normalize the divisor on tau")
    coeffs = [0] * sp.fan.n_rays
    for ray, new in sp.ray_map:
        coeffs[new] = as_rational(
            d.coeffs[ray] + sum(m * u for m, u in zip(mstar, f.rays[ray]))
        )
    return InvariantDivisor(tuple(coeffs))


def divisor_to_dict(d: InvariantDivisor) -> dict:
    return {"coeffs": [x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"
                       for x in d.coeffs]}


def divisor_from_dict(data: dict) -> InvariantDivisor:
    try:
        coeffs = []
        for x in data["coeffs"]:
            if isinstance(x, str):
                coeffs.append(Fraction(x))
            elif isinstance(x, int):
                coeffs.append(x)
            else:
                raise ValueError(f"bad coefficient {x!r}")
        return InvariantDivisor(tuple(coeffs))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad divisor data: {exc}") from exc
