"""Reference values for the benchmark, computed apart from the engine.

Nothing here imports ``toricbott``.  Fans are rebuilt from their textbook
descriptions, intersection numbers come from the wall relations
u + u' + sum b_rho u_rho = 0, the ampleness hypothesis is decided by exact
Fourier-Motzkin elimination, and cohomology comes from closed formulas
(Bott's formula with Kuenneth, Betti numbers from the f-vector,
Riemann-Roch, lattice points of the section polytope) instead of Cech
complexes.

Run as a script it recomputes the stored sweep counts:

    python3 perfbench/oracle.py > perfbench/oracle_counts.json
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, gcd


@dataclass(frozen=True)
class OFan:
    """Rays (integer tuples) and maximal cones (sorted ray-index tuples)."""

    dim: int
    rays: tuple
    cones: tuple


def projective_space(n: int) -> OFan:
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return OFan(n, tuple(rays), tuple(itertools.combinations(range(n + 1), n)))


def product(a: OFan, b: OFan) -> OFan:
    rays = tuple(r + (0,) * b.dim for r in a.rays) + tuple((0,) * a.dim + r for r in b.rays)
    shift = len(a.rays)
    cones = tuple(ca + tuple(i + shift for i in cb) for ca in a.cones for cb in b.cones)
    return OFan(a.dim + b.dim, rays, cones)


def star_subdivision(f: OFan, tau) -> OFan:
    """Blow up the orbit closure of the cone tau: add the primitive ray sum."""
    tau = set(tau)
    new = tuple(sum(f.rays[i][k] for i in tau) for k in range(f.dim))
    g = 0
    for x in new:
        g = gcd(g, abs(x))
    new = tuple(x // g for x in new)
    idx = len(f.rays)
    cones = []
    for cone in f.cones:
        if tau <= set(cone):
            cones.extend(tuple(sorted([i for i in cone if i != d] + [idx])) for d in sorted(tau))
        else:
            cones.append(cone)
    return OFan(f.dim, f.rays + (new,), tuple(cones))


def gbinom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n, as a polynomial in n."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num // den


def _solve(cols, target):
    """Exact x with sum_j x_j cols[j] = target; ValueError if none is unique."""
    n, k = len(target), len(cols)
    m = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    row = 0
    for c in range(k):
        piv = next((i for i in range(row, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("columns are dependent")
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][c]
        m[row] = [x / pv for x in m[row]]
        for i in range(n):
            if i != row and m[i][c] != 0:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[row])]
        row += 1
    if any(m[i][k] != 0 for i in range(row, n)):
        raise ValueError("system is inconsistent")
    return [m[i][k] for i in range(k)]


@lru_cache(maxsize=None)
def walls(f: OFan) -> tuple:
    """(tau, row) per invariant curve C_tau; row[i] = D_i . C_tau."""
    out = []
    for a, b in itertools.combinations(f.cones, 2):
        tau = sorted(set(a) & set(b))
        if len(tau) != f.dim - 1:
            continue
        (u,) = set(a) - set(tau)
        (v,) = set(b) - set(tau)
        target = [-(x + y) for x, y in zip(f.rays[u], f.rays[v])]
        coeffs = _solve([f.rays[t] for t in tau], target)
        row = [0] * len(f.rays)
        row[u] = row[v] = 1
        for t, c in zip(tau, coeffs):
            if c.denominator != 1:
                raise ValueError("wall relation is not integral; fan is not smooth")
            row[t] = int(c)
        out.append((tuple(tau), tuple(row)))
    return tuple(out)


def curve_numbers(f: OFan, coeffs) -> list:
    return [sum(r * a for r, a in zip(row, coeffs)) for _, row in walls(f)]


def is_ample(f: OFan, coeffs) -> bool:
    """Toric Kleiman: positive on every invariant curve."""
    return all(x > 0 for x in curve_numbers(f, coeffs))


def _tighten(cons):
    """Scale each row so its first nonzero coefficient is +-1 and keep the
    tightest right-hand side per row; None if a constant row is violated."""
    best = {}
    for a, b, strict in cons:
        lead = next((x for x in a if x != 0), None)
        if lead is None:
            if b < 0 or (strict and b == 0):
                return None
            continue
        s = abs(lead)
        key = tuple(Fraction(x) / s for x in a)
        rhs = Fraction(b) / s
        old = best.get(key)
        if old is None or rhs < old[0] or (rhs == old[0] and strict and not old[1]):
            best[key] = (rhs, strict)
    return [(a, b, s) for a, (b, s) in best.items()]


def fm_feasible(cons, nvars: int) -> bool:
    """Fourier-Motzkin: is {a.x < b on strict rows, a.x <= b otherwise} nonempty?"""
    cons = _tighten(cons)
    for v in range(nvars):
        if cons is None:
            return False
        pos = [c for c in cons if c[0][v] > 0]
        neg = [c for c in cons if c[0][v] < 0]
        new = [c for c in cons if c[0][v] == 0]
        for a, b, s in pos:
            for a2, b2, s2 in neg:
                lam, mu = -a2[v], a[v]
                new.append((tuple(lam * x + mu * y for x, y in zip(a, a2)),
                            lam * b + mu * b2, s or s2))
        cons = _tighten(new)
    return cons is not None


def hypothesis_holds(f: OFan, l, dprime) -> bool:
    """Is there d in [0,1]^{D'} with L - sum d_j D_j ample?"""
    dprime = sorted(dprime)
    k = len(dprime)
    cons = []
    for _, row in walls(f):
        cons.append((tuple(row[j] for j in dprime), sum(r * a for r, a in zip(row, l)), True))
    for j in range(k):
        unit = tuple(int(i == j) for i in range(k))
        cons.append((unit, 1, False))
        cons.append((tuple(-x for x in unit), 0, False))
    return fm_feasible(cons, k)


def witness_ok(f: OFan, l, dprime, witness) -> bool:
    """The witness lies in the unit box and makes L - dD' ample."""
    dprime = sorted(dprime)
    if len(witness) != len(dprime) or any(not 0 <= Fraction(d) <= 1 for d in witness):
        return False
    coeffs = [Fraction(x) for x in l]
    for j, d in zip(dprime, witness):
        coeffs[j] -= Fraction(d)
    return is_ample(f, coeffs)


def chi_line_bundle(f: OFan, coeffs) -> int:
    """chi(O(D)): Riemann-Roch on surfaces, C(k + r, r) on P^r."""
    if f.dim == 2:
        dd = 0
        dk = 0
        for (tau,), row in walls(f):
            d_dot = sum(r * a for r, a in zip(row, coeffs))   # D . D_tau
            dd += coeffs[tau] * d_dot
            dk -= d_dot
        return 1 + (dd - dk) // 2
    if len(f.rays) == f.dim + 1:
        # Picard rank one and smooth: P^r, where every D_i is a hyperplane.
        return gbinom(sum(coeffs) + f.dim, f.dim)
    raise ValueError("chi is only implemented for surfaces and projective spaces")


def chi_log(f: OFan, p: int, dprime, l) -> int:
    """chi(Omega^p(log D')(-D') (x) L) from [Omega^1(log D')] = (r - m) O +
    sum_{i not in D'} O(-D_i), with m = #(rays not in D')."""
    dset = set(dprime)
    outside = [i for i in range(len(f.rays)) if i not in dset]
    m = len(outside)
    base = [a - (1 if i in dset else 0) for i, a in enumerate(l)]
    total = 0
    for size in range(min(p, m) + 1):
        c = gbinom(f.dim - m, p - size)
        if c == 0:
            continue
        for s in itertools.combinations(outside, size):
            coeffs = list(base)
            for i in s:
                coeffs[i] -= 1
            total += c * chi_line_bundle(f, coeffs)
    return total


def bott(n: int, p: int, k: int, q: int) -> int:
    """h^q(P^n, Omega^p(k)) by Bott's formula."""
    if not 0 <= p <= n or not 0 <= q <= n:
        return 0
    if q == 0:
        if k > p:
            return comb(k + n - p, k) * comb(k - 1, p)
        return int(k == 0 and p == 0)
    if q == n:
        if k < p - n:
            return comb(-k + p, -k) * comb(-k - 1, n - p)
        return int(k == 0 and p == n)
    return int(k == 0 and p == q)


def bott_kuenneth(factors, classes, p: int) -> tuple:
    """h^0..h^dim of Omega^p(a_1, ..., a_s) on P^{n_1} x ... x P^{n_s}."""
    total_dim = sum(factors)
    out = [0] * (total_dim + 1)
    for ps in itertools.product(*(range(n + 1) for n in factors)):
        if sum(ps) != p:
            continue
        for qs in itertools.product(*(range(n + 1) for n in factors)):
            term = 1
            for n, a, pi, qi in zip(factors, classes, ps, qs):
                term *= bott(n, pi, a, qi)
                if term == 0:
                    break
            out[sum(qs)] += term
    return tuple(out)


def f_vector(f: OFan) -> list:
    """f[k] = number of k-dimensional cones (faces of the simplicial cones)."""
    faces = [set() for _ in range(f.dim + 1)]
    for cone in f.cones:
        for k in range(f.dim + 1):
            faces[k].update(itertools.combinations(cone, k))
    return [len(s) for s in faces]


def hodge_twist0(f: OFan, p: int) -> tuple:
    """h^q(Omega^p) on a smooth complete toric variety: b_{2p} at q = p,
    with b_{2p} = sum_{i >= p} (-1)^(i-p) C(i, p) f_{dim-i}."""
    fv = f_vector(f)
    n = f.dim
    beta = sum((-1) ** (i - p) * comb(i, p) * fv[n - i] for i in range(p, n + 1))
    return tuple(beta if q == p else 0 for q in range(n + 1))


def h0_line_bundle(f: OFan, coeffs) -> int:
    """Lattice points m with <m, u_i> >= -a_i for every ray."""
    n = f.dim
    points = []
    for rays in itertools.combinations(range(len(f.rays)), n):
        cols = [[f.rays[i][j] for i in rays] for j in range(n)]
        try:
            points.append(_solve(cols, [-coeffs[i] for i in rays]))
        except ValueError:
            continue
    if not points:
        return 0
    box = [range(floor(min(pt[j] for pt in points)), ceil(max(pt[j] for pt in points)) + 1)
           for j in range(n)]
    return sum(
        all(sum(mj * uj for mj, uj in zip(m, ray)) >= -a for ray, a in zip(f.rays, coeffs))
        for m in itertools.product(*box)
    )


def bl3() -> OFan:
    """P^2 blown up in its three torus-fixed points."""
    p2 = projective_space(2)
    return star_subdivision(star_subdivision(star_subdivision(p2, (0, 1)), (1, 2)), (0, 2))


SWEEP_COEFFS = (0, 1, 2)
SWEEP_FANS = {"bl3": bl3, "p3": lambda: projective_space(3)}


def sweep_counts(f: OFan, coeffs=SWEEP_COEFFS) -> dict:
    """Pairs (D', L) of the sweep and how many satisfy the hypothesis."""
    n = len(f.rays)
    pairs = feasible = 0
    for size in range(n + 1):
        for dprime in itertools.combinations(range(n), size):
            for l in itertools.product(coeffs, repeat=n):
                pairs += 1
                feasible += hypothesis_holds(f, l, dprime)
    return {"pairs": pairs, "feasible": feasible}


def main() -> int:
    out = {
        "command": "python3 perfbench/oracle.py > perfbench/oracle_counts.json",
        "coeffs": list(SWEEP_COEFFS),
        "fans": {name: sweep_counts(build()) for name, build in SWEEP_FANS.items()},
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
