"""The standard verification suite: fans, sweeps and seeded samples.

The suite fans are the surfaces and threefolds every property in the test
battery runs over: P^1, P^2, P^3, P^1 x P^1, the Hirzebruch surfaces F_1 and
F_2, and P^2 blown up in one to three torus-fixed points.

The Theorem 1.1 sweep (``thm11_sweep``) runs over every ray subset D' and
every L with coefficients from a small range, and decides each (D', class
of L) once.  One decision per class is exact: the hypothesis "L - dD' is
ample for some d in [0,1]^{D'}" reads L only through its wall numbers, and
the sheaf Omega^p(log D')(-D') (x) O(L) only through O(L); linearly
equivalent L share both.  So ``verified`` and ``certified`` count the
instances whose class passed, and a failing class lists each of its
members among the failures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .certifier import cross_validate
from .danilov import verify_vanishing
from .divisors import (InvariantDivisor, canonical_divisor, class_representative,
                       hypothesis_feasible)
from .fan import Fan, hirzebruch, product, projective_space, star_subdivision


def suite_fans() -> Dict[str, Fan]:
    p2 = projective_space(2)
    bl1 = star_subdivision(p2, (0, 1))
    bl2 = star_subdivision(bl1, (1, 2))
    bl3 = star_subdivision(bl2, (0, 2))
    p1 = projective_space(1)
    return {
        "p1": p1,
        "p2": p2,
        "p3": projective_space(3),
        "p1xp1": product(p1, p1),
        "f1": hirzebruch(1),
        "f2": hirzebruch(2),
        "bl1": bl1,
        "bl2": bl2,
        "bl3": bl3,
    }


@dataclass
class SweepOutcome:
    """Counts of a ``thm11_sweep``.

    ``instances``, ``feasible``, ``verified``, ``certified`` and ``agreed``
    count (D', L) pairs; an instance is verified (certified, agreed) when
    the check of its (D', class of L) passed.  ``decided`` counts the
    distinct (D', class) pairs whose hypothesis was decided, ``checked``
    those of them that were feasible and checked.  ``failures`` holds one
    entry per failing instance, with its own coefficients, in sweep order.
    """

    instances: int = 0
    feasible: int = 0
    verified: int = 0
    certified: int = 0
    agreed: int = 0
    decided: int = 0
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return self.verified == self.feasible and not self.failures

    @property
    def all_certified(self) -> bool:
        return self.certified == self.feasible and self.agreed == self.feasible


def _decide(fan: Fan, dprime: tuple, l: InvariantDivisor, certify: bool):
    """None if the hypothesis fails for (D', L), else the direct report and,
    with ``certify``, the cross-validation that produced it."""
    witness = hypothesis_feasible(fan, l, dprime)
    if witness is None:
        return None
    if certify:
        both = cross_validate(fan, dprime, l, witness)
        return both.direct, both
    return verify_vanishing(fan, dprime, l, witness=witness), None


def thm11_sweep(fan: Fan, certify: bool = True,
                coeffs: Tuple[int, ...] = (0, 1, 2)) -> SweepOutcome:
    """Run the vanishing check on every hypothesis-feasible (D', L) of the
    sweep: every ray subset D', every L with coefficients from ``coeffs``;
    with ``certify``, both routes through ``cross_validate``.

    Each (D', class of L) is decided once, on the first L of the class, and
    its verdict counts for every member.  That is exact: the hypothesis
    reads L only through its wall numbers, and the sheaf
    Omega^p(log D')(-D') (x) O(L) only through O(L), both fixed by the class.
    The memo of verdicts is cleared for each D', so it holds at most one
    entry per class of the coefficient box.
    """
    out = SweepOutcome()
    vectors = [(InvariantDivisor(lc), class_representative(fan, lc))
               for lc in itertools.product(coeffs, repeat=fan.n_rays)]
    for size in range(fan.n_rays + 1):
        for dprime in itertools.combinations(range(fan.n_rays), size):
            verdicts = {}
            for l, key in vectors:
                out.instances += 1
                if key not in verdicts:
                    verdicts[key] = _decide(fan, dprime, l, certify)
                    out.decided += 1
                    out.checked += verdicts[key] is not None
                if verdicts[key] is None:
                    continue
                report, both = verdicts[key]
                out.feasible += 1
                if report.passed:
                    out.verified += 1
                else:
                    out.failures.append(("verify", dprime, l.coeffs, report.violations))
                if certify:
                    out.certified += both.certificate_ok
                    out.agreed += both.agree
                    if not both.certificate_ok:
                        out.failures.append(("certificate", dprime, l.coeffs, None))
                    if both.certificate_ok != report.passed:
                        out.failures.append(("disagree", dprime, l.coeffs, None))
    return out


def iter_integral_divisors(fan: Fan, bound: int):
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=fan.n_rays):
        yield InvariantDivisor(coeffs)


def serre_duality_failures(fan: Fan, bound: int = 3) -> list:
    """h^q(O(D)) vs h^{r-q}(O(K-D)) over the full coefficient box."""
    from .danilov import line_bundle_cohomology

    k = canonical_divisor(fan)
    r = fan.dim
    failures = []
    for d in iter_integral_divisors(fan, bound):
        left = line_bundle_cohomology(fan, d)
        right = line_bundle_cohomology(fan, k - d)
        if any(left[q] != right[r - q] for q in range(r + 1)):
            failures.append((d.coeffs, left, right))
    return failures


def log_serre_duality_failures(fan: Fan, rng: random.Random, count: int,
                               bound: int = 2) -> list:
    """Sampled check of h^q(spec(p,D',L-D')) = h^{r-q}(spec(r-p,D',-L))."""
    from .danilov import log_spec_dims
    from .divisors import rayset_divisor

    r = fan.dim
    failures = []
    for _ in range(count):
        dprime = tuple(sorted(rng.sample(range(fan.n_rays),
                                         rng.randint(0, fan.n_rays))))
        l = InvariantDivisor(tuple(rng.randint(-bound, bound)
                                   for _ in range(fan.n_rays)))
        p = rng.randint(0, r)
        left = log_spec_dims(fan, p, dprime, l - rayset_divisor(fan, dprime))
        right = log_spec_dims(fan, r - p, dprime, -l)
        if any(left[q] != right[r - q] for q in range(r + 1)):
            failures.append((p, dprime, l.coeffs, left, right))
    return failures


def sample_euler_instances(fans: Dict[str, Fan], rng: random.Random, count: int,
                           bound: int = 2) -> list:
    """Seeded (fan, D', h, L) tuples for the additivity check."""
    names = sorted(fans)
    out = []
    while len(out) < count:
        name = rng.choice(names)
        fan = fans[name]
        h = rng.randrange(fan.n_rays)
        others = [i for i in range(fan.n_rays) if i != h]
        dprime = tuple(sorted(rng.sample(others, rng.randint(0, len(others)))))
        l = InvariantDivisor(tuple(rng.randint(-bound, bound)
                                   for _ in range(fan.n_rays)))
        out.append((name, fan, dprime, h, l))
    return out


def hodge_chart_subsets(fan: Fan) -> list:
    """All D' for which the complement-in-one-chart condition holds."""
    all_rays = set(range(fan.n_rays))
    subsets = set()
    for cone in fan.max_cones:
        outside = tuple(sorted(all_rays - set(cone)))
        for extra in itertools.chain.from_iterable(
            itertools.combinations(sorted(cone), k) for k in range(fan.dim + 1)
        ):
            subsets.add(tuple(sorted(set(outside) | set(extra))))
    return sorted(subsets)
