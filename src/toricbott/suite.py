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
members among the failures.  The sweep walks the D' lattice downward,
from all rays to the empty set.  The hypothesis is monotone in D' both
ways: a witness at D', extended by a zero, is one at every superset, so a
class infeasible at some superset of D' is infeasible at D'.  A class
infeasible at D' = all rays is never visited again; below it, a class
infeasible at some D' plus one ray is infeasible at D' with no test, and a
witness at D' plus one ray that is 0 on that ray, with the entry dropped,
is a witness at D'.  The hypothesis is monotone in L too: a witness d for
wall numbers b has W_{D'} d < b <= b', so it is a witness for every class
whose wall numbers b' are no smaller.  So at each D' a class that the
supersets leave open borrows the witness of a class that the hypothesis
test decided feasible there, if that class's wall numbers are at most its
own.

The sweep has one orbit rule, through the fan's automorphisms
(``fan.automorphisms``).  An automorphism pi carries D_rho to D_pi(rho),
so it carries (D', L) to (pi D', pi_* L): it keeps L - dD' ample, with d
permuted, and the cohomology of Omega^p(log D')(-D') (x) O(L).  The
coefficient box must be the same on every ray; pi then maps it onto
itself and each class onto a class of the same size.  So a passing check
of (D', class of L) covers every image (pi D', class of pi_* L), and a
covered class is counted without a check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import itemgetter, le
from typing import Dict, Tuple

from .certifier import cross_validate
from .danilov import verify_vanishing
from .divisors import (InvariantDivisor, canonical_divisor, class_representative,
                       hypothesis_feasible, require_witness, wall_numbers)
from .fan import Fan, hirzebruch, movers, product, projective_space, star_subdivision


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
    the check of its (D', class of L), or of an image of that pair under
    the fan's automorphisms, passed.  ``decided`` counts the distinct
    (D', class) pairs whose hypothesis was decided, ``checked`` the checks
    that ran (one per feasible (D', class) that no passing check covers),
    and ``solved`` the decisions made through
    ``hypothesis_feasible``; the others were inferred along the D' lattice,
    or from a class with no larger wall numbers at the same D'.
    ``failures`` holds one entry per failing instance, with its own
    coefficients, ordered by D' (by size, then lexicographically), then by
    the instance's index in the coefficient box.
    """

    instances: int = 0
    feasible: int = 0
    verified: int = 0
    certified: int = 0
    agreed: int = 0
    decided: int = 0
    checked: int = 0
    solved: int = 0
    failures: list = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return self.verified == self.feasible and not self.failures

    @property
    def all_certified(self) -> bool:
        return self.certified == self.feasible and self.agreed == self.feasible


def _inherited(supersets: list, cls: int):
    """The verdict for class ``cls`` at D' read off the one-larger supersets
    D' + {j}, given as (witnesses there by class, position of j) pairs: None
    if the class is infeasible at one of them; a witness there with 0 at j,
    with that entry dropped; or False if neither, and ``_decide`` decides.
    The first superset that settles it is right: a class with such a
    witness is feasible at D', so at every superset of D'."""
    for witnesses, at in supersets:
        witness = witnesses.get(cls)
        if witness is None or witness[at] == 0:
            return witness and witness[:at] + witness[at + 1:]
    return False


def _decide(out: SweepOutcome, fan: Fan, l: InvariantDivisor, dprime: tuple,
            kept: list):
    """The hypothesis witness for L at D', or None.  ``kept`` holds the
    (wall numbers, witness) pairs that ``hypothesis_feasible`` found at this
    D'; a pair whose wall numbers are at most L's, entry by entry, lends its
    witness, since W_{D'} d < b <= W L.  Otherwise the test decides, is
    counted in ``solved``, and a nonzero witness is kept.  A d = 0 witness
    is not: a class bounded below by an ample class is ample, and the test
    finds d = 0 for it with no LP."""
    numbers = wall_numbers(fan, l)
    for bound, witness in kept:
        if all(map(le, bound, numbers)):
            return witness
    witness = hypothesis_feasible(fan, l, dprime)
    out.solved += 1
    if witness is not None and any(witness):
        kept.append((numbers, witness))
    return witness


def _check(out: SweepOutcome, fan: Fan, dprime: tuple, members: list,
           witness: tuple, certify: bool) -> list:
    """Check one feasible (D', class), tally it once per member and return
    its failures as (member index, failure) pairs."""
    l = members[0][1]
    if certify:
        both = cross_validate(fan, dprime, l, witness)
        report = both.direct
    else:
        report = verify_vanishing(fan, dprime, l, witness=witness)
    n = len(members)
    out.checked += 1
    out.feasible += n
    out.verified += n * report.passed
    kinds = [] if report.passed else [("verify", report.violations)]
    if certify:
        out.certified += n * both.certificate_ok
        out.agreed += n * both.agree
        kinds += [] if both.certificate_ok else [("certificate", None)]
        kinds += [] if both.certificate_ok == report.passed else [("disagree", None)]
    return [(index, (kind, dprime, m.coeffs, detail))
            for index, m in members for kind, detail in kinds]


def _count_passed(out: SweepOutcome, n: int, certify: bool) -> None:
    """Tally ``n`` feasible instances of a covered class, without a check."""
    out.feasible += n
    out.verified += n
    out.certified += certify * n
    out.agreed += certify * n


def thm11_sweep(fan: Fan, certify: bool = True,
                coeffs: Tuple[int, ...] = (0, 1, 2)) -> SweepOutcome:
    """Run the vanishing check on every hypothesis-feasible (D', L) of the
    sweep: every ray subset D', every L with coefficients from ``coeffs``;
    with ``certify``, both routes through ``cross_validate``.

    The coefficient vectors are grouped once by class of L, and each
    (D', class) is decided once, on the first member, with its verdict
    counted for every member.  That is exact: the hypothesis reads L only
    through its wall numbers, and the sheaf Omega^p(log D')(-D') (x) O(L)
    only through O(L), both fixed by the class.

    The hypothesis is monotone in D': a witness at D', extended by zeros,
    is one at every superset, so a class infeasible at D' is infeasible at
    every subset.  So each class is decided first at D' = all rays, and a
    class infeasible there is never visited again.  The others are walked
    downward by size of D', from n - 1 rays to none, and lexicographically
    within a size.  At each D' the one-larger supersets D' + {j} of the
    previous size, and the position of j in each, are listed once, and
    ``_inherited`` reads each class off them: a class infeasible at one of
    them is infeasible at D'; otherwise a witness there with 0 at j, with
    that entry dropped, is a witness at D'.  A class with neither, and
    every class at D' = all rays, goes to ``_decide``: the hypothesis is
    monotone in L's wall numbers, so a class borrows the witness of a class
    that ``hypothesis_feasible`` decided feasible at the same D' with wall
    numbers at most its own, and only a class with no such lender calls
    ``hypothesis_feasible``.  The lenders are listed afresh at each D'.
    Only the feasible witnesses of the previous size are held.  Each D''s
    failures are listed in instance order, and one stable sort by D' at the
    end puts them in the order of ``SweepOutcome.failures``.

    One orbit rule spares checks: when a check passes, the sweep covers
    the images (pi D', class of pi_* L) of its D' and first member under
    every mover of ``fan.movers``, the table that ``danilov._Engine.orbit``
    reads.  pi maps the box onto itself, so every image is a member of the
    sweep; the images are looked up in one table from each member of a
    class feasible at all rays to its class.  At each D' a feasible class
    that is covered runs no check and is counted as verified, and with
    ``certify`` as certified and agreed; every other feasible class is
    checked.  A class covered by a check at its own D' (pi fixes D') has
    its witness re-checked by ``require_witness``; a class covered from
    another D' does not.  pi keeps the size of D', so once every D' of a
    size is walked, every class covered there must be feasible at its D'
    (AssertionError if not, and if an image is in no class of the table).
    A failing check covers nothing, so the images of a failing class are
    checked themselves and ``failures`` lists every failing instance.
    """
    out = SweepOutcome()
    classes = {}
    for index, lc in enumerate(itertools.product(coeffs, repeat=fan.n_rays)):
        classes.setdefault(class_representative(fan, lc), []).append(
            (index, InvariantDivisor(lc)))
    rays = tuple(range(fan.n_rays))
    kept = []
    top = [(members, _decide(out, fan, members[0][1], rays, kept))
           for members in classes.values()]
    top = [(members, witness) for members, witness in top if witness is not None]
    member_class = {m.coeffs: cls for cls, (members, _) in enumerate(top) for _, m in members}
    moves = movers(fan)
    above = {}
    for size in range(fan.n_rays, -1, -1):
        level = {}
        covered = {}
        for dprime in itertools.combinations(rays, size):
            out.instances += len(coeffs) ** fan.n_rays
            out.decided += len(classes)
            flags = tuple(i in dprime for i in rays)
            images = [(tuple(i for i, x in enumerate(move(flags)) if x), move) for move in moves]
            supersets = [(above[tuple(sorted(dprime + (j,)))], sum(i < j for i in dprime))
                         for j in rays if j not in dprime]
            found = level[dprime] = {}
            kept = []
            failures = []
            for cls, (members, witness) in enumerate(top):
                if dprime != rays:
                    witness = _inherited(supersets, cls)
                if witness is False:
                    witness = _decide(out, fan, members[0][1], dprime, kept)
                if witness is None:
                    continue
                found[cls] = witness
                if (dprime, cls) in covered:
                    if covered[dprime, cls][0] == dprime:
                        require_witness(fan, members[0][1], dprime, witness)
                    _count_passed(out, len(members), certify)
                    continue
                failed = _check(out, fan, dprime, members, witness, certify)
                failures += failed
                if not failed:
                    for image, move in images:
                        moved = move(members[0][1].coeffs)
                        covered.setdefault((image, member_class.get(moved)), (dprime, moved))
            failures.sort(key=itemgetter(0))
            out.failures += [failure for _, failure in failures]
        for (dprime, cls), (source, moved) in covered.items():
            if cls not in level[dprime]:
                raise AssertionError(
                    f"{fan}: an automorphism carries a passing check at D' {source} onto "
                    f"D' {dprime} and the class of {moved}, which is not feasible there")
        above = level
    out.failures.sort(key=lambda failure: (len(failure[1]), failure[1]))
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


def log_serre_duality_failures(fan: Fan, rng: random.Random, count: int) -> list:
    """Sampled check of h^q(spec(p,D',L-D')) = h^{r-q}(spec(r-p,D',-L)),
    L with coefficients in [-2, 2]."""
    from .danilov import log_spec_dims
    from .divisors import rayset_divisor

    r = fan.dim
    failures = []
    for _ in range(count):
        dprime = tuple(sorted(rng.sample(range(fan.n_rays),
                                         rng.randint(0, fan.n_rays))))
        l = InvariantDivisor(tuple(rng.randint(-2, 2)
                                   for _ in range(fan.n_rays)))
        p = rng.randint(0, r)
        left = log_spec_dims(fan, p, dprime, l - rayset_divisor(fan, dprime))
        right = log_spec_dims(fan, r - p, dprime, -l)
        if any(left[q] != right[r - q] for q in range(r + 1)):
            failures.append((p, dprime, l.coeffs, left, right))
    return failures


def sample_euler_instances(fans: Dict[str, Fan], rng: random.Random, count: int) -> list:
    """Seeded (fan, D', h, L) tuples for the additivity check, L with
    coefficients in [-2, 2]."""
    names = sorted(fans)
    out = []
    while len(out) < count:
        name = rng.choice(names)
        fan = fans[name]
        h = rng.randrange(fan.n_rays)
        others = [i for i in range(fan.n_rays) if i != h]
        dprime = tuple(sorted(rng.sample(others, rng.randint(0, len(others)))))
        l = InvariantDivisor(tuple(rng.randint(-2, 2)
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
