"""Acceptance battery.

Every criterion is exact (no tolerances anywhere): vanishing dimensions,
duality pairings, Euler characteristics and the degree-family arithmetic
are integer facts.  One PASS/FAIL line is printed per criterion; run with

    pytest tests/test_acceptance.py -v -s
"""

import random

import pytest

from toricbott.counterexample import minimal_failing_degree, scenario
from toricbott.danilov import (
    cech_cohomology,
    euler_additivity_check,
    hodge_count_check,
    log_spec_dims,
    sheaf_spec,
)
from toricbott.divisors import InvariantDivisor, zero_divisor
from toricbott.exactmath import rank
from toricbott.fan import hirzebruch, projective_space
from toricbott.suite import (
    hodge_chart_subsets,
    log_serre_duality_failures,
    sample_euler_instances,
    serre_duality_failures,
    suite_fans,
    thm11_sweep,
)

SEED = 20240817


def _announce(number: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {text}", flush=True)


@pytest.fixture(scope="module")
def fans():
    return suite_fans()


@pytest.fixture(scope="module")
def sweep(fans):
    """Theorem sweep shared by criteria 1 and 2 (one pass over all fans)."""
    return {name: thm11_sweep(f, certify=True) for name, f in fans.items()}


def test_criterion_1_vanishing_sweep(sweep):
    total = sum(out.feasible for out in sweep.values())
    bad = [name for name, out in sweep.items() if not out.all_verified]
    ok = not bad and total > 0
    _announce(1, ok, f"verify_vanishing on {total} feasible instances "
                     f"across {len(sweep)} fans, zero violations")
    assert ok, f"violations on {bad}"


def test_criterion_2_certificate_round_trip(sweep):
    total = sum(out.feasible for out in sweep.values())
    bad = [name for name, out in sweep.items() if not out.all_certified]
    ok = not bad
    _announce(2, ok, f"build+check+cross-validate on {total} instances agree "
                     f"with the direct engine")
    assert ok, f"certificate failures on {bad}"


def test_criterion_3_negative_control(dense):
    p2 = projective_space(2)
    engine = cech_cohomology(p2, sheaf_spec(1, [], zero_divisor(p2)))
    # independent hand computation: the only contributing weight is 0, where
    # the three wall charts span (1,0), (0,1), (-1,1) and the full space
    # sits on the torus chart; d1 = [[1,0,-1],[0,-1,1]] has rank 2.
    hand_rank = rank(dense(((1, 0, -1), (0, -1, 1))))
    hand_h1 = (3 - hand_rank) - 0
    ok = engine.dims == (0, 1, 0) and hand_h1 == 1 and engine.dims[1] == hand_h1
    _announce(3, ok, "h^1(P^2, Omega^1) = 1 exactly, matching the hand Cech value")
    assert ok, engine.dims


def test_criterion_4_serre_duality(fans):
    failures = {}
    for name, f in fans.items():
        bad = serre_duality_failures(f, bound=3)
        if bad:
            failures[name] = bad[:3]
    rng = random.Random(SEED)
    log_bad = []
    for name in ("p1", "p2", "p1xp1", "f1", "f2", "bl1", "bl2"):
        log_bad.extend(log_serre_duality_failures(fans[name], rng, count=12))
    ok = not failures and not log_bad
    _announce(4, ok, "Serre duality for all |a|<=3 line bundles on all suite fans "
                     "and log Serre duality on the sampled sub-suite, exact equality")
    assert ok, (failures, log_bad[:3])


def test_criterion_5_euler_additivity(fans):
    rng = random.Random(SEED)
    samples = sample_euler_instances(fans, rng, count=70)
    instances = 0
    bad = []
    for name, f, dprime, h, l in samples:
        report = euler_additivity_check(f, dprime, h, l)
        instances += len(report.per_p)
        if not report.passed:
            bad.append((name, dprime, h, l.coeffs))
    ok = not bad and instances >= 200
    _announce(5, ok, f"Euler additivity across the residue sequence on "
                     f"{instances} seeded (fan, D', H, L, p) instances, exact")
    assert ok, bad[:3]


def test_criterion_6_hodge_counts(fans):
    checked = 0
    bad = []
    for name, f in fans.items():
        for dprime in hodge_chart_subsets(f):
            report = hodge_count_check(f, dprime)
            checked += 1
            if not report.passed:
                bad.append((name, dprime, report.sums, report.expected))
    ok = checked > 0 and not bad
    _announce(6, ok, f"Hodge count C(s,k) and h^(q>0)=0 on {checked} "
                     f"(fan, D') chart instances")
    assert ok, bad[:3]


def test_criterion_7_counterexample_arithmetic():
    r8 = scenario(8)
    rows = [scenario(d) for d in range(1, 51)]
    ok = (
        minimal_failing_degree() == 8
        and r8.genus == 21
        and r8.rr_lower_bound == 4
        and all(r.a_dot_D == r.b_dot_D == 1 for r in rows)
        and all(r.rr_lower_bound == r.genus - 1 - r.deg_L for r in rows)
        and all(2 * r.rr_lower_bound == r.d * r.d - 7 * r.d for r in rows)
    )
    _announce(7, ok, "degree family: minimal failing degree 8, g(8)=21, bound 4, "
                     "relative ampleness, the Riemann-Roch bound and its closed form "
                     "for 1<=d<=50")
    assert ok


def _draws(f, rng, count):
    """``count`` seeded (p, D', twist) draws on the fan ``f``."""
    for _ in range(count):
        p = rng.randint(0, f.dim)
        logset = tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays))))
        yield p, logset, InvariantDivisor(tuple(rng.randint(-2, 2) for _ in range(f.n_rays)))


def test_criterion_8_method_agreement(fans, brute_box):
    rng = random.Random(SEED)
    instances = [(name, f, draw) for name, f in sorted(fans.items())
                 for draw in _draws(f, rng, 4)]
    # a second stream on the fans with a ray entry of size >= 2, where the
    # walk's ceiling on such a margin row binds at an odd remainder
    for name, f in (("f2", fans["f2"]), ("f3", hirzebruch(3))):
        instances += [(name, f, draw) for draw in _draws(f, random.Random(SEED), 40)]
    bad = []
    for name, f, (p, logset, twist) in instances:
        s = sheaf_spec(p, logset, twist)
        chamber = cech_cohomology(f, s)
        box = brute_box(f, s)
        counted = log_spec_dims(f, p, logset, twist)
        # chamber.dims is checked to be the sum of its weight support
        if chamber.weight_support != box or counted != chamber.dims:
            bad.append((name, p, logset, twist.coeffs))
    ok = bool(instances) and not bad
    _announce(8, ok, f"chamber and provably-sufficient brute-box enumeration "
                     f"produce identical results, and the counted totals their dims, "
                     f"on {len(instances)} instances")
    assert ok, bad[:3]
