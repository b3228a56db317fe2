import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import toricbott.divisors as divisors
import toricbott.suite as suite
from toricbott.certifier import cross_validate
from toricbott.danilov import verify_vanishing
from toricbott.divisors import InvariantDivisor, hypothesis_feasible, wall_numbers
from toricbott.suite import SweepOutcome, suite_fans, thm11_sweep


def per_instance_sweep(fan, certify, coeffs):
    """Reference sweep: the hypothesis and the check run for every (D', L)."""
    out = SweepOutcome()
    for size in range(fan.n_rays + 1):
        for dprime in itertools.combinations(range(fan.n_rays), size):
            for lc in itertools.product(coeffs, repeat=fan.n_rays):
                l = InvariantDivisor(lc)
                out.instances += 1
                witness = hypothesis_feasible(fan, l, dprime)
                if witness is None:
                    continue
                out.feasible += 1
                both = cross_validate(fan, dprime, l, witness) if certify else None
                report = both.direct if certify else verify_vanishing(fan, dprime, l,
                                                                      witness=witness)
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


def assert_matches_the_per_instance_sweep(name, coeffs, certify):
    fan = suite_fans()[name]
    out = thm11_sweep(fan, certify=certify, coeffs=coeffs)
    assert 0 < out.solved <= out.decided and 0 < out.checked <= out.decided <= out.instances
    assert dataclasses.replace(out, decided=0, checked=0, solved=0) == per_instance_sweep(
        fan, certify=certify, coeffs=coeffs)


@pytest.mark.parametrize("name, coeffs", [
    (name, coeffs) for name in ("p1", "p2", "p1xp1", "f1", "f2", "bl1")
    for coeffs in ((0, 1, 2), (-1, 0, 1, 2))
] + [("p3", (0, 1, 2))])
@pytest.mark.parametrize("certify", [True, False])
def test_class_sweep_matches_the_per_instance_sweep(name, coeffs, certify):
    assert_matches_the_per_instance_sweep(name, coeffs, certify)


@pytest.mark.parametrize("coeffs", [(0, 1, 2), (-1, 0, 1, 2)])
def test_class_sweep_matches_the_per_instance_sweep_on_bl2(coeffs):
    # the fans above make at most 22 exact LPs; the per-instance sweep on
    # bl2 makes hundreds, so here inherited witnesses stand in for LP ones
    assert_matches_the_per_instance_sweep("bl2", coeffs, certify=False)


def test_a_failing_class_lists_every_member_in_instance_order(monkeypatch):
    # fail the class of degree 4 on P^2, whatever D'; every feasible member
    # must be a failure of its own, with its own coefficients
    fan = suite_fans()["p2"]
    original = suite.verify_vanishing

    def failing(f, dprime, l, witness=None):
        report = original(f, dprime, l, witness=witness)
        if sum(l.coeffs) == 4:
            report = dataclasses.replace(report, passed=False, violations=((1, 1, 1),))
        return report

    monkeypatch.setattr(suite, "verify_vanishing", failing)
    out = thm11_sweep(fan, certify=False)
    expected = [("verify", dprime, lc, ((1, 1, 1),))
                for size in range(4) for dprime in itertools.combinations(range(3), size)
                for lc in itertools.product((0, 1, 2), repeat=3)
                if sum(lc) == 4
                and hypothesis_feasible(fan, InvariantDivisor(lc), dprime) is not None]
    assert len(expected) > 6
    assert out.failures == expected
    assert out.verified == out.feasible - len(expected)


@pytest.mark.parametrize("name, decided, checked", [
    ("p1", 20, 12), ("p2", 56, 24), ("p3", 144, 40), ("p1xp1", 400, 78), ("f1", 464, 180),
    ("f2", 528, 168), ("bl1", 464, 180), ("bl2", 3_680, 458), ("bl3", 27_200, 336)])
def test_sweep_decides_each_class_once(monkeypatch, name, decided, checked):
    # ``solved`` counts the decisions that called the hypothesis; the rest
    # were inferred from the one-larger supersets of D' or lent by a class
    # with no larger wall numbers at the same D'.  ``checked`` skips every
    # class that a passing check covers: its images under the fan's
    # automorphisms, at the same D' (none on P2 and P3) or at another
    calls = []
    lps = []
    lp = divisors.lp_feasible_strict

    def counting(fan, l, dprime):
        calls.append(dprime)
        return hypothesis_feasible(fan, l, dprime)

    def counting_lp(*args):
        lps.append(args)
        return lp(*args)

    monkeypatch.setattr(suite, "hypothesis_feasible", counting)
    monkeypatch.setattr(divisors, "lp_feasible_strict", counting_lp)
    out = thm11_sweep(suite_fans()[name], certify=False)
    assert out.all_verified
    solved = {"p1": 5, "p2": 7, "p3": 9, "p1xp1": 25, "f1": 30, "f2": 35, "bl1": 30,
              "bl2": 123, "bl3": 515}[name]
    assert (out.decided, out.checked, out.solved) == (decided, checked, solved)
    assert len(calls) == solved
    assert len(lps) == {"f1": 1, "f2": 2, "bl1": 1, "bl2": 4, "bl3": 30}.get(name, 0)


def test_a_verdict_is_inherited_from_the_one_larger_supersets():
    # each superset D' + {j} gives its witnesses by class and the position
    # of j in it; a class missing from one is infeasible at D', a witness
    # with 0 at j is one at D' with that entry dropped, and witnesses with
    # no such zero leave the hypothesis test to decide
    half = Fraction(1, 2)
    at_02 = {0: (1, 0), 1: (half, 1), 2: (half, half)}
    at_12 = {0: (1, 1), 1: (0, half), 2: (1, half)}
    supersets = [(at_02, 1), (at_12, 0)]
    assert suite._inherited(supersets, 0) == (1,)
    assert suite._inherited(supersets, 1) == (half,)
    assert suite._inherited(supersets, 2) is False
    assert suite._inherited([({1: (0, 0)}, 0)] + supersets, 0) is None
    assert suite._inherited([(at_02, 1), ({0: (1, 1)}, 0)], 2) is None
    assert suite._inherited([({0: (0,)}, 0)], 0) == ()
    assert suite._inherited([], 0) is False


def test_a_kept_witness_is_lent_to_a_class_with_no_smaller_wall_numbers(monkeypatch):
    # F2, D' = {D_1}: the LP finds d = 2/3 for (0, 1, 1, 0), whose wall
    # numbers are (1, -1, 1, 1).  W_{D'} d < b <= b' makes it a witness for
    # every class whose wall numbers b' are no smaller
    f2 = suite_fans()["f2"]
    calls = []

    def counting(fan, l, dprime):
        calls.append(l.coeffs)
        return hypothesis_feasible(fan, l, dprime)

    monkeypatch.setattr(suite, "hypothesis_feasible", counting)
    out = SweepOutcome()
    kept = []
    l = InvariantDivisor((0, 1, 1, 0))
    assert suite._decide(out, f2, l, (1,), kept) == (Fraction(2, 3),)
    assert kept == [((1, -1, 1, 1), (Fraction(2, 3),))] and out.solved == 1
    # (2, 0, 2, 4) >= (1, -1, 1, 1): lent with no hypothesis call, where the
    # LP would find 1/2
    larger = InvariantDivisor((0, 1, 2, 1))
    assert wall_numbers(f2, larger) == (2, 0, 2, 4)
    assert hypothesis_feasible(f2, larger, (1,)) == (Fraction(1, 2),)
    assert suite._decide(out, f2, larger, (1,), kept) == (Fraction(2, 3),)
    assert calls == [l.coeffs] and out.solved == 1
    # (3, -3, 3, 3) is below on one wall only: the test decides, and finds none
    below = InvariantDivisor((0, 2, 1, 1))
    assert wall_numbers(f2, below) == (3, -3, 3, 3)
    assert suite._decide(out, f2, below, (1,), kept) is None
    assert calls == [l.coeffs, below.coeffs] and out.solved == 2 and len(kept) == 1
    # a d = 0 witness, L itself ample, is not kept
    kept = []
    ample = InvariantDivisor((1, 1, 2, 0))
    assert wall_numbers(f2, ample) == (1, 1, 1, 3)
    assert suite._decide(out, f2, ample, (1,), kept) == (0,)
    assert kept == [] and out.solved == 3


def _image(perm, dprime, coeffs, witness=None):
    """(pi D', pi_* L) for the ray permutation pi, which carries D_rho to
    D_pi(rho), and with ``witness`` also d moved along with D'."""
    moved = [0] * len(coeffs)
    for rho, c in enumerate(coeffs):
        moved[perm[rho]] = c
    image = tuple(sorted(perm[rho] for rho in dprime))
    if witness is None:
        return image, InvariantDivisor(tuple(moved))
    at = {perm[rho]: d for rho, d in zip(dprime, witness)}
    return image, InvariantDivisor(tuple(moved)), tuple(at[rho] for rho in image)


def test_fan_automorphisms_carry_the_sweep_check_to_its_image():
    # the sweep counts (pi D', class of pi_* L) by a passing check at
    # (D', L); for every automorphism pi, the hypothesis and both routes of
    # the check there must be those at (D', L)
    from toricbott.danilov import _engine
    from toricbott.divisors import require_witness
    from toricbott.fan import automorphisms

    rng = random.Random(4021)
    fans = suite_fans()
    feasible = infeasible = 0
    for name in ("p2", "p3", "p1xp1", "bl3"):
        f = fans[name]
        for perm in automorphisms(f):
            for _ in range(2):
                dprime = tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays))))
                coeffs = tuple(rng.randint(0, 2) for _ in range(f.n_rays))
                l = InvariantDivisor(coeffs)
                witness = hypothesis_feasible(f, l, dprime)
                image, moved = _image(perm, dprime, coeffs)
                found = hypothesis_feasible(f, moved, image)
                assert (witness is None) == (found is None), (name, perm, dprime, coeffs)
                if witness is None:
                    infeasible += 1
                    continue
                feasible += 1
                require_witness(f, moved, image, found)
                _, _, carried = _image(perm, dprime, coeffs, witness)
                require_witness(f, moved, image, carried)
                expected = cross_validate(f, dprime, l, witness)
                # the engine stores each pass under every image of its key,
                # so the image is computed on an emptied engine
                _engine.cache_clear()
                got = cross_validate(f, image, moved, found)
                assert (got.certificate_ok, got.agree) == (expected.certificate_ok,
                                                           expected.agree)
                assert (got.direct.passed, got.direct.violations, got.direct.per_p) == (
                    expected.direct.passed, expected.direct.violations,
                    expected.direct.per_p), (name, perm, dprime, coeffs)
    assert feasible > 20 and infeasible > 20


def test_the_sweep_refuses_a_mover_that_is_no_automorphism(monkeypatch):
    # a fake mover read as an automorphism carries a passing check onto a
    # (D', class) that is not feasible.  Swapping rays 2 and 3 of F_1 is
    # none (D_2 has self-intersection 0, D_3 has 1); it fixes D' = all
    # rays, the first D' of the walk.  Swapping rays 0 and 1
    # (self-intersections 0 and -1) is caught at |D'| = 3, from a check at
    # a D' that the walk reaches after the image, and rotating bl2's rays by
    # two at |D'| = 4
    from operator import itemgetter

    from toricbott.fan import movers

    fans = suite_fans()
    for name, fake, message in [
        ("f1", itemgetter(0, 1, 3, 2),
         "an automorphism carries a passing check at D' (0, 1, 2, 3) onto D' (0, 1, 2, 3) "
         "and the class of (0, 0, 1, 0), which is not feasible there"),
        ("f1", itemgetter(1, 0, 2, 3),
         "an automorphism carries a passing check at D' (1, 2, 3) onto D' (0, 2, 3) "
         "and the class of (0, 2, 2, 2), which is not feasible there"),
        ("bl2", itemgetter(2, 3, 4, 0, 1),
         "an automorphism carries a passing check at D' (0, 1, 2, 3) onto D' (0, 1, 3, 4) "
         "and the class of (1, 0, 2, 2, 2), which is not feasible there"),
    ]:
        monkeypatch.setattr(suite, "movers", lambda f, fake=fake: movers(f) + (fake,))
        with pytest.raises(AssertionError) as raised:
            thm11_sweep(fans[name], certify=False)
        assert str(raised.value) == f"{fans[name]}: {message}"


@pytest.mark.parametrize("name", ["p1xp1", "bl2", "bl3"])
def test_each_covered_class_passes_as_its_orbit_representative(monkeypatch, name):
    # a class covered by a check at its own D' (under the stabilizer of D')
    # runs no check in the sweep; checked here with the sweep's witness,
    # which the sweep re-checks, on an emptied engine,
    # it must pass with the dimensions of a checked class that a
    # stabilizer automorphism carries onto it
    from toricbott.danilov import _engine
    from toricbott.divisors import class_representative
    from toricbott.fan import movers

    fan = suite_fans()[name]
    checked = {}
    covered = []
    original_check, original_require = suite.verify_vanishing, suite.require_witness

    def checking(f, dprime, l, witness=None):
        report = original_check(f, dprime, l, witness=witness)
        checked.setdefault(dprime, []).append((l.coeffs, report.per_p))
        return report

    def requiring(f, l, dprime, witness):
        covered.append((dprime, l, witness))
        return original_require(f, l, dprime, witness)

    monkeypatch.setattr(suite, "verify_vanishing", checking)
    monkeypatch.setattr(suite, "require_witness", requiring)
    assert thm11_sweep(fan, certify=False).all_verified
    assert covered
    _engine.cache_clear()
    for dprime, l, witness in covered:
        report = verify_vanishing(fan, dprime, l, witness=witness)
        assert report.passed, (name, dprime, l.coeffs)
        flags = tuple(i in dprime for i in range(fan.n_rays))
        target = class_representative(fan, l.coeffs)
        reps = [per_p for coeffs, per_p in checked[dprime] for move in movers(fan)
                if move(flags) == flags and class_representative(fan, move(coeffs)) == target]
        assert reps and all(per_p == report.per_p for per_p in reps), (name, dprime, l.coeffs)


@pytest.mark.parametrize("name, count", [("p1xp1", 160), ("bl2", 314)])
def test_each_class_covered_from_another_dprime_passes_as_its_image(monkeypatch, name, count):
    # a class that a passing check at another D' covers runs neither a
    # check nor a re-check in the sweep.  Those classes are the images of
    # the checks at other D' that the sweep neither checked nor re-checked,
    # and with those two they hold every feasible instance.  Decided and
    # checked here on an emptied engine, each must pass with the dimensions
    # of every check that an automorphism carries onto it
    from collections import Counter

    from toricbott.danilov import _engine
    from toricbott.divisors import class_representative
    from toricbott.fan import automorphisms

    fan = suite_fans()[name]
    checked, rechecked = {}, set()
    original_check, original_require = suite.verify_vanishing, suite.require_witness

    def checking(f, dprime, l, witness=None):
        report = original_check(f, dprime, l, witness=witness)
        checked[dprime, class_representative(f, l.coeffs)] = (l.coeffs, report.per_p)
        return report

    def requiring(f, l, dprime, witness):
        rechecked.add((dprime, class_representative(f, l.coeffs)))
        return original_require(f, l, dprime, witness)

    monkeypatch.setattr(suite, "verify_vanishing", checking)
    monkeypatch.setattr(suite, "require_witness", requiring)
    out = thm11_sweep(fan, certify=False)
    assert out.all_verified
    onto = {}
    for (dprime, _), (coeffs, per_p) in checked.items():
        for perm in automorphisms(fan):
            image, moved = _image(perm, dprime, coeffs)
            if image != dprime:
                key = (image, class_representative(fan, moved.coeffs))
                onto.setdefault(key, (moved, []))[1].append(per_p)
    covered = set(onto) - set(checked) - rechecked
    assert len(covered) == count
    sizes = Counter(class_representative(fan, lc)
                    for lc in itertools.product((0, 1, 2), repeat=fan.n_rays))
    assert out.feasible == sum(sizes[cls] for _, cls in covered | rechecked | set(checked))
    _engine.cache_clear()
    for dprime, cls in covered:
        l, per_ps = onto[dprime, cls]
        witness = hypothesis_feasible(fan, l, dprime)
        assert witness is not None, (name, dprime, l.coeffs)
        report = verify_vanishing(fan, dprime, l, witness=witness)
        assert report.passed and all(per_p == report.per_p for per_p in per_ps), (
            name, dprime, l.coeffs)


def test_a_failing_class_has_its_image_classes_checked(monkeypatch):
    # fail bidegree (1, 2) on P1 x P1 at D' = (); swapping the factors fixes
    # D' and carries it onto bidegree (2, 1), which the passing sweep covers.
    # Now that class must be checked itself, and every instance counted as
    # by a check at every (D', L)
    fan = suite_fans()["p1xp1"]
    original = verify_vanishing
    failing = set()
    seen = []

    def patched(f, dprime, l, witness=None):
        report = original(f, dprime, l, witness=witness)
        bidegree = (l.coeffs[0] + l.coeffs[1], l.coeffs[2] + l.coeffs[3])
        seen.append((dprime, bidegree))
        if dprime == () and bidegree in failing:
            report = dataclasses.replace(report, passed=False, violations=((1, 1, 1),))
        return report

    monkeypatch.setattr(suite, "verify_vanishing", patched)
    assert thm11_sweep(fan, certify=False).checked == 78
    assert ((), (1, 2)) in seen and ((), (2, 1)) not in seen
    failing.add((1, 2))
    seen.clear()
    out = thm11_sweep(fan, certify=False)
    assert ((), (2, 1)) in seen and out.checked == 79
    assert out.failures and all(failure[1] == () for failure in out.failures)
    monkeypatch.setitem(globals(), "verify_vanishing", patched)
    assert dataclasses.replace(out, decided=0, checked=0, solved=0) == per_instance_sweep(
        fan, certify=False, coeffs=(0, 1, 2))


def test_serre_duality_lists_a_wrong_cohomology_entry(wrong_h0):
    # h^0(O) read as 2 breaks duality with O(K) both ways
    p2 = suite_fans()["p2"]
    assert suite.serre_duality_failures(p2, bound=1) == []
    wrong_h0(lambda f, logset, twist: twist == (0, 0, 0))
    failures = suite.serre_duality_failures(p2, bound=1)
    assert sorted(failures) == [((-1, -1, -1), (0, 0, 1), (2, 0, 0)),
                                ((0, 0, 0), (2, 0, 0), (0, 0, 1))]


def test_log_serre_duality_lists_a_wrong_cohomology_entry(wrong_h0):
    # h^0 read one higher at p = 0 breaks the pairing of p = 0 with p = r,
    # and only that
    p2 = suite_fans()["p2"]
    assert suite.log_serre_duality_failures(p2, random.Random(0), 25) == []
    wrong_h0(lambda f, logset, twist: True)
    failures = suite.log_serre_duality_failures(p2, random.Random(0), 25)
    assert failures and all(p in (0, 2) for p, *_ in failures)
