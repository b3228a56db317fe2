import dataclasses
import itertools
import random

import pytest

import toricbott.suite as suite
from toricbott.certifier import cross_validate
from toricbott.danilov import verify_vanishing
from toricbott.divisors import InvariantDivisor, hypothesis_feasible
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
    ("p2", 56, 24), ("p3", 144, 40), ("bl3", 27_200, 599)])
def test_sweep_decides_each_class_once(monkeypatch, name, decided, checked):
    # ``solved`` counts the decisions that called the hypothesis; the rest
    # were inferred along the D' lattice
    calls = []

    def counting(fan, l, dprime):
        calls.append(dprime)
        return hypothesis_feasible(fan, l, dprime)

    monkeypatch.setattr(suite, "hypothesis_feasible", counting)
    out = thm11_sweep(suite_fans()[name], certify=False)
    assert out.all_verified
    solved = {"p2": 13, "p3": 17, "bl3": 3_930}[name]
    assert (out.decided, out.checked, out.solved) == (decided, checked, solved)
    assert len(calls) == solved


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
    # the sweep counts an image D' by the check at its representative; for
    # every automorphism pi, the hypothesis and both routes of the check at
    # (pi D', pi_* L) must be those at (D', L)
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


def test_the_sweep_refuses_a_count_that_breaks_the_symmetry(monkeypatch):
    # swapping rays 0 and 1 of F_1 is no automorphism: D_0 has
    # self-intersection 0 and D_1 has -1.  Read as one, it makes (0,) the
    # representative of (1,), whose feasible count differs
    from operator import itemgetter

    from toricbott.fan import movers

    fan = suite_fans()["f1"]
    monkeypatch.setattr(suite, "movers", lambda f: movers(f) + (itemgetter(1, 0, 2, 3),))
    with pytest.raises(AssertionError) as raised:
        thm11_sweep(fan, certify=False)
    message = str(raised.value)
    assert str(fan) in message
    assert "D' (1,) has 60 feasible instances" in message
    assert "representative (0,) has 43" in message
