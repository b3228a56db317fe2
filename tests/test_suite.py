import dataclasses
import itertools

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
    ("p2", 56, 48), ("p3", 144, 128), ("bl3", 27_200, 2_800)])
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
