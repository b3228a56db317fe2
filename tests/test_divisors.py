import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.exactmath import lp_feasible_strict
from toricbott.divisors import (
    InvariantDivisor,
    canonical_divisor,
    cartier_data,
    divisor_from_dict,
    divisor_to_dict,
    hypothesis_feasible,
    intersect_wall,
    is_ample,
    is_nef,
    is_projective,
    principal_divisor,
    ray_divisor,
    require_witness,
    residual_divisor,
    restrict_to_stratum,
    sorted_logset,
    wall_numbers,
    zero_divisor,
)
from toricbott.fan import (
    hirzebruch,
    product,
    projective_space,
    walls,
)
from toricbott.suite import suite_fans

P1 = projective_space(1)
P2 = projective_space(2)


def test_cartier_data_p2():
    cd = cartier_data(P2, ray_divisor(P2, 0))
    cone_index = P2.max_cones.index((0, 1))
    assert cd.per_cone[cone_index] == (-1, 0)


def test_cartier_data_zero():
    cd = cartier_data(P2, zero_divisor(P2))
    assert all(m == (0, 0) for m in cd.per_cone)


def test_cartier_data_p1():
    d = InvariantDivisor((1, 0)) if P1.rays[0] == (1,) else InvariantDivisor((0, 1))
    cd = cartier_data(P1, d)
    plus = P1.max_cones.index((P1.rays.index((1,)),))
    minus = P1.max_cones.index((P1.rays.index((-1,)),))
    assert cd.per_cone[plus] == (-1,)
    assert cd.per_cone[minus] == (0,)


def test_canonical_divisors():
    assert canonical_divisor(P2).coeffs == (-1, -1, -1)
    assert canonical_divisor(P1).coeffs == (-1, -1)
    p1xp1 = product(P1, P1)
    assert canonical_divisor(p1xp1).coeffs == (-1, -1, -1, -1)


def test_o1_meets_every_line_once():
    d = ray_divisor(P2, 0)
    assert [intersect_wall(P2, d, w) for w in walls(P2)] == [1, 1, 1]


def test_zero_divisor_meets_nothing():
    assert all(intersect_wall(P2, zero_divisor(P2), w) == 0 for w in walls(P2))


def test_f1_has_a_minus_one_curve():
    # With rays (1,0),(0,1),(-1,1),(0,-1) the exceptional section is ray 1.
    f1 = hirzebruch(1)
    d = ray_divisor(f1, 1)
    wall = next(w for w in walls(f1) if w.tau == (1,))
    assert intersect_wall(f1, d, wall) == -1


def test_self_intersections_on_f2():
    f2 = hirzebruch(2)
    selfints = {}
    for i in range(4):
        wall = next(w for w in walls(f2) if w.tau == (i,))
        selfints[f2.rays[i]] = intersect_wall(f2, ray_divisor(f2, i), wall)
    assert selfints[(0, 1)] == -2
    assert selfints[(1, 0)] == 0


def test_ample_nef_examples():
    d0 = ray_divisor(P2, 0)
    assert is_ample(P2, d0)
    assert is_nef(P2, zero_divisor(P2)) and not is_ample(P2, zero_divisor(P2))
    assert not is_nef(P2, -1 * d0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(suite_fans())),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.randoms(use_true_random=False),
)
def test_intersection_is_linear(name, a, b, rnd):
    f = suite_fans()[name]
    d1 = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    d2 = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    combo = a * d1 + b * d2
    lhs = wall_numbers(f, combo)
    rhs = tuple(a * x + b * y for x, y in zip(wall_numbers(f, d1), wall_numbers(f, d2)))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(suite_fans())), st.randoms(use_true_random=False))
def test_principal_divisors_meet_nothing(name, rnd):
    f = suite_fans()[name]
    m = tuple(rnd.randint(-3, 3) for _ in range(f.dim))
    d = principal_divisor(f, m)
    assert all(v == 0 for v in wall_numbers(f, d))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(suite_fans())), st.randoms(use_true_random=False))
def test_ample_implies_nef_and_sums(name, rnd):
    f = suite_fans()[name]
    found = []
    for _ in range(40):
        d = InvariantDivisor(tuple(rnd.randint(0, 3) for _ in range(f.n_rays)))
        if is_ample(f, d):
            found.append(d)
        if len(found) == 2:
            break
    for d in found:
        assert is_nef(f, d)
    if len(found) == 2:
        assert is_ample(f, found[0] + found[1])


def test_hypothesis_examples():
    d0 = ray_divisor(P2, 0)
    assert hypothesis_feasible(P2, d0, (1,)) is not None
    assert hypothesis_feasible(P2, zero_divisor(P2), (0,)) is None
    w = hypothesis_feasible(P2, 2 * d0, (0, 1, 2))
    assert w is not None
    assert is_ample(P2, residual_divisor(P2, 2 * d0, (0, 1, 2), w))


def test_sorted_logset_sorts_and_checks_the_range():
    assert sorted_logset(P2, (2, 0, 2)) == (0, 2)
    for bad in ((3,), (-1,), (0, 7)):
        with pytest.raises(ValueError, match="out of range"):
            sorted_logset(P2, bad)
        with pytest.raises(ValueError, match="out of range"):
            hypothesis_feasible(P2, ray_divisor(P2, 0), bad)
        with pytest.raises(ValueError, match="out of range"):
            require_witness(P2, ray_divisor(P2, 0), bad, (0,) * len(bad))


def test_hypothesis_with_empty_logset_is_ampleness():
    for name, f in suite_fans().items():
        if f.n_rays > 4:
            continue
        for coeffs in itertools.product((0, 1), repeat=f.n_rays):
            l = InvariantDivisor(coeffs)
            assert (hypothesis_feasible(f, l, ()) is not None) == is_ample(f, l)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(suite_fans())), st.randoms(use_true_random=False))
def test_hypothesis_witness_is_valid(name, rnd):
    f = suite_fans()[name]
    l = InvariantDivisor(tuple(rnd.randint(0, 2) for _ in range(f.n_rays)))
    dprime = tuple(
        sorted(rnd.sample(range(f.n_rays), rnd.randint(0, f.n_rays)))
    )
    w = hypothesis_feasible(f, l, dprime)
    if w is None:
        return
    assert all(0 <= Fraction(x) <= 1 for x in w)
    assert is_ample(f, residual_divisor(f, l, dprime, w))


def test_linearly_equivalent_bundles_share_one_exact_lp(monkeypatch):
    import toricbott.divisors as divisors

    bl3 = suite_fans()["bl3"]
    dprime = (0, 2, 4)
    l1 = InvariantDivisor((0, 1, 1, 0, 2, 0))
    l2 = l1 + principal_divisor(bl3, (1, -1))
    assert l2.coeffs == (1, 0, 1, 0, 1, 1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lp_feasible_strict(*args, **kwargs)

    divisors._hypothesis_lp.cache_clear()
    monkeypatch.setattr(divisors, "lp_feasible_strict", counting)
    w1 = hypothesis_feasible(bl3, l1, dprime)
    assert len(calls) == 1  # no short-circuit decided l1
    w2 = hypothesis_feasible(bl3, l2, dprime)
    assert len(calls) == 1
    assert w1 is not None and w2 == w1
    for l in (l1, l2):
        assert is_ample(bl3, residual_divisor(bl3, l, dprime, w1))


def test_every_suite_fan_is_projective():
    for f in suite_fans().values():
        assert is_projective(f)


def test_restriction_examples():
    d = restrict_to_stratum(P2, ray_divisor(P2, 0), (1,))
    assert sum(d.coeffs) == 1
    z = restrict_to_stratum(P2, zero_divisor(P2), (1,))
    assert z.coeffs == (0, 0)
    p1xp1 = product(P1, P1)
    fiber = ray_divisor(p1xp1, 0)
    r = restrict_to_stratum(p1xp1, fiber, (2,))
    assert sum(r.coeffs) == 1


def test_divisor_file_format():
    d = InvariantDivisor((1, Fraction(1, 2), -3))
    data = divisor_to_dict(d)
    assert data["coeffs"] == [1, "1/2", -3]
    assert divisor_from_dict(data) == d
    with pytest.raises(ValueError):
        divisor_from_dict({"coeffs": [1.5]})
    with pytest.raises(ValueError):
        divisor_from_dict({"coeffs": [True, 0, 0]})
