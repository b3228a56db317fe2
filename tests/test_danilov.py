import itertools
import json
import os
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.danilov import (
    ChartConditionFails,
    CohomologyResult,
    HypothesisNotVerified,
    cech_cohomology,
    chamber_support_box,
    euler_additivity_check,
    hodge_count_check,
    line_bundle_cohomology,
    log_spec_dims,
    sheaf_spec,
    verify_vanishing,
    weight_conditions,
    weight_sections,
)
from toricbott.divisors import (
    InvariantDivisor,
    canonical_divisor,
    is_nef,
    principal_divisor,
    ray_divisor,
    rayset_divisor,
    zero_divisor,
)
from toricbott.exactmath import rank, QMatrix
from toricbott.fan import (
    Fan,
    NotACone,
    projective_space,
    product,
    star_subdivision,
    stratum_fan,
)
from toricbott.suite import suite_fans

P1 = projective_space(1)
P2 = projective_space(2)


# --- weight-level section spaces ------------------------------------------

def test_weight_sections_regular_one_forms_weight_zero():
    s = sheaf_spec(1, [], zero_divisor(P2))
    assert weight_sections(P2, s, (0, 1), (0, 0)).dim == 0


def test_weight_sections_dx():
    s = sheaf_spec(1, [], zero_divisor(P2))
    basis = weight_sections(P2, s, (0, 1), (1, 0))
    assert basis.dim == 1
    assert basis.allowed == ((0,),)


def test_weight_sections_trivial_log_bundle():
    s = sheaf_spec(1, [0, 1, 2], zero_divisor(P2))
    for tau in [(0, 1), (1, 2), (0, 2)]:
        assert weight_sections(P2, s, tau, (0, 0)).dim == 2


def test_weight_sections_needs_a_cone():
    s = sheaf_spec(1, [], zero_divisor(P2))
    with pytest.raises(NotACone):
        weight_sections(P2, s, (0, 1, 2), (0, 0))


def test_weight_sections_independent_of_completion():
    # The chart of a single ray lies in two maximal cones; the computed
    # subspace of wedge^p M must not depend on which one completes it.
    s = sheaf_spec(1, (0,), (1, 0, -1))
    for tau in [(0,), (1,), (2,)]:
        spans = []
        for m in itertools.product(range(-2, 3), repeat=2):
            basis = weight_sections(P2, s, tau, m)
            spans.append((m, sorted(basis.vectors)))
        # recompute against a fan with the maximal cones listed in a
        # different order, forcing the other completion choice
        reordered = Fan(2, P2.rays, tuple(reversed(P2.max_cones)))
        for m, vecs in spans:
            other = weight_sections(reordered, s, tau, m)
            a = QMatrix.from_rows(list(vecs) + list(other.vectors)) if vecs or other.vectors else None
            if a is None:
                continue
            # equal subspaces: stacking both bases must not raise the rank
            assert len(vecs) == other.dim
            if vecs:
                assert rank(a) == len(vecs)


def test_weight_conditions_margins():
    wc = weight_conditions(P2, (2, 0, 0), (1, 0))
    assert wc.margins == (3, 0, -1)


def test_affine_line_model():
    # t^m dt/t is regular at the origin iff m >= 1; with a log pole iff m >= 0
    plus = P1.rays.index((1,))
    plain = sheaf_spec(1, [], zero_divisor(P1))
    logged = sheaf_spec(1, [plus], zero_divisor(P1))
    for m in range(-2, 3):
        assert weight_sections(P1, plain, (plus,), (m,)).dim == (1 if m >= 1 else 0)
        assert weight_sections(P1, logged, (plus,), (m,)).dim == (1 if m >= 0 else 0)


# --- cech cohomology against classical values -----------------------------

def test_o2_on_p2():
    s = sheaf_spec(0, [], 2 * ray_divisor(P2, 0))
    assert cech_cohomology(P2, s).dims == (6, 0, 0)


def test_omega1_on_p2():
    s = sheaf_spec(1, [], zero_divisor(P2))
    assert cech_cohomology(P2, s).dims == (0, 1, 0)


def test_canonical_on_p2():
    s = sheaf_spec(2, [], zero_divisor(P2))
    assert cech_cohomology(P2, s).dims == (0, 0, 1)


def test_hand_cech_oracle_weight_zero_omega1():
    """Independent hand computation frozen before the engine was built.

    At weight 0 on P^2 the three charts have no sections, the three wall
    charts have the one-dimensional spans (1,0), (0,1), (-1,1) inside M_Q,
    and the torus chart everything.  The only nonzero differential is

        d1 = [[1, 0, -1], [0, -1, 1]]

    with rank 2, so h^1 = (3 - 2) - 0 = 1 and h^2 = 2 - 2 = 0.
    """
    d1 = QMatrix.from_rows([[1, 0, -1], [0, -1, 1]])
    assert rank(d1) == 2
    hand_h1 = (3 - rank(d1)) - 0
    assert hand_h1 == 1
    engine = cech_cohomology(P2, sheaf_spec(1, [], zero_divisor(P2)))
    assert engine.weight_support == {(0, 0): (0, 1, 0)}
    assert engine.dims[1] == hand_h1


def test_result_invariants_hold():
    s = sheaf_spec(0, [], 2 * ray_divisor(P2, 0))
    res = cech_cohomology(P2, s)
    assert res.euler == sum((-1) ** k * v for k, v in enumerate(res.dims))
    with pytest.raises(ValueError):
        CohomologyResult((1, 0, 0), {}, 1)


def test_line_bundles_on_p1():
    point = ray_divisor(P1, 0)
    assert line_bundle_cohomology(P1, 3 * point) == (4, 0)
    assert line_bundle_cohomology(P1, -2 * point) == (0, 1)
    assert line_bundle_cohomology(P1, -1 * point) == (0, 0)


def test_twist_by_principal_divisor_is_invisible():
    for m in [(1, 0), (-2, 1), (0, 3)]:
        d = 2 * ray_divisor(P2, 0) + principal_divisor(P2, m)
        assert line_bundle_cohomology(P2, d) == (6, 0, 0)


# --- vanishing checks ------------------------------------------------------

def test_classical_bott_o1():
    report = verify_vanishing(P2, (), ray_divisor(P2, 0))
    assert report.passed and report.hypothesis_checked


def test_full_boundary_case():
    report = verify_vanishing(P2, (0, 1, 2), ray_divisor(P2, 0))
    assert report.passed
    # reduces to the trivial bundle tensor O(-2): no higher cohomology
    assert report.per_p[2] == (0, 0, 0)


def test_negative_control_hodge_number():
    report = verify_vanishing(P2, (), zero_divisor(P2), unchecked=True)
    assert not report.passed
    assert (1, 1, 1) in report.violations


def test_infeasible_hypothesis_raises():
    with pytest.raises(HypothesisNotVerified):
        verify_vanishing(P2, (0,), zero_divisor(P2))


def test_bad_witness_rejected():
    with pytest.raises(ValueError):
        verify_vanishing(P2, (0,), zero_divisor(P2), witness=(0,))


@pytest.mark.parametrize("dprime, l, witness, message", [
    # d = -1 makes L - dD' = D_0 ample, but no d in [0, 1] does
    ((0,), InvariantDivisor((0, 0, 0)), (-1,), "unit box"),
    # a one-entry witness for a two-ray D' must not be truncated into use
    ((0, 1), InvariantDivisor((1, 0, 0)), (0,), "entries"),
])
def test_witness_must_fit_the_log_set_and_unit_box(dprime, l, witness, message):
    with pytest.raises(ValueError, match=message):
        verify_vanishing(P2, dprime, l, witness=witness)


# --- hodge counts ----------------------------------------------------------

def test_hodge_count_torus():
    report = hodge_count_check(P2, (0, 1, 2))
    assert report.passed and report.s == 2
    assert report.sums[:3] == (1, 2, 1)


def test_hodge_count_p1():
    report = hodge_count_check(P1, (0, 1))
    assert report.passed and report.s == 1
    assert report.sums[1] == 1


def test_hodge_count_two_rays_on_p2():
    # P^2 minus two lines is A^1 x G_m: s = 1, so k=1 contributes 1.
    report = hodge_count_check(P2, (0, 1))
    assert report.passed and report.s == 1
    assert report.sums[1] == 1


def test_hodge_count_needs_chart():
    p1xp1 = product(P1, P1)
    with pytest.raises(ChartConditionFails):
        hodge_count_check(p1xp1, (0,))


# --- euler additivity ------------------------------------------------------

def test_euler_additivity_examples():
    d0 = ray_divisor(P2, 0)
    assert euler_additivity_check(P2, (), 0, d0).passed
    assert euler_additivity_check(P2, (), 0, zero_divisor(P2)).passed
    assert euler_additivity_check(P2, (1,), 0, 2 * d0).passed


def test_euler_additivity_p0_is_ideal_sheaf_arithmetic():
    # for p = 0 the three euler numbers are chi(O(L)), chi(O(L-H)), chi(O(L|_H))
    l = 2 * ray_divisor(P2, 0)
    report = euler_additivity_check(P2, (), 0, l)
    p0 = report.per_p[0]
    assert p0[1] == 6 and p0[2] == 3 and p0[3] == 3


def test_euler_additivity_rejects_log_ray():
    with pytest.raises(ValueError):
        euler_additivity_check(P2, (0,), 0, zero_divisor(P2))


# --- engine-level invariants ----------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("p1", "p2", "p1xp1", "f1")), st.randoms(use_true_random=False))
def test_serre_duality_sample(name, rnd):
    f = suite_fans()[name]
    k = canonical_divisor(f)
    d = InvariantDivisor(tuple(rnd.randint(-3, 3) for _ in range(f.n_rays)))
    left = line_bundle_cohomology(f, d)
    right = line_bundle_cohomology(f, k - d)
    assert left == tuple(reversed(right))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("p1", "p2", "f2", "bl2")), st.randoms(use_true_random=False))
def test_log_serre_duality_sample(name, rnd):
    f = suite_fans()[name]
    r = f.dim
    p = rnd.randint(0, r)
    dprime = tuple(sorted(rnd.sample(range(f.n_rays), rnd.randint(0, f.n_rays))))
    l = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    left = log_spec_dims(f, p, dprime, l - rayset_divisor(f, dprime))
    right = log_spec_dims(f, r - p, dprime, -1 * l)
    assert left == tuple(reversed(right))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(suite_fans())), st.randoms(use_true_random=False))
def test_nef_line_bundles_have_no_higher_cohomology(name, rnd):
    f = suite_fans()[name]
    for _ in range(10):
        d = InvariantDivisor(tuple(rnd.randint(0, 2) for _ in range(f.n_rays)))
        if is_nef(f, d):
            h = line_bundle_cohomology(f, d)
            assert all(v == 0 for v in h[1:])
            return


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("p2", "p1xp1", "f1", "p3")), st.randoms(use_true_random=False))
def test_trivial_bundle_reduction(name, rnd):
    f = suite_fans()[name]
    full = tuple(range(f.n_rays))
    t = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    base = line_bundle_cohomology(f, t)
    for p in range(f.dim + 1):
        dims = log_spec_dims(f, p, full, t)
        assert dims == tuple(comb(f.dim, p) * v for v in base)


def test_weight_pattern_constancy():
    # weights with the same clipped margin pattern contribute identically
    s = sheaf_spec(1, (0,), (0, -1, 2))
    res = cech_cohomology(P2, s)
    from toricbott.danilov import _engine

    eng = _engine(P2)
    patterns = {}
    for m, dims in res.weight_support.items():
        states = eng.states_from_margins(s.p, s.logset, eng.margins(s.twist, m))
        patterns.setdefault(states, set()).add(dims)
    for dims_set in patterns.values():
        assert len(dims_set) == 1


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(("p1", "p2", "p1xp1", "bl1")), st.randoms(use_true_random=False))
def test_chamber_agrees_with_brute_box(name, rnd):
    f = suite_fans()[name]
    p = rnd.randint(0, f.dim)
    logset = tuple(sorted(rnd.sample(range(f.n_rays), rnd.randint(0, f.n_rays))))
    twist = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    s = sheaf_spec(p, logset, twist)
    chamber = cech_cohomology(f, s)
    support = chamber_support_box(f, s)
    if support is None:
        bounds = tuple((-1, 1) for _ in range(f.dim))
    else:
        bounds = tuple((lo - 1, hi + 1) for lo, hi in support)
    box = cech_cohomology(f, s, mode="box", box=bounds)
    assert chamber == box


def test_box_mode_requires_bounds():
    s = sheaf_spec(0, [], zero_divisor(P2))
    with pytest.raises(ValueError):
        cech_cohomology(P2, s, mode="box")


def test_unbounded_nonzero_chamber_is_an_error(monkeypatch):
    # never reachable for complete fans; exercised by faking the
    # boundedness verdict of a pattern that carries cohomology
    from toricbott.danilov import UnboundedCohomologyChamber, _Engine

    monkeypatch.setattr(_Engine, "pattern_bounded", lambda self, states: False)
    fresh = Fan(P2.dim, P2.rays, P2.max_cones)
    s = sheaf_spec(0, [], 2 * ray_divisor(fresh, 0))
    with pytest.raises(UnboundedCohomologyChamber):
        cech_cohomology(fresh, s)


def test_point_fan_cohomology():
    point = stratum_fan(P2, (0, 1)).fan
    assert point.dim == 0
    assert line_bundle_cohomology(point, InvariantDivisor(())) == (1,)
    assert log_spec_dims(point, 1, (), InvariantDivisor(())) == (0,)


# --- cone-poset complex ------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cech.json")


def _golden_fans():
    fans = dict(suite_fans())
    p3 = projective_space(3)
    fans["p2xp1"] = product(P2, P1)
    fans["blpt_p3"] = star_subdivision(p3, (0, 1, 2))
    return fans


def test_cone_complex_reproduces_nerve_golden_data():
    with open(GOLDEN) as handle:
        specs = json.load(handle)["specs"]
    assert len(specs) >= 90
    fans = _golden_fans()
    for row in specs:
        res = cech_cohomology(fans[row["fan"]], sheaf_spec(row["p"], row["logset"], row["twist"]))
        support = [[list(m), list(d)] for m, d in sorted(res.weight_support.items())]
        assert (list(res.dims), support) == (row["dims"], row["weight_support"]), row


@pytest.mark.parametrize("fan, terms", [
    (product(product(P1, P1), P1), 27),
    (suite_fans()["bl3"], 13),
    (product(product(P1, P1), product(P1, P1)), 81),
])
def test_one_complex_term_per_cone(fan, terms):
    from toricbott.danilov import _engine

    levels = _engine(fan).levels
    assert sum(len(level) for level in levels) == terms
    assert len(levels) == fan.dim + 1 and levels[-1][0][0] == ()


def test_seven_ray_surface():
    # h^{1,1} = n - 2 = 5; with twist -K the Euler characteristics are
    # 6, 0, 1 and h^0(-K) = 6 lattice points, as Riemann-Roch and the
    # anticanonical polygon give independently of the engine
    f = P2
    for _ in range(4):
        f = star_subdivision(f, f.max_cones[0])
    assert f.n_rays == 7
    assert log_spec_dims(f, 1, (), zero_divisor(f)) == (0, 5, 0)
    minus_k = -canonical_divisor(f)
    dims = [log_spec_dims(f, p, (), minus_k) for p in range(3)]
    assert dims == [(6, 0, 0), (5, 5, 0), (1, 0, 0)]


def test_p1_to_the_fourth_hodge_numbers():
    # sixteen maximal cones
    p1_4 = product(product(P1, P1), product(P1, P1))
    zero = zero_divisor(p1_4)
    for p in range(5):
        dims = log_spec_dims(p1_4, p, (), zero)
        assert dims == tuple(comb(4, p) if q == p else 0 for q in range(5))


def test_cached_dims_depend_only_on_the_twist_class():
    # the cached lookups key on a class representative of the twist; the
    # reference is the uncached cech_cohomology at the unmoved twist
    rng = random.Random(4417)
    for name, f in _golden_fans().items():
        for _ in range(8):
            p = rng.randint(0, f.dim)
            dprime = tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays))))
            twist = tuple(rng.randint(-2, 2) for _ in range(f.n_rays))
            m = tuple(rng.randint(-3, 3) for _ in range(f.dim))
            moved = InvariantDivisor(twist) + principal_divisor(f, m)
            expected = cech_cohomology(f, sheaf_spec(p, dprime, twist)).dims
            assert log_spec_dims(f, p, dprime, moved) == expected, (name, p, dprime, twist, m)
            expected = cech_cohomology(f, sheaf_spec(0, (), twist)).dims
            assert line_bundle_cohomology(f, moved) == expected, (name, twist, m)
