import itertools
import json
import os
import random
import sys
import time
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.danilov import (
    ChartConditionFails,
    CohomologyResult,
    HypothesisNotVerified,
    LogFormSheafSpec,
    WeightBoxTooLarge,
    _engine,
    cech_cohomology,
    euler_additivity_check,
    hodge_count_check,
    line_bundle_cohomology,
    log_spec_dims,
    sheaf_spec,
    verify_vanishing,
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
from toricbott.exactmath import ComplexNotExactlyComposable, QMatrix, det, rank
from toricbott.fan import (
    Fan,
    _dual_basis,
    projective_space,
    product,
    star_subdivision,
    stratum_fan,
)
from toricbott.suite import suite_fans

P1 = projective_space(1)
P2 = projective_space(2)


# --- weight-level section spaces ------------------------------------------

def _chart_wedges(f, s, tau, m):
    """(sigma, wedges): the maximal cone sigma completing the cone tau, and
    the dual-basis wedges of sigma that ``_Engine.sections`` keeps over the
    chart of tau at the weight m, each as its tuple of rays of sigma."""
    eng = _engine(f)
    states = eng.pattern(eng.merged(s.p, s.logset), eng.margins(s.twist, m))
    level = f.dim - len(tau)
    first = [t for t, _, _ in eng.levels[level]].index(tau) * comb(f.dim, s.p)
    kept = eng.sections(s.p, states)[level]
    sigma = f.max_cones[eng.completion[tau]]
    return sigma, tuple(tuple(sigma[i] for i in I)
                        for k, I in enumerate(itertools.combinations(range(f.dim), s.p))
                        if first + k in kept)


def _wedge_vectors(f, sigma, wedges):
    """The wedges of sigma's dual basis in the standard basis of
    wedge^p M_Q, whose index sets are ordered lexicographically."""
    duals = dict(zip(sigma, _dual_basis(f, sigma)))
    vectors = []
    for wedge in wedges:
        rows = [duals[ray] for ray in wedge]
        vectors.append(tuple(det([[row[j] for j in J] for row in rows])
                             for J in itertools.combinations(range(f.dim), len(wedge))))
    return vectors


def test_weight_sections_regular_one_forms_weight_zero():
    s = sheaf_spec(1, [], zero_divisor(P2))
    assert _chart_wedges(P2, s, (0, 1), (0, 0))[1] == ()


def test_weight_sections_dx():
    s = sheaf_spec(1, [], zero_divisor(P2))
    assert _chart_wedges(P2, s, (0, 1), (1, 0))[1] == ((0,),)


def test_weight_sections_trivial_log_bundle():
    s = sheaf_spec(1, [0, 1, 2], zero_divisor(P2))
    for tau in [(0, 1), (1, 2), (0, 2)]:
        assert len(_chart_wedges(P2, s, tau, (0, 0))[1]) == 2


def test_weight_sections_independent_of_completion(dense):
    # The chart of a single ray lies in two maximal cones; the computed
    # subspace of wedge^p M must not depend on which one completes it.
    s = sheaf_spec(1, (0,), (1, 0, -1))
    # a fan with the maximal cones listed in the other order, forcing the
    # other completion choice
    reordered = Fan(2, P2.rays, tuple(reversed(P2.max_cones)))
    for tau in [(0,), (1,), (2,)]:
        for m in itertools.product(range(-2, 3), repeat=2):
            completions = [(f, *_chart_wedges(f, s, tau, m)) for f in (P2, reordered)]
            assert completions[0][1] != completions[1][1]
            vecs, other = (sorted(_wedge_vectors(*c)) for c in completions)
            assert len(vecs) == len(other)
            if vecs:
                # equal subspaces: stacking both bases must not raise the rank
                assert rank(dense(vecs + other)) == len(vecs)


def test_engine_margins():
    assert _engine(P2).margins((2, 0, 0), (1, 0)) == (3, 0, -1)


def test_affine_line_model():
    # t^m dt/t is regular at the origin iff m >= 1; with a log pole iff m >= 0
    plus = P1.rays.index((1,))
    plain = sheaf_spec(1, [], zero_divisor(P1))
    logged = sheaf_spec(1, [plus], zero_divisor(P1))
    for m in range(-2, 3):
        assert len(_chart_wedges(P1, plain, (plus,), (m,))[1]) == (1 if m >= 1 else 0)
        assert len(_chart_wedges(P1, logged, (plus,), (m,))[1]) == (1 if m >= 0 else 0)


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


def test_hand_cech_oracle_weight_zero_omega1(dense):
    """Independent hand computation frozen before the engine was built.

    At weight 0 on P^2 the three charts have no sections, the three wall
    charts have the one-dimensional spans (1,0), (0,1), (-1,1) inside M_Q,
    and the torus chart everything.  The only nonzero differential is

        d1 = [[1, 0, -1], [0, -1, 1]]

    with rank 2, so h^1 = (3 - 2) - 0 = 1 and h^2 = 2 - 2 = 0.
    """
    d1 = dense(((1, 0, -1), (0, -1, 1)))
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


@pytest.mark.parametrize("dprime, witness, unchecked", [
    ((5,), (1,), False),
    ((-1,), (0,), False),      # not a ray counted from the end
    ((5, -1), None, True),     # checked without the hypothesis too
])
def test_log_rays_must_be_rays_of_the_fan(dprime, witness, unchecked):
    with pytest.raises(ValueError, match="out of range"):
        verify_vanishing(P2, dprime, InvariantDivisor((1, 0, 0)), witness=witness,
                         unchecked=unchecked)


def test_log_spec_dims_rejects_a_log_ray_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        log_spec_dims(P2, 1, (7,), zero_divisor(P2))


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


@pytest.mark.parametrize("h", [3, -1])
def test_euler_additivity_rejects_a_ray_index_out_of_range(h):
    with pytest.raises(ValueError, match=f"ray index {h} out of range"):
        euler_additivity_check(P2, (), h, zero_divisor(P2))


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
        states = eng.pattern(eng.merged(s.p, s.logset), eng.margins(s.twist, m))
        patterns.setdefault(states, set()).add(dims)
    for dims_set in patterns.values():
        assert len(dims_set) == 1


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(("p1", "p2", "p1xp1", "bl1")), st.randoms(use_true_random=False))
def test_chamber_agrees_with_brute_box(brute_box, name, rnd):
    f = suite_fans()[name]
    p = rnd.randint(0, f.dim)
    logset = tuple(sorted(rnd.sample(range(f.n_rays), rnd.randint(0, f.n_rays))))
    twist = InvariantDivisor(tuple(rnd.randint(-2, 2) for _ in range(f.n_rays)))
    s = sheaf_spec(p, logset, twist)
    chamber = cech_cohomology(f, s)
    assert chamber.weight_support == brute_box(f, s)
    assert log_spec_dims(f, p, logset, twist) == chamber.dims


@pytest.mark.parametrize("name", ["p2", "bl1", "p3"])
def test_chamber_mode_lists_the_support_box_with_the_box_loop(monkeypatch, name):
    # one loop over lattice weights: cech_cohomology hands box_run the support box
    from toricbott.danilov import _Engine

    f = suite_fans()[name]
    eng = _engine(f)
    rng = random.Random(f"one-loop-{name}")
    calls = []
    original = _Engine.box_run
    monkeypatch.setattr(_Engine, "box_run",
                        lambda self, *args: calls.append(args[-1]) or original(self, *args))
    listed = 0
    for _ in range(8):
        s = sheaf_spec(rng.randint(0, f.dim), rng.sample(range(f.n_rays), rng.randint(0, 2)),
                       tuple(rng.randint(-1, 2) for _ in range(f.n_rays)))
        calls.clear()
        result = cech_cohomology(f, s)
        merged = eng.merged(s.p, s.logset)
        box = eng.support_box(s.p, merged, s.twist)
        assert calls == ([] if box is None else [box])
        listed += box is not None
        if box is not None:
            assert result.weight_support == eng.box_run(s.p, merged, s.twist, box)
    assert listed


def test_one_weight_cap_for_explicit_boxes_and_chambers(monkeypatch):
    import toricbott.danilov as danilov

    monkeypatch.setattr(danilov, "_MAX_BOX_WEIGHTS", 8)
    s = sheaf_spec(0, [], 2 * ray_divisor(P2, 0))
    # sections of O(2) are the weights of the triangle (0, 0), (-2, 0), (-2, 2),
    # whose support box is 3 x 3
    with pytest.raises(WeightBoxTooLarge, match="more than 8 weights"):
        cech_cohomology(P2, s)


def test_large_chamber_box_is_a_named_size_error():
    # the sections of O(3000) fill a 3001 x 3001 box, refused before listing it
    s = sheaf_spec(0, [], (3000, 0, 0))
    with pytest.raises(WeightBoxTooLarge, match="more than 5000000 weights"):
        cech_cohomology(P2, s)


def test_large_twists_are_counted_not_listed():
    # the totals count each pattern's lattice points, so only cech_cohomology,
    # which lists the weights, meets the weight cap
    assert line_bundle_cohomology(P2, InvariantDivisor((3000, 0, 0))) == (4504501, 0, 0)
    with pytest.raises(WeightBoxTooLarge, match="more than 5000000 weights"):
        cech_cohomology(P2, sheaf_spec(0, [], (3000, 0, 0)))
    # C(63, 3) sections of O(60) on P3
    p3 = projective_space(3)
    assert line_bundle_cohomology(p3, InvariantDivisor((60, 0, 0, 0))) == (39711, 0, 0, 0)
    # a count runs over 100001^2 prefixes here: refused, not run for hours
    with pytest.raises(WeightBoxTooLarge, match="more than 5000000 weights"):
        line_bundle_cohomology(p3, InvariantDivisor((100000, 0, 0, 0)))


def test_p1_to_the_fourth_at_twist_20_lists_no_weight(monkeypatch):
    # Kuenneth: Omega^p(log D') (x) O(T) is the sum over p_1 + .. + p_4 = p of
    # the products of Omega^{p_i}(log D'_i) (x) O(40) on the factors.  Factors
    # 1 and 2 carry one log pole (rays 0 and 3): h^0 = 41 for p_i = 0 and 40
    # (O(39)) for p_i = 1; factors 3 and 4 carry none: 41 and 39 (O(38)).
    # Listing the 41^4 weights of the support box took 34 s.
    from toricbott.danilov import _Engine, _engine, _log_dims

    factors = ((41, 40), (41, 40), (41, 39), (41, 39))
    expected = [sum(prod(f[i in chosen] for i, f in enumerate(factors))
                    for chosen in itertools.combinations(range(4), p)) for p in range(5)]
    assert expected == [2825761, 10889518, 15735841, 10105680, 2433600]

    def no_listing(self, *args):
        raise AssertionError("weights were listed")

    monkeypatch.setattr(_Engine, "box_run", no_listing)
    _engine.cache_clear()
    p1_4 = product(product(P1, P1), product(P1, P1))
    start = time.process_time()
    per_p = _log_dims(p1_4, range(5), frozenset({0, 3}), (20,) * 8)
    assert time.process_time() - start < 30
    assert per_p == tuple((h0, 0, 0, 0, 0) for h0 in expected)


@pytest.mark.parametrize("p, logset, twist", [
    (1.7, [0.9], [0, 0, 1]),   # would truncate to p = 1, logset [0]
    (1, [0], [True, 0, 0]),    # a bool is not the integer 1
    (True, [], [0, 0, 0]),
    (1, [0], [0, 0, 0.5]),
])
def test_sheaf_spec_rejects_non_integers(p, logset, twist):
    with pytest.raises(ValueError, match="integers"):
        sheaf_spec(p, logset, twist)
    with pytest.raises(ValueError, match="integers"):
        LogFormSheafSpec(p, logset, twist)


@pytest.mark.parametrize("p, match", [(1.5, "integers"), (True, "integers"), (-1, "nonnegative")])
def test_log_spec_dims_rejects_a_bad_form_degree(p, match):
    # 1.5 once answered (0, 0, 0), and True answered for p = 1
    with pytest.raises(ValueError, match=match):
        log_spec_dims(P2, p, (), zero_divisor(P2))


def test_unbounded_nonzero_chamber_is_an_error(monkeypatch):
    # never reachable for complete fans; exercised by faking the
    # boundedness verdict of a pattern that carries cohomology
    from toricbott.danilov import UnboundedCohomologyChamber, _Engine, _engine

    monkeypatch.setattr(_Engine, "pattern_bounded", lambda self, states: False)
    fresh = Fan(P2.dim, P2.rays, P2.max_cones)
    s = sheaf_spec(0, [], 2 * ray_divisor(fresh, 0))
    with pytest.raises(UnboundedCohomologyChamber):
        cech_cohomology(fresh, s)
    # the counted totals check boundedness too; an emptied engine holds no dims
    _engine.cache_clear()
    fresh = Fan(P2.dim, P2.rays, P2.max_cones)
    with pytest.raises(UnboundedCohomologyChamber):
        line_bundle_cohomology(fresh, 2 * ray_divisor(fresh, 0))


def test_point_fan_cohomology():
    point = stratum_fan(P2, (0, 1)).fan
    assert point.dim == 0
    assert line_bundle_cohomology(point, InvariantDivisor(())) == (1,)
    assert log_spec_dims(point, 1, (), InvariantDivisor(())) == (0,)


@pytest.mark.parametrize("p, dims, support, box", [(0, (1,), {(): (1,)}, ()), (1, (0,), {}, None)])
def test_point_fan_cech_cohomology(p, dims, support, box):
    point = stratum_fan(P2, (0, 1)).fan
    s = sheaf_spec(p, [], ())
    result = cech_cohomology(point, s)
    assert (result.dims, result.weight_support) == (dims, support)
    eng = _engine(point)
    merged = eng.merged(p, s.logset)
    assert eng.support_box(p, merged, ()) == box
    assert eng.box_run(p, merged, (), ()) == support


def test_form_degree_above_the_dimension_has_no_cohomology():
    s = sheaf_spec(3, [0], (1, 0, 0))
    result = cech_cohomology(P2, s)
    assert (result.dims, result.weight_support) == ((0, 0, 0), {})
    eng = _engine(P2)
    assert eng.box_run(3, eng.merged(3, s.logset), s.twist, ((-2, 2),) * 2) == {}


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


def _demazure_dims(f, dead):
    """h^0..h^r of a line bundle at a weight whose DEAD rays (margin <= -1)
    are ``dead`` and whose other rays are FREE, by Demazure's theorem
    (Cox-Little-Schenck, Toric Varieties, Thm 9.1.3): h^k is the reduced
    H^(k-1) of the full subcomplex of the fan on the DEAD rays, whose empty
    cone sits in degree -1."""
    faces = [sorted({tau for c in f.max_cones for tau in itertools.combinations(sorted(c), k)
                     if dead.issuperset(tau)}) for k in range(f.dim + 1)]
    # ranks[k] is the rank of the boundary from the k-ray faces to the (k-1)-ray ones
    ranks = [0]
    for k in range(1, f.dim + 1):
        index = {tau: i for i, tau in enumerate(faces[k - 1])}
        rows = tuple(tuple((index[tau[:t] + tau[t + 1:]], (-1) ** t) for t in range(k))
                     for tau in faces[k])
        ranks.append(rank(QMatrix(len(faces[k]), len(faces[k - 1]), rows)))
    ranks.append(0)
    return tuple(len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(f.dim + 1))


def test_line_bundle_patterns_match_the_demazure_oracle():
    # every DEAD/FREE tuple, realizable or not, of the nine suite fans and
    # P1^4: 188 + 256 patterns, against a complex built from the fan alone
    from toricbott.danilov import DEAD, FREE, _Engine

    fans = dict(suite_fans())
    fans["p1^4"] = product(product(P1, P1), product(P1, P1))
    checked = 0
    for name, f in fans.items():
        eng = _Engine(f)
        for states in itertools.product((DEAD, FREE), repeat=f.n_rays):
            dead = {i for i, st in enumerate(states) if st == DEAD}
            assert eng.state_cohomology(0, states) == _demazure_dims(f, dead), (name, states)
            checked += 1
    assert checked == 444


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


def _count_pattern_work(monkeypatch) -> dict:
    """Empty the engines and count the complexes and the boundedness LPs
    (``exactmath.polyhedron_bounded``, under every module attribute of the
    package that names it) that the pattern caches run from now on."""
    from toricbott import danilov, exactmath

    counts = {"complexes": 0, "lps": 0}

    def counting(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(danilov, "cohomology_dims", counting("complexes", danilov.cohomology_dims))
    lps = counting("lps", exactmath.polyhedron_bounded)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("toricbott") and hasattr(module, "polyhedron_bounded"):
            monkeypatch.setattr(module, "polyhedron_bounded", lps)
    danilov._engine.cache_clear()
    return counts


def test_p1_to_the_fourth_vanishing_instance_is_pinned(monkeypatch):
    # a 4-fold instance with every p nonzero in degree 0 only; one complex
    # per orbit of margin patterns (1,361 with one per pattern), and no
    # boundedness LP: the engine's edge table decides (4 LPs with one per
    # orbit, 22 with one per pattern)
    p1_4 = product(product(P1, P1), product(P1, P1))
    counts = _count_pattern_work(monkeypatch)
    report = verify_vanishing(p1_4, (0, 3, 5), InvariantDivisor((2, 1, 0, 2, 1, 1, 2, 0)))
    assert report.passed
    assert report.per_p == ((36, 0, 0, 0, 0), (72, 0, 0, 0, 0), (53, 0, 0, 0, 0),
                            (17, 0, 0, 0, 0), (2, 0, 0, 0, 0))
    assert counts == {"complexes": 65, "lps": 0}


def _with_image(fan, p, level, w, k, image):
    """A fresh engine whose ambient complex of degree p has the k-th image
    of wedge w on ``level`` replaced by ``image``."""
    from toricbott.danilov import _Engine

    eng = _Engine(fan)
    table = [list(wedges) for wedges in eng.ambient(p)]
    tau_mask, blockable, images = table[level][w]
    table[level][w] = (tau_mask, blockable, images[:k] + (image,) + images[k + 1:])
    eng._ambient[p] = table
    return eng


def test_every_altered_ambient_value_breaks_d_squared():
    # the complexes are sliced from one table, so d . d = 0 is checked on
    # each slice: doubling any one image value must be caught
    from toricbott.danilov import FREE, _Engine

    altered = 0
    for p in range(P2.dim + 1):
        table = _Engine(P2).ambient(p)
        for level, wedges in enumerate(table):
            for w, (_, _, images) in enumerate(wedges):
                for k, (target, value) in enumerate(images):
                    eng = _with_image(P2, p, level, w, k, (target, 2 * value))
                    with pytest.raises(ComplexNotExactlyComposable):
                        eng.state_cohomology(p, (FREE,) * P2.n_rays)
                    altered += 1
    # six facet signs into the rays and three into the torus for p = 0 and
    # p = 2, and 22 nonzero minors for p = 1
    assert altered == 9 + 22 + 9


def test_an_image_onto_a_dropped_wedge_is_caught():
    # with ray 0 DEAD every wedge of a cone through ray 0 is dropped; an image
    # of the kept cone (1, 2) moved onto one of them leaves the sections
    from toricbott.danilov import DEAD, FREE, _Engine

    states = (DEAD, FREE, FREE)
    reference = _Engine(P2)
    kept = [tau for tau, _, _ in reference.levels[0]].index((1, 2))
    dead = [tau for tau, _, _ in reference.levels[1]].index((0,))
    for p in range(P2.dim):
        per_cone = comb(P2.dim, p)
        reference.state_cohomology(p, states)
        eng = _with_image(P2, p, 0, kept * per_cone, 0, (dead * per_cone, 1))
        with pytest.raises(AssertionError, match="leaves the allowed section space"):
            eng.state_cohomology(p, states)


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


def _moved(perm, dprime, twist):
    """(pi D', pi T) for the ray permutation pi: D_rho goes to D_pi(rho)."""
    moved = [0] * len(twist)
    for rho, t in enumerate(twist):
        moved[perm[rho]] = t
    return tuple(sorted(perm[rho] for rho in dprime)), tuple(moved)


def test_fan_automorphisms_preserve_cohomology():
    # the cached lookups share one chamber pass across each orbit of the
    # fan's automorphisms; cech_cohomology on an emptied engine must see the
    # same symmetry, and a lookup answered from another orbit member's pass
    # must agree with it
    from toricbott.danilov import _engine
    from toricbott.fan import automorphisms

    rng = random.Random(6007)
    cases = []
    for name, f in _golden_fans().items():
        for perm in automorphisms(f):
            for _ in range(2):
                p = rng.randint(0, f.dim)
                dprime = tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays))))
                twist = tuple(rng.randint(-2, 2) for _ in range(f.n_rays))
                image = _moved(perm, dprime, twist)
                expected = cech_cohomology(f, sheaf_spec(p, dprime, twist)).dims
                # the pattern caches hold every image of what they computed,
                # so the image is computed on an emptied engine
                _engine.cache_clear()
                got = cech_cohomology(f, sheaf_spec(p, *image)).dims
                assert got == expected, (name, perm, p, dprime, twist)
                cases.append((f, p, dprime, twist, image, expected))
    _engine.cache_clear()
    for f, p, dprime, twist, (moved_dprime, moved_twist), expected in cases:
        assert log_spec_dims(f, p, dprime, InvariantDivisor(twist)) == expected
        assert log_spec_dims(f, p, moved_dprime, InvariantDivisor(moved_twist)) == expected


def test_pattern_caches_hold_what_each_image_computes():
    # state_cohomology stores each result under every image of the pattern;
    # a second engine, its cache emptied before each image, builds that
    # image's complex (d . d check and ranks included), and must agree
    from toricbott.danilov import _Engine
    from toricbott.fan import automorphisms

    rng = random.Random(4241)
    fans = _golden_fans()
    fans["p1^3"] = product(product(P1, P1), P1)
    checked = 0
    for name, f in fans.items():
        shared = _Engine(f)
        fresh = _Engine(f)
        perms = automorphisms(f)
        for _ in range(2):
            logset = frozenset(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays)))
            twist = tuple(rng.randint(-2, 2) for _ in range(f.n_rays))
            for p in range(f.dim + 1):
                patterns = sorted(shared.chamber_patterns(shared.merged(p, logset), twist))
                for states in rng.sample(patterns, min(3, len(patterns))):
                    shared.state_cohomology(p, states)
                    for perm in perms:
                        image = _moved(perm, (), states)[1]
                        fresh._state_coh.clear()
                        assert shared._state_coh[p, image] == fresh.state_cohomology(p, image), \
                            (name, p, states, perm)
                        checked += 1
    assert checked == 2794


def test_p1_cubed_twist_zero_runs_once_per_orbit(monkeypatch):
    # twelve orbits of the 81 patterns these calls used to build complexes
    # for; boundedness runs no LP (2 with one per orbit)
    p1_3 = product(product(P1, P1), P1)
    counts = _count_pattern_work(monkeypatch)
    dims = [cech_cohomology(p1_3, sheaf_spec(p, (), (0,) * 6)).dims for p in (0, 1, 3)]
    assert dims == [(1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 0, 1)]
    assert counts == {"complexes": 12, "lps": 0}


def _boundedness_fans():
    """The nine suite fans, P2 x P1, Bl_pt P3 and P1^3."""
    fans = _golden_fans()
    fans["p1^3"] = product(product(P1, P1), P1)
    return fans


def _recession_rows(f, states):
    """Rows a of the recession cone {v : a.v <= 0} of the weights with the
    margin pattern ``states``: <v, u> <= 0 on DEAD rays, = 0 on RESTRICTED
    ones and >= 0 on FREE ones."""
    from toricbott.danilov import DEAD, FREE

    rows = []
    for ray, st in zip(f.rays, states):
        if st != FREE:
            rows.append(list(ray))
        if st != DEAD:
            rows.append([-x for x in ray])
    return rows


def test_pattern_boundedness_matches_the_lp_oracle():
    # the engine's edge table decides boundedness with no LP; the oracle is the
    # exact LP on the pattern's recession cone, over every 3^n pattern
    from toricbott.danilov import DEAD, FREE, RESTRICTED, _Engine
    from toricbott.exactmath import polyhedron_bounded

    patterns = unbounded = 0
    for name, f in _boundedness_fans().items():
        eng = _Engine(f)
        for states in itertools.product((DEAD, RESTRICTED, FREE), repeat=f.n_rays):
            rows = _recession_rows(f, states)
            expected = polyhedron_bounded(rows, [0] * len(rows))
            assert eng.pattern_bounded(states) == expected, (name, states)
            patterns += 1
            unbounded += not expected
    assert (patterns, unbounded) == (2628, 898)


def test_every_edge_sign_entry_is_needed(monkeypatch):
    # the pattern FREE on an entry's pos rays, DEAD on its neg rays and
    # RESTRICTED elsewhere recedes along that entry's direction alone: the
    # LP calls it unbounded, and the engine's table without the entry bounded
    from toricbott.danilov import DEAD, FREE, RESTRICTED, _Engine
    from toricbott.exactmath import polyhedron_bounded

    entries = 0
    for name, f in _boundedness_fans().items():
        eng = _Engine(f)
        table = eng.edges
        for pos, neg in table:
            states = tuple(FREE if pos >> i & 1 else DEAD if neg >> i & 1 else RESTRICTED
                           for i in range(f.n_rays))
            rows = _recession_rows(f, states)
            assert not polyhedron_bounded(rows, [0] * len(rows)), (name, pos, neg)
            monkeypatch.setattr(eng, "edges", tuple(entry for entry in table if entry != (pos, neg)))
            assert eng.pattern_bounded(states), (name, pos, neg)
            entries += 1
    # both orientations of 1, 3, 6, 2, 3, 3, 3, 3, 3, 4, 6 and 3 lines
    assert entries == 80


def _cofactor_edges(f):
    """The oracle for ``_Engine.edges``: per set J of r - 1 rays of rank
    r - 1, with w_J its cofactor vector (orthogonal to J's rays), the ray
    masks (pos, neg) where <w_J, u> is > 0 and < 0, in both orientations."""
    out = set()
    for subset in itertools.combinations(f.rays, max(f.dim - 1, 0)):
        w = [(-1) ** k * det([ray[:k] + ray[k + 1:] for ray in subset]) for k in range(f.dim)]
        if any(w):
            values = [sum(a * b for a, b in zip(w, ray)) for ray in f.rays]
            pos = sum(1 << i for i, x in enumerate(values) if x > 0)
            neg = sum(1 << i for i, x in enumerate(values) if x < 0)
            out.update(((pos, neg), (neg, pos)))
    return tuple(sorted(out))


def test_engine_edges_are_the_cofactor_vectors_of_every_rank_deficient_ray_set():
    # the engine reads its edges from the rows of its vertex solvers, one
    # per nonsingular r-subset S; every r - 1 rays of rank r - 1 lie in some
    # such S, so no line is missed.  P1^4 is out of the LP oracle's reach,
    # and the point fan has no entry
    from toricbott.danilov import _Engine

    fans = _boundedness_fans()
    fans["p1^4"] = product(product(P1, P1), product(P1, P1))
    fans["point"] = Fan(0, (), ((),))
    sizes = {}
    for name, f in fans.items():
        edges = _Engine(f).edges
        assert edges == _cofactor_edges(f), name
        sizes[name] = len(edges)
    assert (sum(sizes.values()), sizes["p1^4"], sizes["point"]) == (88, 8, 0)


def test_orbit_lists_each_image_once():
    # the movers table gives exactly the images of one generator per
    # automorphism, without its repeats
    from toricbott.danilov import _Engine
    from toricbott.fan import automorphisms

    rng = random.Random(5113)
    fans = dict(suite_fans())
    fans["p1^4"] = product(product(P1, P1), product(P1, P1))
    fans["point"] = Fan(0, (), ((),))
    repeats = 0
    for name, f in fans.items():
        eng = _Engine(f)
        perms = automorphisms(f)
        constant = (0,) * f.n_rays
        assert eng.orbit(constant) == {(constant,)}, name
        for _ in range(4):
            per_ray = (tuple(rng.randint(0, 2) for _ in range(f.n_rays)),
                       tuple(rng.randint(-2, 2) for _ in range(f.n_rays)))
            old = [tuple(tuple(v[i] for i in perm) for v in per_ray) for perm in perms]
            images = list(eng.orbit(*per_ray))
            assert sorted(images) == sorted(set(old)), (name, per_ray)
            repeats += len(old) - len(images)
    assert repeats > 0


# --- arrangement vertices and the shared chamber pass ----------------------

def _cramer_vertices(f, merged, twist):
    """Arrangement vertices by Cramer's rule on every r-subset of level
    hyperplanes, gcd-normalised with a positive denominator."""
    hyperplanes = [(i, lv - twist[i]) for i in range(f.n_rays)
                   for lv in ((-1, 0) if merged[i] else (-1, 0, 1))]
    vertices = set()
    for combo in itertools.combinations(hyperplanes, f.dim):
        rows = [list(f.rays[i]) for i, _ in combo]
        d = det(rows)
        if d == 0:
            continue
        nums = [det([row[:col] + [b] + row[col + 1:] for row, (_, b) in zip(rows, combo)])
                for col in range(f.dim)]
        if d < 0:
            d, nums = -d, [-x for x in nums]
        vertices.add(_reduced((nums, d)))
    return vertices


def _reduced(point):
    nums, den = point
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def test_vertex_table_matches_cramer_oracle():
    from toricbott.danilov import _engine

    rng = random.Random(2718)
    fans = _golden_fans()
    fans["p1^4"] = product(product(P1, P1), product(P1, P1))
    for name, f in fans.items():
        eng = _engine(f)
        for _ in range(2):
            twist = tuple(rng.randint(-2, 2) for _ in range(f.n_rays))
            logset = frozenset(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays)))
            for merged in (eng.merged(0, logset), eng.merged(1, logset)):
                expected = _cramer_vertices(f, merged, twist)
                # every level choice of every solver, a merged ray never on level 1
                table = {_reduced(eng.point((solver, levels), twist))
                         for solver in eng.solvers for _, levels, _ in solver[4]
                         if not any(lv == 1 and merged[i] for i, lv in zip(solver[0], levels))}
                assert table == expected, (name, merged, twist)
                by_pattern = {}
                for nums, den in expected:
                    margins = [sum(a * b for a, b in zip(nums, ray)) + den * t
                               for ray, t in zip(f.rays, twist)]
                    states = eng.pattern(merged, margins, den)
                    if states is not None:
                        by_pattern.setdefault(states, set()).add((nums, den))
                # the pass lists a vertex once per solver through it, unreduced
                got = {states: set(map(_reduced, (eng.point(v, twist) for v in verts)))
                       for states, verts in eng.chamber_patterns(merged, twist).items()}
                assert got == by_pattern, (name, merged, twist)


def test_shared_pass_matches_one_degree_at_a_time():
    # log_spec_dims answers every p >= 1 from one pass; the reference is
    # the uncached cech_cohomology run for one p only
    rng = random.Random(9931)
    for name, f in _golden_fans().items():
        for trial in range(4):
            dprime = (tuple(range(f.n_rays)) if trial == 0 else
                      tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays)))))
            twist = InvariantDivisor(tuple(rng.randint(-2, 2) for _ in range(f.n_rays)))
            for p in range(f.dim + 2):
                expected = cech_cohomology(f, sheaf_spec(p, dprime, twist)).dims
                assert log_spec_dims(f, p, dprime, twist) == expected, (name, p, dprime, twist)


@pytest.mark.parametrize("name, passes", [("p2", 33), ("bl1", 216), ("p3", 52),
                                          ("bl3", 397)])
def test_verify_sweep_runs_one_pass_per_flags_and_class(monkeypatch, name, passes):
    # one pass per orbit of (p = 0 or p >= 1, ray flags, twist class) under
    # the fan's automorphisms
    from toricbott.danilov import _engine, _Engine
    from toricbott.suite import thm11_sweep

    calls = []
    original = _Engine.chamber_patterns
    monkeypatch.setattr(_Engine, "chamber_patterns",
                        lambda self, *args: calls.append(args) or original(self, *args))
    _engine.cache_clear()
    out = thm11_sweep(suite_fans()[name], certify=False)
    assert out.all_verified
    assert len(calls) == passes


@pytest.mark.parametrize("name", ["bl3", "p3"])
def test_verify_reads_each_form_degree_group_once(monkeypatch, name):
    # verify_vanishing reads p = 0 and all p >= 1 with one lookup each; its
    # per_p must equal the one-degree answers of log_spec_dims
    from toricbott.danilov import _Engine
    from toricbott.divisors import hypothesis_feasible

    f = suite_fans()[name]
    rng = random.Random(f"per-p-{name}")
    lookups = []
    original = _Engine.dims
    monkeypatch.setattr(_Engine, "dims",
                        lambda self, *args: lookups.append(args) or original(self, *args))
    checked = 0
    while checked < 12:
        dprime = tuple(i for i in range(f.n_rays) if rng.random() < 0.5)
        l = InvariantDivisor(tuple(rng.randint(0, 2) for _ in range(f.n_rays)))
        witness = hypothesis_feasible(f, l, dprime)
        if witness is None:
            continue
        lookups.clear()
        report = verify_vanishing(f, dprime, l, witness=witness)
        assert [args[0] for args in lookups] == [(0,), tuple(range(1, f.dim + 1))]
        twist = l - rayset_divisor(f, dprime)
        assert report.per_p == tuple(log_spec_dims(f, p, dprime, twist)
                                     for p in range(f.dim + 1))
        checked += 1
