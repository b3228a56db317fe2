import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.exactmath import lp_feasible_strict
from toricbott.divisors import (
    InvariantDivisor,
    _restriction,
    _zero_on,
    canonical_divisor,
    divisor_from_dict,
    hypothesis_feasible,
    intersect_wall,
    is_ample,
    is_projective,
    ray_divisor,
    require_witness,
    residual_divisor,
    restrict_to_stratum,
    sorted_logset,
    wall_matrix,
    wall_numbers,
    zero_divisor,
)
from toricbott.fan import (
    MalformedInput,
    _dual_basis,
    hirzebruch,
    product,
    projective_space,
    star_subdivision,
    stratum_fan,
    walls,
)
from toricbott.suite import suite_fans

P1 = projective_space(1)
P2 = projective_space(2)


def principal_divisor(f, m):
    """div(chi^m) = sum <m, u_rho> D_rho; ValueError unless m has one entry
    per coordinate of the lattice."""
    if len(m) != f.dim:
        raise ValueError(f"weight has {len(m)} entries for a lattice of rank {f.dim}")
    return InvariantDivisor(tuple(sum(mk * uk for mk, uk in zip(m, ray)) for ray in f.rays))


def is_nef(f, d):
    """Nonnegative on every wall curve."""
    return all(v >= 0 for v in wall_numbers(f, d))


def divisor_to_dict(d):
    """The divisor file format that ``divisor_from_dict`` reads."""
    return {"coeffs": list(d.coeffs)}


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


@pytest.mark.parametrize("name, dprime, coeffs, witness, residual", [
    ("p2", (0, 1, 2), (2, 0, 0), (0, 0, 0), (2, 0, 0)),
    ("f2", (1,), (0, 1, 1, 0), (Fraction(2, 3),), (0, 1, 3, 0)),
    ("bl2", (0, 1), (0, 1, 1, 0, 1), (0, Fraction(1, 2)), (0, 1, 2, 0, 2)),
    ("bl3", (0, 1, 2), (0, 1, 1, 0, 1, 0), (Fraction(1, 3),) * 3, (-1, 2, 2, 0, 3, 0)),
])
def test_residual_is_the_cleared_integer_class(name, dprime, coeffs, witness, residual):
    # N (L - dD') with N the lcm of the witness denominators: ample exactly
    # when L - dD' is, and it restricts to N times its restriction
    f = suite_fans()[name]
    l = InvariantDivisor(coeffs)
    r = require_witness(f, l, dprime, witness)
    assert r == residual_divisor(f, l, dprime, witness) == InvariantDivisor(residual)
    n, _ = _cleared(witness)
    rational = list(coeffs)
    for j, d in zip(dprime, witness):
        rational[j] -= d
    assert r.coeffs == tuple(n * x for x in rational)
    for tau in ((j,) for j in range(f.n_rays)):
        expected = tuple(n * x for x in _covector_restriction(f, rational, tau))
        restricted = restrict_to_stratum(f, r, tau)
        assert restricted.coeffs == expected
        assert is_ample(stratum_fan(f, tau).fan, restricted)


def test_wrong_length_divisors_are_rejected():
    # a zip over coefficients would drop the extra entries or the missing
    # rays and answer for another divisor
    from toricbott.danilov import euler_additivity_check

    with pytest.raises(ValueError, match="2 coefficients for 3 rays"):
        hypothesis_feasible(P2, InvariantDivisor((1, 1)), ())
    with pytest.raises(ValueError, match="4 coefficients for 3 rays"):
        is_ample(P2, InvariantDivisor((1, 1, 1, -9)))
    with pytest.raises(ValueError):
        is_ample(P2, InvariantDivisor((1,)))
    with pytest.raises(ValueError):
        is_nef(P2, InvariantDivisor((1,)))
    with pytest.raises(ValueError, match="do not live on one fan"):
        InvariantDivisor((1, 0)) + InvariantDivisor((1, 0, 0))
    with pytest.raises(ValueError, match="do not live on one fan"):
        InvariantDivisor((1, 0, 0, 0)) - InvariantDivisor((1, 0, 0))
    with pytest.raises(ValueError):
        euler_additivity_check(P2, (), 0, InvariantDivisor((1,)))
    # restriction must neither index past a short divisor nor drop a long
    # one's extra entries
    with pytest.raises(ValueError, match="1 coefficients for 3 rays"):
        restrict_to_stratum(P2, InvariantDivisor((1,)), (0,))
    with pytest.raises(ValueError, match="4 coefficients for 3 rays"):
        restrict_to_stratum(P2, InvariantDivisor((1, 0, 0, 5)), (0,))
    assert InvariantDivisor((1, 2)) - InvariantDivisor((3, -1)) == InvariantDivisor((-2, 3))


@pytest.mark.parametrize("index", [0.5, True, "0"])
def test_ray_divisor_index_must_be_an_int(index):
    # a float or bool index must not read as a ray (0.5 matched none, True D_1)
    with pytest.raises(ValueError, match="ray index"):
        ray_divisor(P2, index)


def test_sorted_logset_sorts_and_checks_the_range():
    assert sorted_logset(P2, (2, 0, 2)) == (0, 2)
    for bad in ((3,), (-1,), (0, 7)):
        with pytest.raises(ValueError, match="out of range"):
            sorted_logset(P2, bad)
        with pytest.raises(ValueError, match="out of range"):
            hypothesis_feasible(P2, ray_divisor(P2, 0), bad)
        with pytest.raises(ValueError, match="out of range"):
            require_witness(P2, ray_divisor(P2, 0), bad, (0,) * len(bad))


@pytest.mark.parametrize("bad", [(0.5,), (True,), (0, 1.0), (0, "1")])
def test_log_rays_must_be_ints_at_every_entry_point(bad):
    # a float or bool index passed the range test: (0.5,) gave the D' = empty
    # answer, and (True,) built a certificate whose JSON was then rejected
    from toricbott.certifier import build_certificate
    from toricbott.danilov import hodge_count_check, log_spec_dims, verify_vanishing

    l = 2 * ray_divisor(P2, 0)
    calls = (lambda: sorted_logset(P2, bad),
             lambda: verify_vanishing(P2, bad, l, unchecked=True),
             lambda: log_spec_dims(P2, 1, bad, l),
             lambda: hodge_count_check(P2, bad + (1, 2)),
             lambda: hypothesis_feasible(P2, l, bad),
             lambda: build_certificate(P2, bad, l, (0,) * len(bad)))
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


def test_hypothesis_with_empty_logset_is_ampleness():
    # with D' empty the witness is the empty vector exactly when L is ample
    fans = suite_fans()
    cases = [(f, (0, 1)) for f in fans.values() if f.n_rays <= 4]
    cases += [(fans[name], (-1, 0, 1, 2)) for name in ("p2", "f1", "bl1")]
    for f, values in cases:
        for coeffs in itertools.product(values, repeat=f.n_rays):
            l = InvariantDivisor(coeffs)
            assert hypothesis_feasible(f, l, ()) == (() if is_ample(f, l) else None)


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


@pytest.mark.parametrize("name", sorted(suite_fans()))
def test_hypothesis_is_monotone_in_the_logset(name):
    # the lemma the thm11 sweep walks the D' lattice by: a witness at
    # D' ⊂ E, extended by zeros, is one at E; so infeasible at E is
    # infeasible at D'
    f = suite_fans()[name]
    rng = random.Random(17)
    seen = {"infeasible at E": 0, "extended": 0}
    for _ in range(300):
        l = InvariantDivisor(tuple(rng.randint(-1, 2) for _ in range(f.n_rays)))
        e = tuple(sorted(rng.sample(range(f.n_rays), rng.randint(0, f.n_rays))))
        dprime = tuple(sorted(rng.sample(e, rng.randint(0, len(e)))))
        if hypothesis_feasible(f, l, e) is None:
            seen["infeasible at E"] += 1
            assert hypothesis_feasible(f, l, dprime) is None
        w = hypothesis_feasible(f, l, dprime)
        if w is not None:
            seen["extended"] += 1
            at = dict(zip(dprime, w))
            require_witness(f, l, e, tuple(at.get(j, 0) for j in e))
    assert min(seen.values()) >= 5, seen


def test_linearly_equivalent_bundles_run_one_exact_lp_each(monkeypatch):
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

    monkeypatch.setattr(divisors, "lp_feasible_strict", counting)
    w1 = hypothesis_feasible(bl3, l1, dprime)
    w2 = hypothesis_feasible(bl3, l2, dprime)
    # no candidate point decides either bundle; the LP reads only their
    # (equal) wall numbers, so both get one witness
    assert len(calls) == 2
    assert w1 is not None and w2 == w1
    for l in (l1, l2):
        assert is_ample(bl3, residual_divisor(bl3, l, dprime, w1))


@pytest.mark.parametrize("name, dprime, coeffs, expected", [
    ("f2", (1,), (0, 1, 1, 0), (Fraction(2, 3),)),
    ("bl2", (0, 1), (0, 1, 1, 0, 1), (0, Fraction(1, 2))),
    ("bl3", (0, 1, 2), (0, 1, 1, 0, 1, 0), (Fraction(1, 3),) * 3),
    ("bl3", (0, 1, 4, 5), (0, 1, 0, 0, 1, 0), None),
])
def test_exact_lp_witnesses_are_pinned(monkeypatch, name, dprime, coeffs, expected):
    # the pivot and tie rules decide these witnesses, and the certificates
    # carry them; a change to either rule must show here first
    import toricbott.divisors as divisors

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lp_feasible_strict(*args, **kwargs)

    monkeypatch.setattr(divisors, "lp_feasible_strict", counting)
    w = hypothesis_feasible(suite_fans()[name], InvariantDivisor(coeffs), dprime)
    assert len(calls) == 1
    assert w == expected
    if w is not None:
        assert tuple(map(type, w)) == tuple(map(type, expected))


def test_every_suite_fan_is_projective():
    for f in suite_fans().values():
        assert is_projective(f)


def test_every_ray_divisor_meets_some_wall_curve_positively():
    # on a projective X each D_j is nonzero and effective and the wall
    # curves span the Mori cone, so D_j meets some wall curve positively:
    # subtracting any one D_j lowers some wall number of L
    fans = dict(suite_fans())
    p1xp1 = product(P1, P1)
    fans.update(p2xp1=product(P2, P1),
                blpt_p3=star_subdivision(projective_space(3), (0, 1, 2)),
                p1_3=product(p1xp1, P1), p1_4=product(p1xp1, p1xp1))
    for name, f in fans.items():
        for j, column in enumerate(zip(*wall_matrix(f))):
            assert max(column) > 0, (name, j)


def test_restriction_examples():
    d = restrict_to_stratum(P2, ray_divisor(P2, 0), (1,))
    assert sum(d.coeffs) == 1
    z = restrict_to_stratum(P2, zero_divisor(P2), (1,))
    assert z.coeffs == (0, 0)
    p1xp1 = product(P1, P1)
    fiber = ray_divisor(p1xp1, 0)
    r = restrict_to_stratum(p1xp1, fiber, (2,))
    assert sum(r.coeffs) == 1


def test_restriction_to_the_empty_cone_is_the_identity():
    rng = random.Random(13)
    for f in suite_fans().values():
        for _ in range(20):
            d = InvariantDivisor(tuple(rng.randint(-3, 3) for _ in range(f.n_rays)))
            assert restrict_to_stratum(f, d, ()) == d


def test_divisor_file_format():
    d = InvariantDivisor((1, 0, -3))
    data = divisor_to_dict(d)
    assert data["coeffs"] == [1, 0, -3]
    assert all(type(x) is int for x in data["coeffs"])
    assert divisor_from_dict(data) == d
    for bad in ("1/2", 1.5, True):
        with pytest.raises(ValueError, match=f"coefficient {bad!r} is not an integer"):
            divisor_from_dict({"coeffs": [1, bad, 0]})
    with pytest.raises(ValueError):
        divisor_from_dict({"coeffs": 3})


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), 0.5, 1.0, True])
def test_divisor_coefficients_must_be_ints(bad):
    with pytest.raises(ValueError, match="must be integers"):
        InvariantDivisor((1, bad, 0))
    if type(bad) is not bool:  # True * 1 is the int 1
        with pytest.raises(ValueError, match="must be integers"):
            bad * InvariantDivisor((1, 0, 0))


def test_principal_divisor_needs_one_entry_per_coordinate():
    assert principal_divisor(P2, (1, 0)) == InvariantDivisor((1, 0, -1))
    for m in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="entries for a lattice of rank 2"):
            principal_divisor(P2, m)


def _covector_restriction(f, coeffs, tau):
    """Restriction to V(tau) written out from its definition in Fraction
    arithmetic: the covector m* = -sum_{rho in tau} a_rho m_rho over the
    base cone's dual basis m_i, then a_rho + <m*, u_rho> at each adjacent
    ray, in the stratum fan's ray order."""
    sp = stratum_fan(f, tuple(sorted(tau)))
    cone = f.max_cones[sp.base_cone]
    duals = _dual_basis(f, cone)
    mstar = [Fraction(0)] * f.dim
    for pos, ray in enumerate(cone):
        if ray in tau:
            for k in range(f.dim):
                mstar[k] -= Fraction(coeffs[ray]) * duals[pos][k]
    return tuple(coeffs[ray] + sum(m * u for m, u in zip(mstar, f.rays[ray]))
                 for ray in sp.adjacent)


def _cleared(coeffs):
    """(N, N * coeffs as ints) with N the lcm of the denominators."""
    n = math.lcm(*(Fraction(x).denominator for x in coeffs))
    return n, tuple(int(n * x) for x in coeffs)


BL_PT_P3 = star_subdivision(projective_space(3), (0, 1, 2))


def _rule_fans():
    fans = dict(suite_fans())
    fans["p2xp1"] = product(P2, P1)
    fans["blpt_p3"] = BL_PT_P3
    return fans


@pytest.mark.parametrize("name", sorted(_rule_fans()))
def test_restriction_matches_the_covector_formula(name):
    f = _rule_fans()[name]
    rng = random.Random(f"restrict-{name}")
    taus = sorted({tau for cone in f.max_cones for k in (1, 2)
                   for tau in itertools.combinations(cone, k)})
    for tau in taus:
        for rational in (False, True):
            coeffs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rational
                           else rng.randint(-4, 4) for _ in range(f.n_rays))
            # restriction is linear: N D restricts to N times D's restriction
            n, cleared = _cleared(coeffs)
            restricted = restrict_to_stratum(f, InvariantDivisor(cleared), tau)
            expected = tuple(n * x for x in _covector_restriction(f, coeffs, tau))
            assert restricted.coeffs == expected, (tau, coeffs)
            assert all(type(x) is int for x in restricted.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_rule_fans())), st.randoms(use_true_random=False))
def test_zero_on_moves_within_the_class(name, rnd):
    f = _rule_fans()[name]
    cone = rnd.randrange(len(f.max_cones))
    rays = tuple(rnd.sample(f.max_cones[cone], rnd.randint(0, f.dim)))
    _, coeffs = _cleared([Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                          for _ in range(f.n_rays)])
    moved = _zero_on(f, coeffs, cone, rays)
    for ray in f.max_cones[cone]:
        assert moved[ray] == (0 if ray in rays else coeffs[ray])
    difference = InvariantDivisor(moved) - InvariantDivisor(coeffs)
    assert all(v == 0 for v in wall_numbers(f, difference))


def test_exceptional_divisor_restricts_to_o_minus_one():
    # Bl_pt P^3: the exceptional divisor E = D_4 is a P^2 with normal
    # bundle O(-1), so E|_E meets every line of E in -1
    e = ray_divisor(BL_PT_P3, 4)
    restricted = restrict_to_stratum(BL_PT_P3, e, (4,))
    stratum = stratum_fan(BL_PT_P3, (4,)).fan
    assert stratum.n_rays == 3
    assert wall_numbers(stratum, restricted) == (-1, -1, -1)
    assert sum(restricted.coeffs) == -1


def test_hyperplane_restricts_to_o_one_on_a_hyperplane():
    p3 = projective_space(3)
    restricted = restrict_to_stratum(p3, ray_divisor(p3, 0), (1,))
    assert stratum_fan(p3, (1,)).fan == P2
    assert wall_numbers(P2, restricted) == (1, 1, 1)


@pytest.mark.parametrize("tau", [(True,), (0.0,), (False,), (1.0,)])
def test_a_cached_restriction_does_not_answer_for_a_bool_or_float_cone(tau):
    # True == 1 and 0.0 == 0 with equal hashes: a cache keyed on the cone as
    # given would return the restriction to the ray they equal
    d = InvariantDivisor((2, -1, 3))
    for ray in (1, 0):
        restrict_to_stratum(P2, d, (ray,))
    assert _restriction.cache_info().currsize >= 2
    with pytest.raises(MalformedInput, match="is not an integer"):
        restrict_to_stratum(P2, d, tau)
