import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.fan import (
    Fan,
    FanDiagnostics,
    FanError,
    MalformedInput,
    NotACone,
    UnknownFamily,
    builtin,
    fan_from_dict,
    fan_hash,
    fan_to_dict,
    hirzebruch,
    is_cone,
    product,
    projective_space,
    star_subdivision,
    stratum_fan,
    validate,
    walls,
    _dual_basis,
    automorphisms,
)
from toricbott.divisors import is_projective
from toricbott.exactmath import det
from toricbott.suite import suite_fans

P2 = projective_space(2)
DET_TWO = Fan(2, ((1, 0), (1, 2), (-1, -1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
MISSING_CONE = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
# cone(e1, e2) and cone(e1, e1 + e2) overlap in the interior
OVERLAPPING = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
# eight smooth cones {i, i + 1 mod 8} around the origin twice: facet pairing
# and wall connectivity pass, and only the pairwise-face LP refuses it
WINDS_TWICE = Fan(2, ((1, 0), (-2, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, 1), (-2, -1)),
                  tuple((i, (i + 1) % 8) for i in range(8)))
# cone(e1, -e1) spans a line
DEGENERATE = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 2), (1, 2), (2, 3), (0, 3)))
# the cones of two complete fans on disjoint ray sets: no wall joins them
DISCONNECTED = Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)),
                   ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


def test_p2_is_smooth_and_complete():
    diag = validate(P2)
    assert diag.smooth and diag.complete and diag.fan_axioms


def test_missing_cone_not_complete():
    diag = validate(MISSING_CONE)
    assert diag.smooth and not diag.complete


def test_determinant_two_not_smooth():
    assert not validate(DET_TWO).smooth


def test_validate_diagnostics_are_pinned():
    # completeness is decided by facet pairing, connectivity and the
    # pairwise-face LP alone; each fixture keeps its verdicts and reasons
    assert validate(DET_TWO) == FanDiagnostics(
        False, True, True, ("non-unimodular maximal cones: [(0, 1)]",))
    assert validate(MISSING_CONE) == FanDiagnostics(
        True, False, True, ("facet (0,) lies in 1 maximal cones",))
    assert validate(OVERLAPPING) == FanDiagnostics(
        True, False, False, ("two maximal cones overlap beyond their common ray face",
                             "facet (1,) lies in 1 maximal cones"))
    assert validate(WINDS_TWICE) == FanDiagnostics(
        True, True, False, ("two maximal cones overlap beyond their common ray face",))
    assert validate(DEGENERATE) == FanDiagnostics(
        False, False, False, ("non-unimodular maximal cones: [(0, 2)]",
                              "degenerate maximal cone; fan axioms not checkable",
                              "facet (2,) lies in 3 maximal cones"))
    assert validate(DISCONNECTED) == FanDiagnostics(
        True, False, False, ("two maximal cones overlap beyond their common ray face",
                             "wall-adjacency graph is disconnected"))


def test_dual_basis_is_dual_to_the_cone_rays():
    p1, p3 = projective_space(1), projective_space(3)
    fans = dict(suite_fans(), p2xp1=product(P2, p1), blpt_p3=star_subdivision(p3, (0, 1, 2)),
                p1_4=product(product(p1, p1), product(p1, p1)))
    for name, f in fans.items():
        for cone in f.max_cones:
            duals = _dual_basis(f, cone)
            pairing = [[sum(a * b for a, b in zip(m, f.rays[ray])) for ray in cone]
                       for m in duals]
            assert pairing == [[int(i == j) for j in range(f.dim)] for i in range(f.dim)], name


def test_dual_basis_rejects_a_non_unimodular_cone():
    with pytest.raises(FanError, match="unimodular"):
        _dual_basis(DET_TWO, (0, 1))


def test_nonprimitive_ray_rejected():
    with pytest.raises(MalformedInput):
        validate(Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))))


def test_wrong_cone_size_rejected():
    with pytest.raises(MalformedInput):
        validate(Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1, 2),)))


def test_overlapping_cones_fail_fan_axioms():
    assert not validate(OVERLAPPING).fan_axioms


def test_fan_axioms_take_one_lp_per_unordered_pair_of_maximal_cones(monkeypatch):
    import toricbott.fan as fanmod

    calls = []
    original = fanmod.lp_feasible_strict
    monkeypatch.setattr(fanmod, "lp_feasible_strict",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    bl3 = suite_fans()["bl3"]
    assert fanmod._pairwise_face_check(bl3)
    assert len(calls) == 6 * 5 // 2
    assert not fanmod._pairwise_face_check(OVERLAPPING)


def test_wall_counts():
    assert len(walls(P2)) == 3
    assert len(walls(product(projective_space(1), projective_space(1)))) == 4
    assert len(walls(projective_space(3))) == 6


def test_walls_match_cone_count_formula():
    for f in suite_fans().values():
        expected = len(f.max_cones) * f.dim // 2
        assert len(walls(f)) == expected


def test_star_subdivision_p2():
    bl = star_subdivision(P2, (0, 1))
    assert bl.n_rays == 4
    assert (1, 1) in bl.rays
    assert len(bl.max_cones) == 4


def test_star_subdivision_p3_max_cone():
    p3 = projective_space(3)
    bl = star_subdivision(p3, p3.max_cones[0])
    assert bl.n_rays == 5
    assert len(bl.max_cones) == 6


def test_star_subdivision_single_ray_rejected():
    with pytest.raises(MalformedInput):
        star_subdivision(P2, (0,))


@pytest.mark.parametrize("tau", [(0.0, 1.0), (True, 2)], ids=["float-index", "bool-index"])
def test_star_subdivision_rejects_non_integer_cone_indices(tau):
    # (0.0, 1.0) once escaped as a bare TypeError, and (True, 2) quietly
    # subdivided the cone (1, 2)
    with pytest.raises(MalformedInput, match="integer"):
        star_subdivision(P2, tau)


def test_star_subdivision_requires_a_cone():
    p1xp1 = product(projective_space(1), projective_space(1))
    # rays 0 and 1 are the two opposite rays of the first factor
    assert p1xp1.rays[0] == (1, 0) and p1xp1.rays[1] == (-1, 0)
    with pytest.raises(NotACone):
        star_subdivision(p1xp1, (0, 1))
    with pytest.raises(NotACone, match="does not span a cone"):
        stratum_fan(p1xp1, (0, 1))


def test_star_subdivision_requires_a_smooth_fan():
    with pytest.raises(FanError, match="requires a smooth fan"):
        star_subdivision(DET_TWO, (0, 3))


def test_star_subdivision_refuses_a_ray_already_present():
    # OVERLAPPING is smooth cone by cone, and e1 + e2 is already its ray 2
    assert validate(OVERLAPPING).smooth
    with pytest.raises(MalformedInput, match=r"ray \(1, 1\) already present"):
        star_subdivision(OVERLAPPING, (0, 1))


def test_star_subdivision_preserves_smooth_complete():
    for f in suite_fans().values():
        if f.dim < 2:
            continue
        bl = star_subdivision(f, f.max_cones[0])
        assert validate(bl).ok


def test_surface_cone_count_equals_ray_count():
    for f in suite_fans().values():
        if f.dim == 2:
            assert len(f.max_cones) == f.n_rays


def test_stratum_of_p2_ray_is_p1():
    sp = stratum_fan(P2, (1,))
    assert sp.fan.dim == 1
    assert set(sp.fan.rays) == {(1,), (-1,)}


def test_stratum_of_p1xp1_ray_is_p1():
    p1xp1 = product(projective_space(1), projective_space(1))
    sp = stratum_fan(p1xp1, (0,))
    assert sp.fan.dim == 1
    assert set(sp.fan.rays) == {(1,), (-1,)}


def test_stratum_of_empty_cone_is_the_fan():
    sp = stratum_fan(P2, ())
    assert sp.fan == P2


@pytest.mark.parametrize("tau", [(True,), (0.0,), (0.0, True), (0, 1.0)],
                         ids=["true", "float-zero", "float-and-bool", "float-one"])
def test_stratum_and_cone_reject_non_integer_ray_indices(tau):
    # the stratum cache once took True for ray 1 and 0.0 for ray 0, and
    # is_cone accepted (0.0, True) as the cone (0, 1)
    stratum_fan(P2, (0,)), stratum_fan(P2, (1,)), stratum_fan(P2, (0, 1))
    with pytest.raises(MalformedInput, match="integer"):
        stratum_fan(P2, tau)
    with pytest.raises(MalformedInput, match="integer"):
        is_cone(P2, tau)


def test_stratum_of_unsorted_cone_is_the_sorted_one():
    assert stratum_fan(P2, (1, 0)) == stratum_fan(P2, (0, 1))
    assert is_cone(P2, [1, 0]) and not is_cone(P2, (0, 0))


def test_stratum_fans_stay_smooth_complete():
    for f in suite_fans().values():
        for i in range(f.n_rays):
            sp = stratum_fan(f, (i,))
            assert sp.fan.dim == f.dim - 1
            assert validate(sp.fan).ok


def test_projective_space_rays():
    p1 = projective_space(1)
    assert set(p1.rays) == {(1,), (-1,)}


def test_hirzebruch_zero_is_p1xp1():
    f0 = hirzebruch(0)
    assert f0.n_rays == 4 and len(f0.max_cones) == 4
    p1xp1 = product(projective_space(1), projective_space(1))

    def cone_vectors(f):
        return sorted(tuple(sorted(f.rays[i] for i in c)) for c in f.max_cones)

    assert cone_vectors(f0) == cone_vectors(p1xp1)


@pytest.mark.parametrize("family, param", [(projective_space, 0), (hirzebruch, -1)])
def test_families_refuse_parameters_out_of_range(family, param):
    with pytest.raises(UnknownFamily, match="needs"):
        family(param)


def test_builtin_dispatch():
    assert builtin("projective_space", dim=2) == P2
    assert builtin("hirzebruch", param=1) == hirzebruch(1)
    with pytest.raises(UnknownFamily):
        builtin("weighted_projective", dim=2)


def test_builtin_needs_its_integer_parameter():
    with pytest.raises(MalformedInput, match="'dim'"):
        builtin("projective_space")
    with pytest.raises(MalformedInput, match="'param'"):
        builtin("hirzebruch", dim=2)
    for bad in (2.7, True, "2"):
        with pytest.raises(MalformedInput, match="'dim'"):
            builtin("projective_space", dim=bad)


def test_builtin_rejects_a_parameter_its_family_does_not_take():
    # a dropped parameter would answer for another fan than the one asked for
    with pytest.raises(MalformedInput, match="'param'"):
        builtin("projective_space", dim=1, param=5)
    with pytest.raises(MalformedInput, match="'dim'"):
        builtin("hirzebruch", param=1, dim=2)


@pytest.mark.parametrize("dim, rays, cones", [
    (1, ((1.9,), (-1,)), ((0,), (1,))),
    (1.0, ((1,), (-1,)), ((0,), (1,))),
    (True, ((1,), (-1,)), ((0,), (1,))),
    (1, ((True,), (-1,)), ((0,), (1,))),
    (1, ((1,), (-1,)), ((0.0,), (1,))),
], ids=["float-ray", "float-dim", "bool-dim", "bool-ray", "float-index"])
def test_fan_constructor_rejects_non_integer_numbers(dim, rays, cones):
    # a truncating constructor would turn the first fan into P^1
    with pytest.raises(MalformedInput):
        Fan(dim, rays, cones)


def test_point_fan_validates_and_is_projective():
    point = stratum_fan(P2, (0, 1)).fan
    assert validate(point) == FanDiagnostics(True, True, True, ())
    assert is_projective(point)


def test_fan_file_format_roundtrip():
    data = fan_to_dict(P2)
    text = json.dumps(data)
    assert fan_from_dict(json.loads(text)) == P2


def test_fan_from_dict_rejects_junk():
    with pytest.raises(MalformedInput):
        fan_from_dict({"dim": 2, "rays": [[1, 0]], "max_cones": [[0, 5]]})


@pytest.mark.parametrize("field, value", [
    ("dim", 2.9),
    ("dim", True),
    ("dim", "2"),
    ("rays", [[1, 0], [0, 1], [-1.5, -1]]),
    ("rays", [[1, 0], [0, 1], [-1.0, -1]]),
    ("rays", [[True, 0], [0, 1], [-1, -1]]),
    ("max_cones", [[0, 1], [1, 2], [0, 2.0]]),
    ("max_cones", [[0, True], [1, 2], [0, 2]]),
])
def test_fan_from_dict_rejects_non_integer_numbers(field, value):
    # the reader must not truncate: [-1.5, -1] once loaded silently as P2
    data = fan_to_dict(P2)
    data[field] = value
    with pytest.raises(MalformedInput):
        fan_from_dict(data)


@pytest.mark.parametrize("key", ["dim", "rays", "max_cones"])
def test_fan_from_dict_names_a_missing_key(key):
    data = fan_to_dict(P2)
    del data[key]
    with pytest.raises(MalformedInput, match=f"bad fan data: '{key}'"):
        fan_from_dict(data)


def test_fan_hash_is_stable():
    assert fan_hash(P2) == fan_hash(projective_space(2))
    assert fan_hash(P2) != fan_hash(projective_space(3))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(suite_fans())))
def test_double_subdivision_stays_valid(name):
    f = suite_fans()[name]
    if f.dim < 2:
        return
    once = star_subdivision(f, f.max_cones[0])
    twice = star_subdivision(once, once.max_cones[-1])
    assert validate(twice).ok


def _inverse(rows):
    """Inverse of a nonsingular square matrix, by Gauss-Jordan over Fraction."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                aug[i] = [a - aug[i][col] * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _brute_force_automorphisms(f):
    """Every ray permutation pi with an integral g, det g = +-1, such that
    g u_rho = u_pi(rho) for every ray and every maximal cone maps onto a
    maximal cone.  g is solved from the first r linearly independent rays."""
    basis = next(s for s in itertools.combinations(range(f.n_rays), f.dim)
                 if det([list(f.rays[i]) for i in s]) != 0)
    # columns of B are the basis rays; g B = C gives g = C B^-1
    b_inv = _inverse([[f.rays[i][k] for i in basis] for k in range(f.dim)])
    cones = {frozenset(c) for c in f.max_cones}
    found = set()
    for perm in itertools.permutations(range(f.n_rays)):
        if any(frozenset(perm[i] for i in c) not in cones for c in f.max_cones):
            continue
        c_rows = [[f.rays[perm[i]][k] for i in basis] for k in range(f.dim)]
        g = [[sum(a * b for a, b in zip(row, col)) for col in zip(*b_inv)] for row in c_rows]
        if any(x.denominator != 1 for row in g for x in row):
            continue
        g = [[int(x) for x in row] for row in g]
        if det(g) not in (1, -1):
            continue
        if all(tuple(sum(a * b for a, b in zip(row, f.rays[rho])) for row in g)
               == f.rays[perm[rho]] for rho in range(f.n_rays)):
            found.add(perm)
    return found


_P1 = projective_space(1)


@pytest.mark.parametrize("name, order", [
    ("p1", 2), ("p2", 6), ("p3", 24), ("p1xp1", 8), ("f1", 2), ("f2", 2),
    ("bl1", 2), ("bl2", 2), ("bl3", 12),
    ("p2xp1", 12), ("blpt_p3", 6), ("p1^3", 48),
])
def test_automorphisms_match_the_brute_force_oracle(name, order):
    fans = dict(suite_fans())
    fans["p2xp1"] = product(P2, _P1)
    fans["blpt_p3"] = star_subdivision(projective_space(3), (0, 1, 2))
    fans["p1^3"] = product(product(_P1, _P1), _P1)
    f = fans[name]
    group = automorphisms(f)
    assert len(group) == len(set(group)) == order
    assert set(group) == _brute_force_automorphisms(f)
    assert group[0] == tuple(range(f.n_rays))
