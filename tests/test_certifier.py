import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.certifier import (
    Certificate,
    HypothesisInfeasible,
    LEAF_RULE,
    LeafNonzero,
    MalformedNode,
    RESIDUE_RULE,
    build_certificate,
    certificate_from_dict,
    certificate_hash,
    certificate_to_dict,
    check_certificate,
    cross_validate,
    leaf_count,
    visited_strata,
)
from toricbott.danilov import verify_vanishing
from toricbott.divisors import InvariantDivisor, hypothesis_feasible, ray_divisor, zero_divisor
from toricbott.fan import hirzebruch, product, projective_space
from toricbott.suite import suite_fans

P1 = projective_space(1)
P2 = projective_space(2)


def test_full_boundary_gives_leaf_roots():
    cert = build_certificate(P2, (0, 1, 2), ray_divisor(P2, 0))
    assert all(root.rule == LEAF_RULE for root in cert.roots)
    assert check_certificate(P2, cert)


def test_p2_empty_logset_tree_shape():
    cert = build_certificate(P2, (), ray_divisor(P2, 0))
    root = cert.roots[0]
    # three residue layers along the sub chain, one per ray
    depth = 0
    node = root
    while node.rule == RESIDUE_RULE:
        assert node.added_ray == depth
        node = node.sub_child
        depth += 1
    assert depth == 3 and node.rule == LEAF_RULE
    # quotient children live on P^1 strata
    assert root.quotient_child.claim.stratum == (0,)
    assert check_certificate(P2, cert)


def test_p1_tree_shape():
    cert = build_certificate(P1, (), ray_divisor(P1, 0))
    root = cert.roots[0]
    assert root.rule == RESIDUE_RULE
    assert root.sub_child.rule == RESIDUE_RULE
    assert root.sub_child.sub_child.rule == LEAF_RULE
    assert root.quotient_child.claim.stratum == (0,)
    assert check_certificate(P1, cert)


def test_infeasible_raises():
    with pytest.raises(HypothesisInfeasible):
        build_certificate(P2, (0,), zero_divisor(P2))


def _replace_leaf_twists(node, delta):
    """Shift every leaf twist by delta (per-ray constant), leaving the
    internal structure untouched."""
    if node.rule == LEAF_RULE:
        new_twist = tuple(t + delta for t in node.claim.twist)
        claim = dataclasses.replace(node.claim, twist=new_twist)
        return dataclasses.replace(node, claim=claim)
    return dataclasses.replace(
        node,
        sub_child=_replace_leaf_twists(node.sub_child, delta),
        quotient_child=_replace_leaf_twists(node.quotient_child, delta),
    )


def test_tampered_leaf_twist_is_caught_as_leaf_nonzero():
    cert = build_certificate(P2, (), ray_divisor(P2, 0))
    bad_roots = tuple(_replace_leaf_twists(r, -5) for r in cert.roots)
    bad = dataclasses.replace(cert, roots=bad_roots)
    assert not check_certificate(P2, bad)
    with pytest.raises(LeafNonzero):
        check_certificate(P2, bad, raise_on_failure=True)


def test_tampered_added_ray_is_malformed():
    cert = build_certificate(P2, (), ray_divisor(P2, 0))
    root = cert.roots[0]
    bad_root = dataclasses.replace(root, added_ray=(root.added_ray + 1) % 3)
    bad = dataclasses.replace(cert, roots=(bad_root,) + cert.roots[1:])
    assert not check_certificate(P2, bad)
    with pytest.raises(MalformedNode):
        check_certificate(P2, bad, raise_on_failure=True)


def test_certificate_for_wrong_fan_rejected():
    cert = build_certificate(P2, (), ray_divisor(P2, 0))
    with pytest.raises(MalformedNode):
        check_certificate(projective_space(3), cert, raise_on_failure=True)


def test_cross_validate_examples():
    assert cross_validate(P2, (0,), 2 * ray_divisor(P2, 0)).agree
    p1xp1 = product(P1, P1)
    onewone = ray_divisor(p1xp1, 0) + ray_divisor(p1xp1, 2)
    assert cross_validate(p1xp1, (2, 3), onewone).agree
    f1 = hirzebruch(1)
    ample = InvariantDivisor((1, 0, 1, 2))
    assert cross_validate(f1, (), ample).agree


def test_supplied_witness_skips_the_lp(monkeypatch):
    import toricbott.certifier as certifier

    l = InvariantDivisor((2, 1, 0))
    witness = hypothesis_feasible(P2, l, (1,))
    expected = build_certificate(P2, (1,), l)
    monkeypatch.setattr(certifier, "hypothesis_feasible", None)
    assert build_certificate(P2, (1,), l, witness=witness) == expected


def test_supplied_witness_must_make_residual_ample():
    # d = 1 on ray 0 leaves O(0), which is not ample
    with pytest.raises(ValueError, match="witness"):
        build_certificate(P2, (0,), InvariantDivisor((1, 0, 0)), witness=(1,))


@pytest.mark.parametrize("dprime, l, witness, message", [
    ((0,), InvariantDivisor((0, 0, 0)), (-1,), "unit box"),
    ((0, 1), InvariantDivisor((1, 0, 0)), (0,), "entries"),
])
def test_supplied_witness_must_fit_the_log_set_and_unit_box(dprime, l, witness, message):
    with pytest.raises(ValueError, match=message):
        build_certificate(P2, dprime, l, witness=witness)


def test_certifying_sweep_decides_each_hypothesis_once(monkeypatch):
    import toricbott.certifier as certifier
    import toricbott.suite as suite

    monkeypatch.setattr(certifier, "hypothesis_feasible", None)
    out = suite.thm11_sweep(P1, certify=True)
    assert out.all_verified and out.all_certified and out.feasible > 0


def test_serialization_roundtrip_and_stable_hash():
    cert = build_certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    data = certificate_to_dict(cert)
    text = json.dumps(data, sort_keys=True)
    back = certificate_from_dict(json.loads(text))
    assert back == cert
    assert certificate_hash(back) == certificate_hash(cert)
    assert check_certificate(P2, back)


def test_witness_in_unit_box_and_matching_length():
    cert = build_certificate(P2, (0, 1), 2 * ray_divisor(P2, 0))
    assert len(cert.hypothesis_witness) == 2
    bad = dataclasses.replace(cert, hypothesis_witness=(0,))
    with pytest.raises(MalformedNode):
        check_certificate(P2, bad, raise_on_failure=True)


def test_component_order_permutation_same_verdict():
    l = ray_divisor(P2, 0)
    asc = build_certificate(P2, (), l)
    desc = build_certificate(P2, (), l, component_order=max)
    assert asc.roots != desc.roots
    assert check_certificate(P2, asc) and check_certificate(P2, desc)


def test_leaf_count_bound():
    for name in ("p1", "p2", "p1xp1", "f1"):
        f = suite_fans()[name]
        l = InvariantDivisor((1,) * f.n_rays)
        w = hypothesis_feasible(f, l, ())
        if w is None:
            continue
        cert = build_certificate(f, (), l)
        strata = visited_strata(cert)
        assert leaf_count(cert) <= (f.dim + 1) * (2 ** f.n_rays) * len(strata)


def test_visited_strata_avoid_the_log_set():
    # strata visited by the induction are never contained in D'
    dprime = (0,)
    cert = build_certificate(P2, dprime, 2 * ray_divisor(P2, 0))
    for chain in visited_strata(cert):
        if chain:
            assert chain[0] not in dprime


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("p1", "p2", "p1xp1", "f1", "bl1")),
       st.randoms(use_true_random=False))
def test_round_trip_and_implication_on_samples(name, rnd):
    f = suite_fans()[name]
    l = InvariantDivisor(tuple(rnd.randint(0, 2) for _ in range(f.n_rays)))
    dprime = tuple(sorted(rnd.sample(range(f.n_rays), rnd.randint(0, f.n_rays))))
    if hypothesis_feasible(f, l, dprime) is None:
        return
    cert = build_certificate(f, dprime, l)
    assert check_certificate(f, cert)
    # checked certificate must imply the direct engine verdict
    report = verify_vanishing(f, dprime, l, witness=cert.hypothesis_witness)
    assert report.passed
