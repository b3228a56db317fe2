import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricbott.certifier as certifier
import toricbott.divisors as divisors
from toricbott.certifier import (
    Certificate,
    LEAF_RULE,
    LeafNonzero,
    MalformedNode,
    RESIDUE_RULE,
    CertificateNode,
    VanishingClaim,
    _check_node,
    _residue_step,
    build_certificate,
    certificate_from_dict,
    certificate_hash,
    certificate_to_dict,
    check_certificate,
    cross_validate,
    leaf_count,
)
from toricbott.danilov import HypothesisNotVerified, verify_vanishing
from toricbott.divisors import InvariantDivisor, hypothesis_feasible, ray_divisor, zero_divisor
from toricbott.fan import hirzebruch, product, projective_space, stratum_fan
from toricbott.suite import suite_fans, thm11_sweep

P1 = projective_space(1)
P2 = projective_space(2)


def _clear_derivations():
    """Empty the two derivation caches that the certificates of a sweep share."""
    _residue_step.cache_clear()
    divisors._restriction.cache_clear()


def _certificate(f, dprime, l):
    """The certificate of (D', L) on the witness that the hypothesis LP finds."""
    return build_certificate(f, dprime, l, hypothesis_feasible(f, l, dprime))


def test_full_boundary_gives_leaf_roots():
    cert = _certificate(P2, (0, 1, 2), ray_divisor(P2, 0))
    assert all(root.rule == LEAF_RULE for root in cert.roots)
    assert check_certificate(P2, cert)


def test_p2_empty_logset_tree_shape():
    cert = _certificate(P2, (), ray_divisor(P2, 0))
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
    cert = _certificate(P1, (), ray_divisor(P1, 0))
    root = cert.roots[0]
    assert root.rule == RESIDUE_RULE
    assert root.sub_child.rule == RESIDUE_RULE
    assert root.sub_child.sub_child.rule == LEAF_RULE
    assert root.quotient_child.claim.stratum == (0,)
    assert check_certificate(P1, cert)


def test_p2_first_residue_step_by_hand():
    # adding D_0 to D' = D_1 with E = 2 D_0: the quotient lives on D_0 = P^1,
    # keeps the trace of D_1 (a point) in its log set and twists by O(2)
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    root = cert.roots[0]
    assert root.added_ray == 0
    assert root.sub_child.claim == VanishingClaim((), (0, 1), (2, 0, 0))
    quotient = root.quotient_child.claim
    assert quotient.stratum == (0,)
    assert quotient.logset == (stratum_fan(P2, (0,)).adjacent.index(1),)
    assert len(quotient.twist) == 2 and sum(quotient.twist) == 2


def test_p3_first_residue_step_by_hand():
    # P^3 with rays e1, e2, e3, -e1-e2-e3; adding D_0 to D' = D_1 with
    # E = 2 D_0.  The base cone of V(D_0) is (0, 1, 2) with the standard dual
    # basis, so the adjacent rays 1, 2, 3 project by (e2*, e3*) onto
    # (1, 0), (0, 1), (-1, -1): V(D_0) is P^2 and ambient ray 1 is its ray 0.
    # The character -2 e1* makes E vanish on D_0; it adds
    # <-2 e1*, u> = 0, 0, 2 at rays 1, 2, 3, so E|_{D_0} = 2 D_2 = O(2).
    p3 = projective_space(3)
    sp = stratum_fan(p3, (0,))
    assert sp.fan == P2 and sp.adjacent == (1, 2, 3) and sp.base_cone == 0
    cert = _certificate(p3, (1,), 2 * ray_divisor(p3, 0))
    root = cert.roots[0]
    assert root.added_ray == 0
    assert root.sub_child.claim == VanishingClaim((), (0, 1), (2, 0, 0, 0))
    assert root.quotient_child.claim == VanishingClaim((0,), (0,), (0, 0, 2))
    # the quotient's own first step adds its ray 1 (the trace of D_2).  On
    # P^2 the base cone of ray 1 is (0, 1), with the standard dual basis,
    # and E|_{D_0} is 0 there, so the entries at the adjacent rays 0 and 2
    # restrict verbatim; the trace of D_1 (ray 0) stays in the log set.
    step = root.quotient_child
    assert step.added_ray == 1
    assert step.sub_child.claim == VanishingClaim((0,), (0, 1), (0, 0, 2))
    assert step.quotient_child.claim == VanishingClaim((0, 1), (0,), (0, 2))
    assert check_certificate(p3, cert)


def test_infeasible_raises():
    # O(0) with D' = D_0 has no witness, and require_witness refuses d = 0
    assert hypothesis_feasible(P2, zero_divisor(P2), (0,)) is None
    with pytest.raises(ValueError, match="does not satisfy the hypothesis"):
        build_certificate(P2, (0,), zero_divisor(P2), (0,))


def test_routes_solve_no_lp_for_a_missing_witness():
    # the sweep or the CLI decides the hypothesis; a route given no witness
    # fails at once, also where the hypothesis holds (d = 0 makes 2 D_0 ample)
    l = 2 * ray_divisor(P2, 0)
    assert hypothesis_feasible(P2, l, (0,)) is not None
    with pytest.raises(HypothesisNotVerified, match="no hypothesis witness"):
        verify_vanishing(P2, (0,), l)
    for route in (build_certificate, cross_validate):
        with pytest.raises(TypeError, match="witness"):
            route(P2, (0,), l)


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
    cert = _certificate(P2, (), ray_divisor(P2, 0))
    bad_roots = tuple(_replace_leaf_twists(r, -5) for r in cert.roots)
    bad = dataclasses.replace(cert, roots=bad_roots)
    assert not check_certificate(P2, bad)
    with pytest.raises(LeafNonzero):
        check_certificate(P2, bad, raise_on_failure=True)


def test_tampered_added_ray_is_malformed():
    cert = _certificate(P2, (), ray_divisor(P2, 0))
    root = cert.roots[0]
    bad_root = dataclasses.replace(root, added_ray=(root.added_ray + 1) % 3)
    bad = dataclasses.replace(cert, roots=(bad_root,) + cert.roots[1:])
    assert not check_certificate(P2, bad)
    with pytest.raises(MalformedNode):
        check_certificate(P2, bad, raise_on_failure=True)


def _retwist_first_leaf(node):
    """The node with its first leaf (down the sub children) given the
    twist plus one on its first ray."""
    if node.rule == LEAF_RULE:
        twist = (node.claim.twist[0] + 1,) + node.claim.twist[1:]
        return dataclasses.replace(node, claim=dataclasses.replace(node.claim, twist=twist))
    return dataclasses.replace(node, sub_child=_retwist_first_leaf(node.sub_child))


def test_tampered_leaf_below_the_root_quotient_is_rejected():
    # the checker must recurse into quotient children: this leaf sits below
    # the root's quotient child, whose own claim is left as built
    p3 = projective_space(3)
    cert = _certificate(p3, (), ray_divisor(p3, 0))
    root = cert.roots[0]
    quotient = root.quotient_child
    assert quotient.rule == RESIDUE_RULE
    bad_quotient = dataclasses.replace(quotient, sub_child=_retwist_first_leaf(quotient.sub_child))
    bad = dataclasses.replace(cert, roots=(dataclasses.replace(root, quotient_child=bad_quotient),))
    assert check_certificate(p3, cert)
    assert not check_certificate(p3, bad)


def test_leaf_with_only_h1_is_leaf_nonzero():
    # on F2 the full-log leaf with twist (-2, -2, 0, 2) carries the bundle
    # (-3, -3, -1, 1), whose only nonzero group is h^1 = 1; no certificate
    # that build_certificate writes has such a leaf, so the node check is
    # called directly
    f2 = hirzebruch(2)
    leaf = CertificateNode(VanishingClaim((), (0, 1, 2, 3), (-2, -2, 0, 2)), LEAF_RULE)
    with pytest.raises(LeafNonzero, match=r"h=\(0, 1, 0\)"):
        _check_node(f2, leaf, ())


def test_certificate_for_wrong_fan_rejected():
    cert = _certificate(P2, (), ray_divisor(P2, 0))
    with pytest.raises(MalformedNode):
        check_certificate(projective_space(3), cert, raise_on_failure=True)


def test_cross_validate_examples():
    p1xp1 = product(P1, P1)
    onewone = ray_divisor(p1xp1, 0) + ray_divisor(p1xp1, 2)
    f1 = hirzebruch(1)
    ample = InvariantDivisor((1, 0, 1, 2))
    for f, dprime, l in ((P2, (0,), 2 * ray_divisor(P2, 0)), (p1xp1, (2, 3), onewone),
                         (f1, (), ample)):
        assert cross_validate(f, dprime, l, hypothesis_feasible(f, l, dprime)).agree


def test_cross_validate_uses_the_witness_it_is_given(monkeypatch):
    import toricbott.certifier as certifier
    import toricbott.danilov as danilov
    import toricbott.divisors as divisors
    import toricbott.suite as suite

    l = 2 * ray_divisor(P2, 0)
    witness = hypothesis_feasible(P2, l, (0,))

    def no_lp(*args):
        raise AssertionError("the hypothesis LP ran although a witness was given")

    # neither route holds the hypothesis LP, and none reaches it through divisors
    assert not hasattr(certifier, "hypothesis_feasible")
    assert not hasattr(danilov, "hypothesis_feasible")
    monkeypatch.setattr(divisors, "hypothesis_feasible", no_lp)
    assert cross_validate(P2, (0,), l, witness=witness).agree
    # the sweep hands its witness on, so each feasible (D', class of L) gets
    # one direct check and no second hypothesis solve
    calls = []
    original = danilov.verify_vanishing
    for module in (danilov, certifier, suite):
        monkeypatch.setattr(module, "verify_vanishing",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
    outcome = suite.thm11_sweep(P2, certify=True)
    assert outcome.agreed == outcome.feasible == 208
    assert len(calls) == outcome.checked == 24


def test_supplied_witness_skips_the_lp(monkeypatch):
    import toricbott.divisors as divisors

    l = InvariantDivisor((2, 1, 0))
    witness = hypothesis_feasible(P2, l, (1,))
    monkeypatch.setattr(divisors, "hypothesis_feasible", None)
    cert = build_certificate(P2, (1,), l, witness=witness)
    assert cert.hypothesis_witness == witness and check_certificate(P2, cert)
    # the tree does not depend on which witness of the hypothesis is given
    other = build_certificate(P2, (1,), l, (Fraction(1, 2),))
    assert other.hypothesis_witness == (Fraction(1, 2),) and other.roots == cert.roots


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


def _with_root_claim(cert, **changes):
    """The certificate whose root claim, which states D' and L, is changed."""
    root = cert.roots[0]
    claim = dataclasses.replace(root.claim, **changes)
    return dataclasses.replace(cert, roots=(dataclasses.replace(root, claim=claim),))


def test_routes_refuse_a_divisor_of_the_wrong_length():
    # a log ray beyond the end of L once escaped as an IndexError
    for route in (build_certificate, cross_validate, verify_vanishing):
        with pytest.raises(ValueError, match="2 coefficients for 3 rays"):
            route(P2, (2,), InvariantDivisor((2, 0)), witness=(0,))


def test_log_rays_must_be_rays_of_the_fan():
    with pytest.raises(ValueError, match="out of range"):
        build_certificate(P2, (-1,), InvariantDivisor((1, 0, 0)), witness=(0,))
    cert = _certificate(P2, (1,), InvariantDivisor((2, 0, 0)))
    for logset in ((7,), (-1,)):
        tampered = _with_root_claim(cert, logset=logset)
        assert not check_certificate(P2, tampered)
        with pytest.raises(MalformedNode, match="out of range"):
            check_certificate(P2, tampered, raise_on_failure=True)


def test_certifying_sweep_decides_each_hypothesis_once(monkeypatch):
    import toricbott.divisors as divisors
    import toricbott.suite as suite

    # the sweep's own solves are the only ones: the routes check its witnesses
    calls = []
    original = suite.hypothesis_feasible
    monkeypatch.setattr(divisors, "hypothesis_feasible", None)
    monkeypatch.setattr(suite, "hypothesis_feasible",
                        lambda *a: calls.append(a) or original(*a))
    out = suite.thm11_sweep(P1, certify=True)
    assert out.all_verified and out.all_certified and out.feasible > 0
    assert len(calls) == out.solved


def test_serialization_roundtrip_and_stable_hash():
    # D' and L are stated once, in the root claim
    assert [f.name for f in dataclasses.fields(Certificate)] == [
        "roots", "hypothesis_witness", "fan_sha256"]
    for f, dprime, l in ((P2, (1,), 2 * ray_divisor(P2, 0)),
                         (hirzebruch(2), (1,), InvariantDivisor((0, 1, 1, 0)))):
        cert = _certificate(f, dprime, l)
        assert cert.roots[0].claim == VanishingClaim((), dprime, l.coeffs)
        data = certificate_to_dict(cert)
        assert set(data) == {"format", "fan_sha256", "hypothesis_witness", "roots"}
        text = json.dumps(data, sort_keys=True)
        back = certificate_from_dict(json.loads(text))
        assert back == cert
        assert certificate_hash(back) == certificate_hash(cert)
        assert check_certificate(f, back)
    # F2's witness is the LP's 2/3, written as an exact "a/b" string
    assert data["hypothesis_witness"] == ["2/3"]


def test_malformed_witness_number_is_malformed_node():
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    data["hypothesis_witness"] = ["1/0"]
    with pytest.raises(MalformedNode):
        certificate_from_dict(data)


@pytest.mark.parametrize("path, value", [
    (("hypothesis_witness",), [0.5]),
    (("roots", 0, "claim", "twist"), [2.7, 0, 0]),
    (("roots", 0, "claim", "twist"), [True, 0, 0]),
    (("roots", 0, "claim", "logset"), [1.0]),
    (("roots", 0, "claim", "stratum"), [0.0]),
    (("roots", 0, "claim", "twist"), [2, 0.5, 0]),
    (("roots", 0, "added_ray"), 0.0),
    (("roots", 0, "added_ray"), True),
])
def test_non_integer_json_numbers_are_malformed_node(path, value):
    # a JSON float or bool is never truncated into an int
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(MalformedNode):
        certificate_from_dict(data)


@pytest.mark.parametrize("divisor", [(2, 0), (2, 0, 0, 0)])
def test_divisor_of_wrong_length_is_malformed(divisor):
    # L is the root claim's twist
    cert = _certificate(P2, (2,), InvariantDivisor((2, 0, 0)))
    bad = _with_root_claim(cert, twist=divisor)
    with pytest.raises(MalformedNode, match=f"{len(divisor)} coefficients for 3 rays"):
        check_certificate(P2, bad, raise_on_failure=True)


def test_format_1_is_rejected_by_name():
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    data["format"] = "toricbott-certificate/1"
    with pytest.raises(MalformedNode, match="toricbott-certificate/1"):
        certificate_from_dict(data)


def test_format_2_is_rejected_by_name():
    # /2 kept a second copy of D' and L at the top level; there is no reader
    # for it, also when the copies agree with the root claim
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    data.update(format="toricbott-certificate/2", logset=[1], divisor=[2, 0, 0])
    with pytest.raises(MalformedNode, match="toricbott-certificate/2"):
        certificate_from_dict(data)


@pytest.mark.parametrize("key, value", [
    ("hypothesis_witness", "0"),
    ("hypothesis_witness", {"0": 1}),
    ("roots", {"0": None}),
    ("roots", "r"),
])
def test_string_or_object_where_a_list_belongs_is_malformed(key, value):
    # the string "0" used to be read as the witness [0], which then checked
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    assert cert.hypothesis_witness == (0,)
    data = certificate_to_dict(cert)
    data[key] = value
    with pytest.raises(MalformedNode, match="must be lists"):
        certificate_from_dict(data)


@pytest.mark.parametrize("key", ["logset", "divisor"])
def test_a_second_statement_beside_the_root_claim_is_malformed(key):
    # a /3 file has no top-level copy of D' or L that could disagree with
    # the root claim
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    data[key] = [2]
    with pytest.raises(MalformedNode, match="are not those of toricbott-certificate/3"):
        certificate_from_dict(data)
    del data[key], data["fan_sha256"]
    with pytest.raises(MalformedNode, match="are not those of"):
        certificate_from_dict(data)


def test_certificate_with_two_roots_is_malformed():
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    assert len(cert.roots) == 1
    bad = dataclasses.replace(cert, roots=cert.roots * 2)
    assert not check_certificate(P2, bad)
    with pytest.raises(MalformedNode, match="one root"):
        check_certificate(P2, bad, raise_on_failure=True)


def _check_with_sub(change):
    """Check the certificate whose root's sub child is change(sub child)."""
    def check(cert):
        root = cert.roots[0]
        root = dataclasses.replace(root, sub_child=change(root.sub_child))
        check_certificate(P2, dataclasses.replace(cert, roots=(root,)), raise_on_failure=True)
    return check


def _read_with_sub_rule(cert):
    data = certificate_to_dict(cert)
    data["roots"][0]["sub"]["rule"] = "bogus"
    certificate_from_dict(data)


def _raise_quotient_twist(sub):
    quotient = sub.quotient_child
    twist = tuple(t + 1 for t in quotient.claim.twist)
    return dataclasses.replace(sub, quotient_child=dataclasses.replace(
        quotient, claim=dataclasses.replace(quotient.claim, twist=twist)))


@pytest.mark.parametrize("tamper, message", [
    (_check_with_sub(lambda s: dataclasses.replace(
        s, claim=dataclasses.replace(s.claim, logset=(0, 1, 3)))),
     "claim logset has invalid ray indices"),
    (_check_with_sub(lambda s: dataclasses.replace(
        s, claim=dataclasses.replace(s.claim, twist=(2, 0)))),
     "claim twist length does not match"),
    (_check_with_sub(lambda s: dataclasses.replace(s, rule=LEAF_RULE)),
     "leaf node carries residue-step data"),
    (_check_with_sub(lambda s: dataclasses.replace(s, rule=LEAF_RULE, added_ray=None,
                                                   sub_child=None, quotient_child=None)),
     "leaf log set must be the full boundary"),
    (_check_with_sub(lambda s: dataclasses.replace(s, rule="bogus")), "unknown rule 'bogus'"),
    (_check_with_sub(lambda s: dataclasses.replace(s, added_ray=0)), "bad added component 0"),
    (_check_with_sub(lambda s: dataclasses.replace(s, quotient_child=None)),
     "residue step is missing a child"),
    (_check_with_sub(_raise_quotient_twist),
     "quotient child claim is not the residue-sequence quotient"),
    (_read_with_sub_rule, "unknown rule 'bogus' in serialized certificate"),
])
def test_checker_refuses_each_malformed_node(tamper, message):
    # one edit per case below the root, whose sub child (D' = {0, 1}, adding
    # ray 2) has a leaf sub child and a leaf quotient child on V(D_2); the
    # children are checked before their claims are compared with the
    # residue sequence's
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    assert check_certificate(P2, cert)
    with pytest.raises(MalformedNode, match=message):
        tamper(cert)


def _float_sub_twist(root):
    claim = root.sub_child.claim
    sub = dataclasses.replace(root.sub_child, claim=dataclasses.replace(
        claim, twist=(float(claim.twist[0]),) + claim.twist[1:]))
    return dataclasses.replace(root, sub_child=sub)


def _float_quotient_logset(root):
    quotient = root.quotient_child
    assert quotient.claim.logset == (0,)
    return dataclasses.replace(root, quotient_child=dataclasses.replace(
        quotient, claim=dataclasses.replace(quotient.claim, logset=(0.0,))))


@pytest.mark.parametrize("tamper, message", [
    (_float_sub_twist, "twist entry 2.0 is not an integer"),
    (lambda root: dataclasses.replace(root, added_ray=0.0), "added ray 0.0 is not an integer"),
    (_float_quotient_logset, "log ray 0.0 is not an integer"),
])
def test_non_integer_claim_in_memory_is_malformed_node(tamper, message):
    # the reader refuses these numbers, but a certificate built in memory
    # reaches the checker as it is: a float twist once escaped from
    # InvariantDivisor as a bare ValueError, a float added ray from
    # stratum_fan as MalformedInput, and a float log set compared equal to
    # the int one and checked
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    root = cert.roots[0]
    assert root.added_ray == 0 and root.sub_child.claim.twist[0] == 2
    bad = dataclasses.replace(cert, roots=(tamper(root),))
    assert not check_certificate(P2, bad)
    with pytest.raises(MalformedNode, match=message):
        check_certificate(P2, bad, raise_on_failure=True)


@pytest.mark.parametrize("fan, dprime, coeffs, digest", [
    (P2, (1,), (2, 0, 0),
     "48a6ec8b0698b5c69b7e902d44a50d868b4a6c4ef69904f8c4b07666964bdb59"),
    (projective_space(3), (2,), (1, 0, 1, 0),
     "cbd4308f0cd269899a501e0b38d7e368e000a1c6fc756671ed8155a5383294ad"),
])
def test_format_3_hash_is_pinned(fan, dprime, coeffs, digest):
    # built on cleared derivation caches, then again on the filled ones
    _clear_derivations()
    for _ in range(2):
        cert = _certificate(fan, dprime, InvariantDivisor(coeffs))
        data = certificate_to_dict(cert)
        assert data["format"] == "toricbott-certificate/3"
        assert '"p"' not in json.dumps(data)
        assert certificate_hash(cert) == digest
        assert certificate_hash(certificate_from_dict(json.loads(json.dumps(data)))) == digest


def test_deeply_nested_roots_are_malformed_node():
    data = certificate_to_dict(_certificate(P2, (1,), 2 * ray_divisor(P2, 0)))
    node = data["roots"][0]
    for _ in range(5000):
        node = {"claim": node["claim"], "rule": RESIDUE_RULE, "added_ray": 0,
                "sub": node, "quotient": node}
    data["roots"] = [node]
    with pytest.raises(MalformedNode):
        certificate_from_dict(data)


def _deep_chain() -> Certificate:
    """5,000 residue steps, each with the root's claim as its sub child:
    no reader stands in the way, and the chain exceeds the interpreter's
    stack in every walk of the tree."""
    cert = _certificate(P2, (1,), 2 * ray_divisor(P2, 0))
    assert cert.hypothesis_witness == (0,)
    root = node = cert.roots[0]
    for _ in range(5000):
        node = CertificateNode(root.claim, RESIDUE_RULE, root.added_ray, node,
                               root.quotient_child)
    return dataclasses.replace(cert, roots=(node,))


def test_a_deeply_nested_tree_in_memory_is_malformed_node():
    deep = _deep_chain()
    assert check_certificate(P2, deep) is False
    with pytest.raises(MalformedNode, match="nested too deep"):
        check_certificate(P2, deep, raise_on_failure=True)


@pytest.mark.parametrize("walk", [leaf_count, certificate_to_dict, certificate_hash])
def test_every_walk_of_a_deeply_nested_tree_is_malformed_node(walk):
    # these once raised a bare RecursionError on the chain that the check refuses
    with pytest.raises(MalformedNode, match="nested too deep"):
        walk(_deep_chain())


def test_witness_in_unit_box_and_matching_length():
    cert = _certificate(P2, (0, 1), 2 * ray_divisor(P2, 0))
    assert len(cert.hypothesis_witness) == 2
    bad = dataclasses.replace(cert, hypothesis_witness=(0,))
    with pytest.raises(MalformedNode):
        check_certificate(P2, bad, raise_on_failure=True)


def visited_strata(cert: Certificate) -> set:
    """All stratum chains appearing in the certificate."""
    chains = set()

    def walk(node: CertificateNode):
        chains.add(node.claim.stratum)
        if node.rule == RESIDUE_RULE:
            walk(node.sub_child)
            walk(node.quotient_child)

    for root in cert.roots:
        walk(root)
    return chains


def test_leaf_count_bound():
    for name in ("p1", "p2", "p1xp1", "f1"):
        f = suite_fans()[name]
        l = InvariantDivisor((1,) * f.n_rays)
        w = hypothesis_feasible(f, l, ())
        if w is None:
            continue
        cert = build_certificate(f, (), l, w)
        strata = visited_strata(cert)
        assert leaf_count(cert) <= (2 ** f.n_rays) * len(strata)


def test_visited_strata_avoid_the_log_set():
    # strata visited by the induction are never contained in D'
    dprime = (0,)
    cert = _certificate(P2, dprime, 2 * ray_divisor(P2, 0))
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
    witness = hypothesis_feasible(f, l, dprime)
    if witness is None:
        return
    cert = build_certificate(f, dprime, l, witness)
    assert check_certificate(f, cert)
    # checked certificate must imply the direct engine verdict
    report = verify_vanishing(f, dprime, l, witness=cert.hypothesis_witness)
    assert report.passed


@pytest.mark.parametrize("name", ["p3", "p2", "f1"])
def test_shared_derivations_do_not_change_a_sweep(monkeypatch, name):
    # the certificates of a sweep share residue steps and restrictions; the
    # sweep must read the same whether each certificate starts cold or warm
    fan = suite_fans()[name]
    thm11_sweep(fan, certify=True)
    warm = thm11_sweep(fan, certify=True)
    assert _residue_step.cache_info().hits > 0

    def cold(route):
        def run(*args, **kwargs):
            _clear_derivations()
            return route(*args, **kwargs)
        return run

    monkeypatch.setattr(certifier, "build_certificate", cold(certifier.build_certificate))
    monkeypatch.setattr(certifier, "check_certificate", cold(certifier.check_certificate))
    assert thm11_sweep(fan, certify=True) == warm
    assert warm.certified == warm.agreed == warm.feasible > 0


def test_a_cold_certifying_sweep_derives_each_step_once():
    # the P3 sweep's 40 certificates make 400 residue steps and 600
    # restrictions; 112 and 87 of them are distinct
    _clear_derivations()
    out = thm11_sweep(suite_fans()["p3"], certify=True)
    assert (out.checked, out.certified) == (40, 1280)
    steps, restrictions = _residue_step.cache_info(), divisors._restriction.cache_info()
    assert (steps.misses, steps.hits + steps.misses) == (112, 400)
    assert (restrictions.misses, restrictions.hits + restrictions.misses) == (87, 312)


def _raise_root_quotient_twist(root):
    quotient = root.quotient_child
    twist = (quotient.claim.twist[0] + 1,) + quotient.claim.twist[1:]
    return dataclasses.replace(root, quotient_child=dataclasses.replace(
        quotient, claim=dataclasses.replace(quotient.claim, twist=twist)))


@pytest.mark.parametrize("tamper, message", [
    (_raise_root_quotient_twist, "is not the residue-sequence"),
    (lambda root: dataclasses.replace(root, added_ray=root.added_ray + 1),
     r"claim stratum \(0,\) does not match chain \(1,\)"),
])
def test_a_tampered_copy_is_refused_from_warm_derivations(tamper, message):
    # every untampered step of the copy is already cached by the build and
    # the check of the original; each node of the copy must still be checked
    p3 = projective_space(3)
    cert = _certificate(p3, (), ray_divisor(p3, 0))
    assert check_certificate(p3, cert)
    before = _residue_step.cache_info().hits
    bad = dataclasses.replace(cert, roots=(tamper(cert.roots[0]),))
    with pytest.raises(MalformedNode, match=message):
        check_certificate(p3, bad, raise_on_failure=True)
    assert _residue_step.cache_info().hits > before
