"""Certificates replaying the residue-sequence induction for the vanishing.

A certificate is a tree of vanishing claims.  An internal node applies the
short exact sequence that adds one boundary component H to the log set,

    0 -> Om^p(log(D'+H))(-D'-H) (x) E -> Om^p(log D')(-D') (x) E
      -> Om^p_H(log D'|_H)(-D'|_H) (x) E|_H -> 0,

so the middle claim follows from the two outer claims in degrees k >= 1.
A leaf carries the full boundary in its log set: there the sheaf is a sum
of copies of the line bundle O(E - D), and the checker recomputes its
higher cohomology directly instead of citing Kawamata-Viehweg vanishing.

Claims are stored per form degree p; the tree shape is the same for all p,
so a certificate holds one root per p = 0..dim(X).  Strata are addressed by
a descent chain of ray indices, one per level (level 0 indexes a ray of the
ambient fan, level 1 a ray of that stratum's fan, and so on).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .danilov import line_bundle_cohomology, verify_vanishing, VanishingReport
from .divisors import (
    InvariantDivisor,
    boundary_divisor,
    hypothesis_feasible,
    is_ample,
    require_witness,
    residual_divisor,
    restrict_to_stratum,
    sorted_logset,
)
from .fan import Fan, fan_hash, require_smooth_complete, stratum_fan


class CertificateError(ValueError):
    """Base class for certificate construction/checking failures."""


class HypothesisInfeasible(CertificateError):
    """No witness for the ampleness hypothesis; nothing to certify."""


class StratumHypothesisFails(CertificateError):
    """The restricted residual class stopped being ample on a stratum.

    Ample classes restrict to ample classes, so this signals a bug."""


class MalformedNode(CertificateError):
    """A node's claim or children do not match the residue-sequence rule."""


class LeafNonzero(CertificateError):
    """A leaf's line bundle has nonzero higher cohomology; the certificate
    is falsified."""


LEAF_RULE = "leaf_trivial_log"
RESIDUE_RULE = "residue_step"


@dataclass(frozen=True)
class VanishingClaim:
    """h^k = 0 for all k >= 1 for Om^p(log A)(-A) (x) E on a stratum.

    ``stratum`` is the descent chain of ray indices; ``logset`` and the
    integral divisor ``twist`` (the E above) live on that stratum's fan.
    """

    stratum: tuple
    p: int
    logset: tuple
    twist: tuple

    def __post_init__(self):
        object.__setattr__(self, "stratum", tuple(int(i) for i in self.stratum))
        object.__setattr__(self, "logset", tuple(sorted(int(i) for i in self.logset)))
        object.__setattr__(self, "twist", tuple(int(t) for t in self.twist))


@dataclass(frozen=True)
class CertificateNode:
    claim: VanishingClaim
    rule: str
    added_ray: Optional[int] = None
    sub_child: Optional["CertificateNode"] = None
    quotient_child: Optional["CertificateNode"] = None


@dataclass(frozen=True)
class Certificate:
    """One claim tree per form degree, plus the hypothesis witness."""

    roots: tuple
    hypothesis_witness: tuple
    fan_sha256: str
    logset: tuple
    divisor: tuple


def _descend(f: Fan, chain: Sequence[int]) -> Fan:
    cur = f
    for ray in chain:
        cur = stratum_fan(cur, (ray,)).fan
    return cur


def build_certificate(
    f: Fan,
    dprime: Sequence[int],
    l: InvariantDivisor,
    component_order: Optional[Callable[[frozenset], int]] = None,
    witness: Optional[Sequence] = None,
) -> Certificate:
    """Build the induction tree for every p, re-verifying the hypothesis on
    each visited stratum.

    Components missing from the log set are added in ascending ray-index
    order unless ``component_order`` picks differently; the check result is
    order-independent, the tree shape is not.  A supplied hypothesis
    ``witness`` is checked (one entry per log ray, in [0,1], with L - dD'
    ample) instead of re-solving the LP for one.
    """
    require_smooth_complete(f)
    dprime = sorted_logset(f, dprime)
    if not l.integral:
        raise ValueError("l must be integral")
    if witness is None:
        witness = hypothesis_feasible(f, l, dprime)
        if witness is None:
            raise HypothesisInfeasible("the ampleness hypothesis LP has no witness")
        residual = residual_divisor(f, l, dprime, witness)
    else:
        residual = require_witness(f, l, dprime, witness)
    pick = component_order if component_order is not None else min

    def build_node(fan_s: Fan, chain: tuple, p: int, logset: tuple,
                   twist: InvariantDivisor, ample_class: InvariantDivisor) -> CertificateNode:
        if len(chain) > f.n_rays + f.dim:
            raise AssertionError("certificate tree deeper than rays + dimension")
        claim = VanishingClaim(chain, p, logset, twist.coeffs)
        missing = frozenset(range(fan_s.n_rays)) - set(logset)
        if not missing:
            return CertificateNode(claim, LEAF_RULE)
        h = pick(missing)
        sub = build_node(fan_s, chain, p, tuple(sorted(logset + (h,))), twist, ample_class)
        sp = stratum_fan(fan_s, (h,))
        restricted_ample = restrict_to_stratum(fan_s, ample_class, (h,))
        if not is_ample(sp.fan, restricted_ample):
            raise StratumHypothesisFails(
                f"restricted residual class is not ample on stratum chain {chain + (h,)}"
            )
        adjacent = set(sp.adjacent)
        logset_h = tuple(sorted(sp.map_ray(i) for i in logset if i in adjacent))
        twist_h = restrict_to_stratum(fan_s, twist, (h,))
        quotient = build_node(sp.fan, chain + (h,), p, logset_h, twist_h, restricted_ample)
        return CertificateNode(claim, RESIDUE_RULE, h, sub, quotient)

    roots = tuple(
        build_node(f, (), p, dprime, l, residual) for p in range(f.dim + 1)
    )
    return Certificate(roots, tuple(witness), fan_hash(f), dprime, tuple(l.coeffs))


def _check_node(fan_s: Fan, node: CertificateNode, chain: tuple) -> int:
    """Validate one node recursively; returns the leaf count below it."""
    claim = node.claim
    if claim.stratum != chain:
        raise MalformedNode(f"claim stratum {claim.stratum} does not match chain {chain}")
    if not set(claim.logset) <= set(range(fan_s.n_rays)):
        raise MalformedNode("claim logset has invalid ray indices")
    if len(claim.twist) != fan_s.n_rays:
        raise MalformedNode("claim twist length does not match the stratum fan")
    twist = InvariantDivisor(claim.twist)
    if node.rule == LEAF_RULE:
        if node.added_ray is not None or node.sub_child or node.quotient_child:
            raise MalformedNode("leaf node carries residue-step data")
        if set(claim.logset) != set(range(fan_s.n_rays)):
            raise MalformedNode("leaf log set must be the full boundary")
        bundle = twist - boundary_divisor(fan_s)
        dims = line_bundle_cohomology(fan_s, bundle)
        if any(dims[k] != 0 for k in range(1, len(dims))):
            raise LeafNonzero(
                f"leaf line bundle {bundle.coeffs} on chain {chain} has h={dims}"
            )
        return 1
    if node.rule != RESIDUE_RULE:
        raise MalformedNode(f"unknown rule {node.rule!r}")
    h = node.added_ray
    if h is None or not 0 <= h < fan_s.n_rays or h in claim.logset:
        raise MalformedNode(f"bad added component {h!r}")
    if node.sub_child is None or node.quotient_child is None:
        raise MalformedNode("residue step is missing a child")
    # Children are checked before the structural comparison so that a bad
    # leaf deep in the tree surfaces as LeafNonzero, not as a mismatch of
    # some ancestor.
    sp = stratum_fan(fan_s, (h,))
    leaves = _check_node(fan_s, node.sub_child, chain)
    leaves += _check_node(sp.fan, node.quotient_child, chain + (h,))
    expected_sub = VanishingClaim(
        chain, claim.p, tuple(sorted(claim.logset + (h,))), claim.twist
    )
    if node.sub_child.claim != expected_sub:
        raise MalformedNode("sub child claim is not the residue-sequence subobject")
    adjacent = set(sp.adjacent)
    logset_h = tuple(sorted(sp.map_ray(i) for i in claim.logset if i in adjacent))
    twist_h = restrict_to_stratum(fan_s, twist, (h,))
    expected_quot = VanishingClaim(chain + (h,), claim.p, logset_h, twist_h.coeffs)
    if node.quotient_child.claim != expected_quot:
        raise MalformedNode("quotient child claim is not the residue-sequence quotient")
    return leaves


def check_certificate(f: Fan, cert: Certificate, raise_on_failure: bool = False) -> bool:
    """Independently re-check a certificate against the fan.

    Leaves are recomputed as line-bundle cohomology; residue steps are
    checked structurally; the stored witness must satisfy the hypothesis.
    """
    try:
        require_smooth_complete(f)
        if cert.fan_sha256 != fan_hash(f):
            raise MalformedNode("certificate was built for a different fan")
        if len(cert.roots) != f.dim + 1:
            raise MalformedNode("certificate must carry one root per form degree")
        if not set(cert.logset) <= set(range(f.n_rays)):
            raise MalformedNode("certificate log set has invalid ray indices")
        if len(cert.hypothesis_witness) != len(cert.logset):
            raise MalformedNode("hypothesis witness length does not match the log set")
        l = InvariantDivisor(cert.divisor)
        residual = residual_divisor(f, l, cert.logset, cert.hypothesis_witness)
        if any(not (0 <= Fraction(d) <= 1) for d in cert.hypothesis_witness):
            raise MalformedNode("hypothesis witness leaves the unit box")
        if not is_ample(f, residual):
            raise MalformedNode("hypothesis witness does not make the residual class ample")
        for p, root in enumerate(cert.roots):
            if root.claim != VanishingClaim((), p, cert.logset, cert.divisor):
                raise MalformedNode(f"root claim for p={p} does not match the certificate data")
            _check_node(f, root, ())
        return True
    except CertificateError:
        if raise_on_failure:
            raise
        return False


def leaf_count(cert: Certificate) -> int:
    def count(node: CertificateNode) -> int:
        if node.rule == LEAF_RULE:
            return 1
        return count(node.sub_child) + count(node.quotient_child)

    return sum(count(root) for root in cert.roots)


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


@dataclass(frozen=True)
class CrossValidationReport:
    certificate_ok: bool
    direct: VanishingReport
    agree: bool


def cross_validate(f: Fan, dprime: Sequence[int], l: InvariantDivisor) -> CrossValidationReport:
    """Run both proof paths; they must both succeed, or something is wrong."""
    cert = build_certificate(f, dprime, l)
    cert_ok = check_certificate(f, cert)
    direct = verify_vanishing(f, dprime, l, witness=cert.hypothesis_witness)
    return CrossValidationReport(cert_ok, direct, cert_ok and direct.passed)


def _fraction_str(x) -> str:
    fr = Fraction(x)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _node_to_dict(node: CertificateNode) -> dict:
    data = {
        "claim": {
            "stratum": list(node.claim.stratum),
            "p": node.claim.p,
            "logset": list(node.claim.logset),
            "twist": list(node.claim.twist),
        },
        "rule": node.rule,
    }
    if node.rule == RESIDUE_RULE:
        data["added_ray"] = node.added_ray
        data["sub"] = _node_to_dict(node.sub_child)
        data["quotient"] = _node_to_dict(node.quotient_child)
    return data


def _node_from_dict(data: dict) -> CertificateNode:
    claim = VanishingClaim(
        tuple(data["claim"]["stratum"]),
        int(data["claim"]["p"]),
        tuple(data["claim"]["logset"]),
        tuple(data["claim"]["twist"]),
    )
    rule = data["rule"]
    if rule == LEAF_RULE:
        return CertificateNode(claim, LEAF_RULE)
    if rule == RESIDUE_RULE:
        return CertificateNode(
            claim,
            RESIDUE_RULE,
            int(data["added_ray"]),
            _node_from_dict(data["sub"]),
            _node_from_dict(data["quotient"]),
        )
    raise MalformedNode(f"unknown rule {rule!r} in serialized certificate")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "format": "toricbott-certificate/1",
        "fan_sha256": cert.fan_sha256,
        "logset": list(cert.logset),
        "divisor": list(cert.divisor),
        "hypothesis_witness": [_fraction_str(x) for x in cert.hypothesis_witness],
        "roots": [_node_to_dict(r) for r in cert.roots],
    }


def certificate_from_dict(data: dict) -> Certificate:
    try:
        witness = tuple(
            Fraction(x) if isinstance(x, str) else Fraction(int(x))
            for x in data["hypothesis_witness"]
        )
        return Certificate(
            tuple(_node_from_dict(r) for r in data["roots"]),
            witness,
            str(data["fan_sha256"]),
            tuple(int(i) for i in data["logset"]),
            tuple(int(x) for x in data["divisor"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        # RecursionError: nesting far deeper than any fan's ray count
        raise MalformedNode(f"bad certificate data: {exc}") from exc


def certificate_hash(cert: Certificate) -> str:
    blob = json.dumps(certificate_to_dict(cert), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
