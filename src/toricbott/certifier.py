"""Certificates replaying the residue-sequence induction for the vanishing.

A certificate is a tree of vanishing claims.  An internal node applies the
short exact sequence that adds one boundary component H to the log set,

    0 -> Om^p(log(D'+H))(-D'-H) (x) E -> Om^p(log D')(-D') (x) E
      -> Om^p_H(log D'|_H)(-D'|_H) (x) E|_H -> 0,

so the middle claim follows from the two outer claims in degrees k >= 1.
A leaf carries the full boundary in its log set: there the sheaf is
O(E - D)^{C(r,p)}, a sum of copies of one line bundle, and the checker
recomputes that bundle's higher cohomology directly instead of citing
Kawamata-Viehweg vanishing.

One tree proves the vanishing for every form degree p at once: the
sequence keeps p fixed, so its sub and quotient claims are the same for
each p, and the leaf test looks at O(E - D) alone, which does not depend
on p.  Claims therefore carry no p.  Strata are addressed by a descent
chain of ray indices, one per level (level 0 indexes a ray of the ambient
fan, level 1 a ray of that stratum's fan, and so on).

The root claim is the statement: its log set is D' and its twist is L,
and the certificate keeps no other copy of them.  It rests on the
hypothesis witness d that the caller passes in: L - dD' ample, d in
[0,1]^{D'}.  The builder and the checker check that witness and solve no
LP; the ``thm11`` sweep and the CLI decide the hypothesis.

The certificates of a sweep share two pure derivations, each in a bounded
``lru_cache``: ``_residue_step``, keyed on (stratum fan, claim, added ray),
and ``divisors.restrict_to_stratum``, keyed on (fan, twist coefficients,
sorted int cone).  The builder and the checker both read them, so a step
derived once is not derived again, but every node is still checked in
full: its numbers are ints, its structure is a residue step or a leaf, its
children's claims are compared with the derived ones and each leaf's
cohomology is recomputed.  A cold start clears them with
``_residue_step.cache_clear()`` and ``divisors._restriction.cache_clear()``,
beside ``danilov._engine.cache_clear()``.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .danilov import line_bundle_cohomology, verify_vanishing, VanishingReport
from .divisors import (
    InvariantDivisor,
    boundary_divisor,
    is_ample,
    require_witness,
    restrict_to_stratum,
    sorted_logset,
)
from .exactmath import json_ints
from .fan import Fan, fan_hash, require_smooth_complete, stratum_fan


class CertificateError(ValueError):
    """Base class for certificate construction/checking failures."""


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
    """h^k = 0 for all p and all k >= 1 for Om^p(log A)(-A) (x) E on a stratum.

    ``stratum`` is the descent chain of ray indices; ``logset`` and the
    integral divisor ``twist`` (the E above) live on that stratum's fan.
    The claim holds for every p because the residue sequence keeps p and
    the leaf bundle O(E - D) does not depend on it.
    """

    stratum: tuple
    logset: tuple
    twist: tuple

    def __post_init__(self):
        object.__setattr__(self, "stratum", tuple(self.stratum))
        object.__setattr__(self, "logset", tuple(sorted(self.logset)))
        object.__setattr__(self, "twist", tuple(self.twist))


@dataclass(frozen=True)
class CertificateNode:
    claim: VanishingClaim
    rule: str
    added_ray: Optional[int] = None
    sub_child: Optional["CertificateNode"] = None
    quotient_child: Optional["CertificateNode"] = None


@dataclass(frozen=True)
class Certificate:
    """The claim tree, held as a one-element ``roots`` tuple, plus the
    hypothesis witness.  The root claim is the statement: D' is its log set
    and L its twist."""

    roots: tuple
    hypothesis_witness: tuple
    fan_sha256: str


FORMAT = "toricbott-certificate/3"


@lru_cache(maxsize=65_536)
def _residue_step(fan_s: Fan, claim: VanishingClaim, h: int):
    """The stratum V(h) and the sub and quotient claims of the residue
    sequence that adds ray h of ``fan_s`` to the log set of ``claim``.

    The claim and h must hold ints only: the cache would take a float or
    bool for the int it equals, so the checker runs ``json_ints`` first.
    """
    sp = stratum_fan(fan_s, (h,))
    sub = VanishingClaim(claim.stratum, claim.logset + (h,), claim.twist)
    quotient = VanishingClaim(
        claim.stratum + (h,),
        sp.restrict_logset(claim.logset),
        restrict_to_stratum(fan_s, InvariantDivisor(claim.twist), (h,)).coeffs,
    )
    return sp, sub, quotient


def build_certificate(
    f: Fan,
    dprime: Sequence[int],
    l: InvariantDivisor,
    witness: Sequence,
) -> Certificate:
    """Build the induction tree, which serves every p, re-verifying the
    hypothesis on each visited stratum.

    Components missing from the log set are added in ascending ray-index
    order.  The hypothesis ``witness`` is checked (one entry per log ray, in
    [0,1], with L - dD' ample), not searched for: the ``thm11`` sweep or the
    CLI decides the hypothesis.  Each stratum re-checks the integer residual
    class N (L - dD'), restricted: it is ample exactly when the restriction
    of L - dD' is.
    """
    require_smooth_complete(f)
    dprime = sorted_logset(f, dprime)
    residual = require_witness(f, l, dprime, witness)

    def build_node(fan_s: Fan, claim: VanishingClaim,
                   ample_class: InvariantDivisor) -> CertificateNode:
        if len(claim.stratum) > f.n_rays + f.dim:
            raise AssertionError("certificate tree deeper than rays + dimension")
        missing = frozenset(range(fan_s.n_rays)) - set(claim.logset)
        if not missing:
            return CertificateNode(claim, LEAF_RULE)
        h = min(missing)
        sp, sub, quotient = _residue_step(fan_s, claim, h)
        restricted_ample = restrict_to_stratum(fan_s, ample_class, (h,))
        if not is_ample(sp.fan, restricted_ample):
            raise StratumHypothesisFails(
                f"restricted residual class is not ample on stratum chain {quotient.stratum}"
            )
        return CertificateNode(claim, RESIDUE_RULE, h, build_node(fan_s, sub, ample_class),
                               build_node(sp.fan, quotient, restricted_ample))

    root = build_node(f, VanishingClaim((), dprime, l.coeffs), residual)
    return Certificate((root,), tuple(witness), fan_hash(f))


def _check_node(fan_s: Fan, node: CertificateNode, chain: tuple) -> None:
    """Validate one node and, recursively, its children."""
    claim = node.claim
    # a float or bool would compare equal to its int below and then reach
    # the fan and divisor code, which raise errors of their own
    added = () if node.added_ray is None else (node.added_ray,)
    try:
        for values, what in ((claim.stratum, "stratum index"), (claim.logset, "log ray"),
                             (claim.twist, "twist entry"), (added, "added ray")):
            json_ints(values, what)
    except ValueError as exc:
        raise MalformedNode(str(exc)) from exc
    if claim.stratum != chain:
        raise MalformedNode(f"claim stratum {claim.stratum} does not match chain {chain}")
    if not set(claim.logset) <= set(range(fan_s.n_rays)):
        raise MalformedNode("claim logset has invalid ray indices")
    if len(claim.twist) != fan_s.n_rays:
        raise MalformedNode("claim twist length does not match the stratum fan")
    if node.rule == LEAF_RULE:
        if node.added_ray is not None or node.sub_child or node.quotient_child:
            raise MalformedNode("leaf node carries residue-step data")
        if set(claim.logset) != set(range(fan_s.n_rays)):
            raise MalformedNode("leaf log set must be the full boundary")
        bundle = InvariantDivisor(claim.twist) - boundary_divisor(fan_s)
        dims = line_bundle_cohomology(fan_s, bundle)
        if any(dims[k] != 0 for k in range(1, len(dims))):
            raise LeafNonzero(
                f"leaf line bundle {bundle.coeffs} on chain {chain} has h={dims}"
            )
        return
    if node.rule != RESIDUE_RULE:
        raise MalformedNode(f"unknown rule {node.rule!r}")
    h = node.added_ray
    if h is None or not 0 <= h < fan_s.n_rays or h in claim.logset:
        raise MalformedNode(f"bad added component {h!r}")
    if node.sub_child is None or node.quotient_child is None:
        raise MalformedNode("residue step is missing a child")
    sp, expected_sub, expected_quot = _residue_step(fan_s, claim, h)
    # Children are checked before the structural comparison so that a bad
    # leaf deep in the tree surfaces as LeafNonzero, not as a mismatch of
    # some ancestor.
    _check_node(fan_s, node.sub_child, chain)
    _check_node(sp.fan, node.quotient_child, chain + (h,))
    if node.sub_child.claim != expected_sub:
        raise MalformedNode("sub child claim is not the residue-sequence subobject")
    if node.quotient_child.claim != expected_quot:
        raise MalformedNode("quotient child claim is not the residue-sequence quotient")


@contextmanager
def _shallow_tree():
    """Refuse an in-memory tree nested deeper than the interpreter's stack,
    far deeper than any fan's ray count, as MalformedNode."""
    try:
        yield
    except RecursionError as exc:
        raise MalformedNode(f"certificate tree nested too deep: {exc}") from exc


def check_certificate(f: Fan, cert: Certificate, raise_on_failure: bool = False) -> bool:
    """Independently re-check a certificate against the fan.

    Leaves are recomputed as line-bundle cohomology; residue steps are
    checked structurally; the stored witness must satisfy the hypothesis
    of the root claim, whose log set is D' and whose twist is L.
    """
    try:
        require_smooth_complete(f)
        if cert.fan_sha256 != fan_hash(f):
            raise MalformedNode("certificate was built for a different fan")
        if len(cert.roots) != 1:
            raise MalformedNode("certificate must carry exactly one root")
        root = cert.roots[0]
        try:
            require_witness(f, InvariantDivisor(root.claim.twist), root.claim.logset,
                            cert.hypothesis_witness)
        except ValueError as exc:
            raise MalformedNode(str(exc)) from exc
        with _shallow_tree():
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

    with _shallow_tree():
        return sum(count(root) for root in cert.roots)


@dataclass(frozen=True)
class CrossValidationReport:
    certificate_ok: bool
    direct: VanishingReport
    agree: bool


def cross_validate(f: Fan, dprime: Sequence[int], l: InvariantDivisor,
                   witness: Sequence) -> CrossValidationReport:
    """Run both proof paths; they must both succeed, or something is wrong.

    Both paths check the hypothesis ``witness`` they are given; neither
    solves an LP for one.
    """
    cert = build_certificate(f, dprime, l, witness)
    cert_ok = check_certificate(f, cert)
    direct = verify_vanishing(f, dprime, l, witness=witness)
    return CrossValidationReport(cert_ok, direct, cert_ok and direct.passed)


def _node_to_dict(node: CertificateNode) -> dict:
    data = {
        "claim": {
            "stratum": list(node.claim.stratum),
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
        json_ints(data["claim"]["stratum"], "stratum index"),
        json_ints(data["claim"]["logset"], "log ray"),
        json_ints(data["claim"]["twist"], "twist entry"),
    )
    rule = data["rule"]
    if rule == LEAF_RULE:
        return CertificateNode(claim, LEAF_RULE)
    if rule == RESIDUE_RULE:
        return CertificateNode(
            claim,
            RESIDUE_RULE,
            json_ints([data["added_ray"]], "added ray")[0],
            _node_from_dict(data["sub"]),
            _node_from_dict(data["quotient"]),
        )
    raise MalformedNode(f"unknown rule {rule!r} in serialized certificate")


def certificate_to_dict(cert: Certificate) -> dict:
    with _shallow_tree():
        return {
            "format": FORMAT,
            "fan_sha256": cert.fan_sha256,
            "hypothesis_witness": [str(Fraction(x)) for x in cert.hypothesis_witness],
            "roots": [_node_to_dict(r) for r in cert.roots],
        }


def certificate_from_dict(data: dict) -> Certificate:
    try:
        if data["format"] != FORMAT:
            raise MalformedNode(f"unsupported certificate format {data['format']!r}")
        if set(data) != {"format", "fan_sha256", "hypothesis_witness", "roots"}:
            raise MalformedNode(f"certificate keys {sorted(data)} are not those of {FORMAT}")
        if not all(type(data[key]) is list for key in ("roots", "hypothesis_witness")):
            raise MalformedNode("roots and hypothesis_witness must be lists")
        return Certificate(
            tuple(_node_from_dict(r) for r in data["roots"]),
            # an int or an exact "a/b" string; a JSON float is not exact
            tuple(Fraction(x) if isinstance(x, str) else Fraction(*json_ints([x], "witness entry"))
                  for x in data["hypothesis_witness"]),
            str(data["fan_sha256"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        # RecursionError: nesting far deeper than any fan's ray count
        raise MalformedNode(f"bad certificate data: {exc}") from exc


def certificate_hash(cert: Certificate) -> str:
    blob = json.dumps(certificate_to_dict(cert), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
