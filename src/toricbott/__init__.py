"""Exact-arithmetic verification of Bott-type vanishing on toric varieties.

The package computes sheaf cohomology of twisted log differential forms on
smooth projective toric varieties in exact rational arithmetic, decides the
interpolating ampleness hypothesis by exact LP, replays the inductive
residue-sequence proof as checkable certificates, and reproduces the
integer arithmetic of a family where relative vanishing fails for blowups.
"""

from .exactmath import (
    ChainComplex,
    QMatrix,
    cohomology_dims,
    lp_feasible_strict,
    polyhedron_bounded,
    rank,
)
from .fan import (
    Fan,
    FanDiagnostics,
    Wall,
    builtin,
    fan_from_dict,
    fan_hash,
    fan_to_dict,
    hirzebruch,
    product,
    projective_space,
    star_subdivision,
    stratum_fan,
    validate,
    walls,
)
from .divisors import (
    InvariantDivisor,
    canonical_divisor,
    hypothesis_feasible,
    intersect_wall,
    is_ample,
    is_projective,
    restrict_to_stratum,
)
from .danilov import (
    CohomologyResult,
    LogFormSheafSpec,
    cech_cohomology,
    euler_additivity_check,
    hodge_count_check,
    line_bundle_cohomology,
    sheaf_spec,
    verify_vanishing,
)
from .certifier import (
    Certificate,
    CertificateNode,
    VanishingClaim,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_certificate,
    cross_validate,
)
from .counterexample import (
    ScenarioReport,
    minimal_failing_degree,
    scenario,
)

__all__ = [
    "ChainComplex", "QMatrix", "cohomology_dims", "lp_feasible_strict",
    "polyhedron_bounded", "rank",
    "Fan", "FanDiagnostics", "Wall", "builtin", "fan_from_dict", "fan_hash",
    "fan_to_dict", "hirzebruch", "product", "projective_space",
    "star_subdivision", "stratum_fan", "validate", "walls",
    "InvariantDivisor", "canonical_divisor", "hypothesis_feasible",
    "intersect_wall", "is_ample", "is_projective",
    "restrict_to_stratum",
    "CohomologyResult", "LogFormSheafSpec", "cech_cohomology",
    "euler_additivity_check", "hodge_count_check", "line_bundle_cohomology",
    "sheaf_spec", "verify_vanishing",
    "Certificate", "CertificateNode", "VanishingClaim", "build_certificate",
    "certificate_from_dict", "certificate_to_dict", "check_certificate",
    "cross_validate",
    "ScenarioReport", "minimal_failing_degree", "scenario",
]
__version__ = "0.1.0"
