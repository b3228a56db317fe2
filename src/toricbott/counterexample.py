"""Exact integer arithmetic of the relative-vanishing failure family.

Blow up the origin of A^3 (exceptional plane P), then a smooth plane curve
F of degree d inside P (exceptional divisor E, a P^1-bundle over F).  For
D = -E - f^*(d+1)P both contracted curve classes meet D in 1, so D is
relatively ample, yet the Serre-duality/Riemann-Roch bookkeeping on F
produces a positive lower bound for h^1(F, wedge^2 N*_{F/Y}(A)) once
d >= 8, killing relative vanishing for the second log-form power.

Everything here is plain integer arithmetic in the parameter d.
"""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Curve degree must be a positive integer."""


@dataclass(frozen=True)
class ScenarioReport:
    d: int
    e_invariant: int
    deg_wedge2_conormal: int
    genus: int
    deg_L: int
    degree_A: int
    a_dot_D: int
    b_dot_D: int
    rr_lower_bound: int
    bott_fails: bool

    def __post_init__(self):
        if self.bott_fails != (self.rr_lower_bound > 0):
            raise ValueError("bott_fails must mirror rr_lower_bound > 0")


def scenario(d: int) -> ScenarioReport:
    """All numeric invariants of the family at curve degree d."""
    if type(d) is not int or d < 1:
        raise DomainError(f"need an integer degree d >= 1, got {d!r}")
    e_invariant = d * d + d
    deg_wedge2_conormal = d - d * d
    genus = (d - 1) * (d - 2) // 2
    degree_a = d * (d + 1)
    deg_l = deg_wedge2_conormal + degree_a          # = 2d
    e_dot_a, fp_dot_a = -1, 0
    e_dot_b, fp_dot_b = d, -1
    a_dot_d = (-1) * e_dot_a + (-(d + 1)) * fp_dot_a
    b_dot_d = (-1) * e_dot_b + (-(d + 1)) * fp_dot_b
    # h^0(omega - L) = h^0(L) - (deg L - g + 1); dropping h^0(L) >= 0 leaves:
    rr_lower_bound = -deg_l + genus - 1
    return ScenarioReport(
        d=d,
        e_invariant=e_invariant,
        deg_wedge2_conormal=deg_wedge2_conormal,
        genus=genus,
        deg_L=deg_l,
        degree_A=degree_a,
        a_dot_D=a_dot_d,
        b_dot_D=b_dot_d,
        rr_lower_bound=rr_lower_bound,
        bott_fails=rr_lower_bound > 0,
    )


def minimal_failing_degree() -> int:
    """Smallest degree where the lower bound turns positive (scan up to 1000)."""
    for d in range(1, 1001):
        if scenario(d).bott_fails:
            return d
    raise RuntimeError("no failing degree found below the scan limit")
