import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.counterexample import (
    DomainError,
    minimal_failing_degree,
    scenario,
)


def test_degree_eight_fails():
    r = scenario(8)
    assert r.genus == 21
    assert r.rr_lower_bound == 4
    assert r.bott_fails


def test_degree_seven_does_not_fail():
    r = scenario(7)
    assert r.genus == 15
    assert r.rr_lower_bound == 0
    assert not r.bott_fails


def test_degree_one():
    r = scenario(1)
    assert r.genus == 0
    assert r.deg_wedge2_conormal == 0
    assert r.rr_lower_bound == -3
    assert not r.bott_fails


def test_minimal_failing_degree_is_eight():
    assert minimal_failing_degree() == 8
    assert all(not scenario(d).bott_fails for d in range(1, 8))


def test_domain_error():
    with pytest.raises(DomainError):
        scenario(0)
    with pytest.raises(DomainError):
        scenario(-3)


def test_degree_must_be_an_int():
    # True is an int subclass and would run as d = 1
    for bad in (True, 8.0, "8"):
        with pytest.raises(DomainError):
            scenario(bad)


def test_relative_ample_for_all_small_degrees():
    # both contracted classes meet D = -E - f*(d+1)P in exactly 1
    assert all(r.a_dot_D == r.b_dot_D == 1 for r in map(scenario, range(1, 51)))


def test_relative_ample_components_at_d1():
    r = scenario(1)
    # (-1)(-1) + (-2)(0) = 1 and (-1)(1) + (-2)(-1) = 1
    assert r.a_dot_D == 1 and r.b_dot_D == 1


def test_riemann_roch_identity():
    for d in range(1, 51):
        r = scenario(d)
        assert r.rr_lower_bound == r.genus - 1 - r.deg_L, d
        assert 2 * r.rr_lower_bound == d * d - 7 * d, d
    r = scenario(8)
    assert r.genus - 1 - r.deg_L == r.rr_lower_bound == 4
    r3 = scenario(3)
    assert r3.genus - 1 - r3.deg_L == -6


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 500))
def test_bound_closed_form(d):
    assert 2 * scenario(d).rr_lower_bound == d * d - 7 * d


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 500))
def test_scenario_arithmetic(d):
    r = scenario(d)
    assert r.deg_L == 2 * d
    assert r.degree_A == d * (d + 1)
    assert r.e_invariant == d * d + d
    # the twist raising the conormal degree to the bundle invariant is 2d
    assert r.e_invariant - (-r.deg_wedge2_conormal) == 2 * d


def test_failure_is_monotone():
    minimal = minimal_failing_degree()
    assert all(scenario(d).bott_fails for d in range(minimal, minimal + 50))
