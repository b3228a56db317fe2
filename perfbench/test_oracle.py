"""Tests of the benchmark's oracle against textbook values, and of each
workload's check path on a reduced input.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle as O  # noqa: E402


def p1_cubed():
    p1 = O.projective_space(1)
    return O.product(O.product(p1, p1), p1)


def blpt_p3():
    return O.star_subdivision(O.projective_space(3), (0, 1, 2))


def test_hodge_numbers_of_projective_space():
    for n in range(1, 5):
        pn = O.projective_space(n)
        for p in range(n + 1):
            expected = tuple(int(p == q) for q in range(n + 1))
            assert tuple(O.bott(n, p, 0, q) for q in range(n + 1)) == expected
            assert O.hodge_twist0(pn, p) == expected
            assert O.bott_kuenneth((n,), (0,), p) == expected


def test_chi_of_line_bundles_on_p3():
    p3 = O.projective_space(3)
    for k in range(-7, 7):
        expected = O.gbinom(k + 3, 3)
        assert O.chi_line_bundle(p3, (k, 0, 0, 0)) == expected
        assert O.chi_line_bundle(p3, (1, k - 1, 0, 0)) == expected
        assert sum((-1) ** q * O.bott(3, 0, k, q) for q in range(4)) == expected
    assert O.h0_line_bundle(p3, (4, 0, 0, 0)) == 35


def test_riemann_roch_on_surfaces():
    p2 = O.projective_space(2)
    quadric = O.product(O.projective_space(1), O.projective_space(1))
    for k in range(-5, 5):
        assert O.chi_line_bundle(p2, (k, 0, 0)) == O.gbinom(k + 2, 2)
        for j in range(-3, 3):
            assert O.chi_line_bundle(quadric, (k, 0, j, 0)) == (k + 1) * (j + 1)
    # Blowing up a point leaves chi(O) = 1 and gives the exceptional curve
    # self-intersection -1.
    bl = O.star_subdivision(p2, (0, 1))
    assert O.chi_line_bundle(bl, (0, 0, 0, 0)) == 1
    assert O.curve_numbers(bl, (0, 0, 0, 1))[[t for t, _ in O.walls(bl)].index((3,))] == -1


def test_euler_sequence_on_p2():
    # 0 -> Omega^1 -> O(-1)^3 -> O -> 0
    p2 = O.projective_space(2)
    for k in range(-5, 6):
        chi = O.chi_log(p2, 1, (), (k, 0, 0))
        assert chi == 3 * O.gbinom(k + 1, 2) - O.gbinom(k + 2, 2)
        assert chi == sum((-1) ** q * O.bott(2, 1, k, q) for q in range(3))


def test_log_forms_along_the_full_boundary_are_trivial():
    p2 = O.projective_space(2)
    for p in range(3):
        assert O.chi_log(p2, p, (0, 1, 2), (1, 1, 1)) == O.gbinom(2, p)


def test_hodge_numbers_of_products_and_blowups():
    assert O.hodge_twist0(p1_cubed(), 1) == (0, 3, 0, 0)
    assert O.bott_kuenneth((1, 1, 1), (0, 0, 0), 1) == (0, 3, 0, 0)
    assert O.bott_kuenneth((1, 1, 1), (0, 0, 0), 2) == (0, 0, 3, 0)
    assert [O.hodge_twist0(blpt_p3(), p)[p] for p in range(4)] == [1, 2, 2, 1]


def test_anticanonical_sections_of_blown_up_p3():
    f = blpt_p3()
    assert O.is_ample(f, (1,) * 5)
    assert O.h0_line_bundle(f, (1,) * 5) == 31


def test_hypothesis_on_p2():
    p2 = O.projective_space(2)
    assert O.hypothesis_holds(p2, (1, 0, 0), ())
    assert not O.hypothesis_holds(p2, (0, 0, 0), ())
    assert O.hypothesis_holds(p2, (1, 0, 0), (0,))
    assert not O.hypothesis_holds(p2, (0, 0, 0), (0, 1, 2))
    assert O.witness_ok(p2, (1, 0, 0), (0,), ("1/2",))
    assert not O.witness_ok(p2, (1, 0, 0), (0,), (1,))


def test_stored_p3_count_is_reproduced():
    import workloads

    assert O.sweep_counts(O.projective_space(3)) == workloads.stored_counts()["p3"]


def _reduced_sweep(certify):
    import workloads
    from toricbott import fan as fanmod

    coeffs = (0, 1)
    return workloads.Sweep(lambda: fanmod.projective_space(2), lambda: O.projective_space(2),
                           certify, O.sweep_counts(O.projective_space(2), coeffs),
                           coeffs=coeffs, samples=4)


def test_sweep_check_path_on_p2():
    for certify in (False, True):
        sweep = _reduced_sweep(certify)
        state = sweep.setup(seed=3)
        outcome = sweep.solve(state)
        rep = sweep.check(state, outcome)
        assert rep.problems == [] and rep.failed == 0
        assert rep.attempted == 8 * 8
        outcome.feasible += 1
        assert sweep.check(state, outcome).wrong == 1


def test_cech_check_path_on_cheap_calls():
    import workloads

    calls = workloads.CechCalls(p2p1_ps=(0, 3), blpt_ps=(0, 3), p1cube_ps=())
    state = calls.setup(seed=5)
    results = calls.solve(state)
    rep = calls.check(state, results)
    assert rep.problems == [] and rep.failed == 0 and rep.attempted == 12
    # A wrong h^q on Bl_pt P^3 breaks both its oracle value and Serre duality.
    idx = next(i for i, c in enumerate(state.calls) if c[0] == "blpt_p3" and c[3] == "plus")
    dims, window = results[idx]
    results[idx] = ((dims[0] + 1,) + tuple(dims[1:]), window)
    assert calls.check(state, results).wrong == 2


def test_seeded_twists_keep_their_class():
    import workloads

    calls = workloads.CechCalls()
    for seed in range(20):
        seeded = [c for c in calls.calls(seed) if c[0] == "p2xp1" and any(c[2])]
        classes = [(sum(t[:3]), sum(t[3:])) for _, _, t, _ in seeded]
        assert classes == list(workloads.P2P1_CLASSES) * 4
        assert all(x in (-1, 0, 1) for _, _, t, _ in seeded for x in t)


def test_traced_self_times_sum_to_the_solve_span():
    from spans import Tracer

    sweep = _reduced_sweep(certify=True)
    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.open("setup")
        state = sweep.setup(seed=1)
        tracer.close(setup)
        solve = tracer.open("solve")
        sweep.solve(state)
        tracer.close(solve)
    finally:
        tracer.uninstall()
    layers, balanced = tracer.layer_metrics(setup, solve)
    assert balanced
    # With certificates the hypothesis is decided again for every feasible pair.
    builds = layers["certifier.build_calls"][0]
    assert builds > 0
    assert layers["divisors.hypothesis_calls"][0] == 8 * 8 + builds
    assert layers["fan.validate_s"][0] > 0


def test_speed_probe_records_chunks_until_stdin_closes():
    import time

    from run import SpeedProbe

    probe = SpeedProbe()
    start = time.monotonic()
    time.sleep(0.3)
    probe.stop()
    assert probe.proc.returncode == 0
    assert probe.cpu and all(c > 0 for c in probe.cpu)
    assert probe.ends == sorted(probe.ends) and probe.ends[0] >= start
    assert probe.scale((start, 0.1)) > 0
