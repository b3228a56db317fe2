import importlib
import importlib.util
import os
import sys
import types

import toricbott
import toricbott.danilov
import toricbott.suite


def test_public_names_resolve_and_are_not_modules():
    assert len(toricbott.__all__) == len(set(toricbott.__all__))
    for name in toricbott.__all__:
        assert not isinstance(getattr(toricbott, name), types.ModuleType), name


def _load_spans(monkeypatch):
    """perfbench/spans.py, loaded by path without writing bytecode."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_boundaries_resolve(monkeypatch):
    # the traced benchmark wraps these names; a rename here must not leave
    # its wrappers pointing at nothing
    spans = _load_spans(monkeypatch)
    assert spans.BOUNDARIES
    for module, function in spans.BOUNDARIES:
        target = getattr(importlib.import_module(f"toricbott.{module}"), function, None)
        assert callable(target), (module, function)


def test_traced_benchmark_counts_certificate_leaves(monkeypatch):
    # the traced benchmark walks Certificate.roots and the child fields; a
    # rename of either must fail here rather than in a traced run
    spans = _load_spans(monkeypatch)
    p2 = toricbott.projective_space(2)
    cert = toricbott.build_certificate(p2, (), toricbott.InvariantDivisor((1, 0, 0)), ())
    tracer = spans.Tracer()
    tracer._observe("certifier.build_certificate", (), cert)
    assert tracer.leaves == toricbott.certifier.leaf_count(cert) > 1


def test_traced_sweep_sees_every_layer(monkeypatch):
    # the traced benchmark reads these layers through wrappers on module
    # attributes; a rewrite that bypasses one of them must fail here
    spans = _load_spans(monkeypatch)
    p2 = toricbott.projective_space(2)
    # start cold, so that complexes and ranks are computed inside the sweep
    # even when earlier tests have filled the caches
    toricbott.danilov._engine.cache_clear()
    # and so that the certificates derive their residue steps and
    # restrictions inside the sweep
    toricbott.certifier._residue_step.cache_clear()
    toricbott.divisors._restriction.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        setup = tracer.open("setup")
        toricbott.validate(p2)
        tracer.close(setup)
        solve = tracer.open("solve")
        outcome = toricbott.suite.thm11_sweep(p2, certify=True, coeffs=(0, 1))
        tracer.close(solve)
    finally:
        tracer.uninstall()
    assert outcome.certified > 0
    layers, balanced = tracer.layer_metrics(setup, solve)
    for name in ("divisors.restrict_calls", "divisors.restrict_distinct",
                 "fan.stratum_calls", "certifier.leaves", "danilov.spec_calls",
                 "exactmath.complex_calls", "exactmath.complex_entries",
                 "exactmath.rank_calls"):
        assert layers[name][0] > 0, name
    # boundedness is read from the fan's edge sign table: no LP runs
    assert layers["exactmath.bounded_calls"][0] == 0
    assert balanced


def test_traced_sweep_sees_the_exact_lp(monkeypatch):
    # the P2 sweep above is decided by short-circuits alone; this one runs
    # the exact hypothesis LP, which the traced benchmark must still see
    spans = _load_spans(monkeypatch)
    f2 = toricbott.hirzebruch(2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        setup = tracer.open("setup")
        toricbott.validate(f2)
        tracer.close(setup)
        solve = tracer.open("solve")
        toricbott.suite.thm11_sweep(f2, certify=False, coeffs=(0, 1))
        tracer.close(solve)
    finally:
        tracer.uninstall()
    layers, _ = tracer.layer_metrics(setup, solve)
    assert layers["exactmath.lp_calls"][0] > 0
    assert layers["divisors.shortcut_ratio"][0] < 1
