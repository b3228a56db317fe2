"""Spans and counts for the traced run, recorded from outside the engine.

``Tracer.install`` replaces the layer-boundary functions listed in
``BOUNDARIES`` by wrappers.  A function is replaced under every module
attribute that names it, because the engine imports these names across
modules (``suite.hypothesis_feasible``, ``danilov.cohomology_dims``...) and a
wrapper on the defining module alone would miss those calls.  Arithmetic
helpers such as ``as_rational`` are left alone: a wrapper costs more than
they do.

Each call records one span (name, start, end, parent) in flat arrays kept
in memory; ``write`` saves them when the run ends.  A span's self time is
its duration minus the durations of its child spans, so the self times of a
root span's subtree sum exactly to the root's duration.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs wrapped in the traced run.
BOUNDARIES = (
    ("exactmath", "lp_feasible_strict"),
    ("exactmath", "polyhedron_bounded"),
    ("exactmath", "cohomology_dims"),
    ("exactmath", "rank"),
    ("fan", "validate"),
    ("fan", "stratum_fan"),
    ("divisors", "hypothesis_feasible"),
    ("divisors", "restrict_to_stratum"),
    ("danilov", "cech_cohomology"),
    ("danilov", "line_bundle_cohomology"),
    ("danilov", "log_spec_dims"),
    ("danilov", "verify_vanishing"),
    ("certifier", "build_certificate"),
    ("certifier", "check_certificate"),
    ("suite", "thm11_sweep"),
)

SPEC_ENTRIES = ("danilov.cech_cohomology", "danilov.line_bundle_cohomology",
                "danilov.log_spec_dims")


def _spec_key(name, args):
    """The (fan, p, D', twist) a cohomology entry point is asked for."""
    if name == "danilov.cech_cohomology":
        f, s = args[0], args[1]
        return (f, s.p, frozenset(s.logset), tuple(s.twist))
    if name == "danilov.line_bundle_cohomology":
        return (args[0], 0, frozenset(), tuple(args[1].coeffs))
    f, p, dprime, twist = args[:4]
    return (f, p, frozenset(dprime), tuple(twist.coeffs))


def _leaves(node) -> int:
    if node.sub_child is None:
        return 1
    return _leaves(node.sub_child) + _leaves(node.quotient_child)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore: list = []
        self.spec_keys: set = set()
        self.restrict_keys: set = set()
        self.complex_entries = 0
        self.leaves = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _observe(self, name, args, result):
        """Counts that need a call's arguments or result."""
        if name in SPEC_ENTRIES:
            self.spec_keys.add(_spec_key(name, args))
        elif name == "divisors.restrict_to_stratum":
            f, d, tau = args[:3]
            character = args[3] if len(args) > 3 else None
            self.restrict_keys.add((f, tuple(d.coeffs), tuple(sorted(tau)),
                                    None if character is None else tuple(character)))
        elif name == "exactmath.cohomology_dims":
            self.complex_entries += sum(d.rows * d.cols for d in args[0].differentials)
        elif name == "certifier.build_certificate":
            self.leaves += sum(_leaves(root) for root in result.roots)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._observe(name, args, result)
            return result

        return traced

    def install(self, package: str = "toricbott") -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for modname, fname in BOUNDARIES:
            original = getattr(sys.modules[f"{package}.{modname}"], fname)
            wrapper = self.wrap(f"{modname}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def subtree(self, root: int) -> range:
        """Span indices under ``root``: spans are appended in call order and
        the tracer is single-threaded, so a subtree is a contiguous run."""
        stop = root + 1
        while stop < len(self.start) and self.start[stop] < self.end[root]:
            stop += 1
        return range(root, stop)

    def self_times(self, spans: range) -> dict:
        own = {i: self.end[i] - self.start[i] for i in spans}
        for i in spans:
            if i != spans.start:
                own[self.parent[i]] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, setup_root: int, solve_root: int):
        """Per-layer figures over the solve span, validation over set-up,
        and whether the solve subtree's self times sum to its duration."""
        spans = self.subtree(solve_root)
        own = self.self_times(spans)
        names = self.names
        ids = {n: i for i, n in enumerate(names)}

        def of(name):
            key = ids.get(name)
            return [i for i in spans if self.name[i] == key]

        def dur(indices):
            return sum(self.end[i] - self.start[i] for i in indices) / 1e9

        def self_s(indices):
            return sum(own[i] for i in indices) / 1e9

        hyp = of("divisors.hypothesis_feasible")
        hyp_set = set(hyp)
        lp = of("exactmath.lp_feasible_strict")
        lp_in_hyp = sum(1 for i in lp if self.parent[i] in hyp_set)

        # Cohomology entry points minus the exactmath time inside them:
        # what is left is chamber and lattice enumeration.
        spec = [i for n in SPEC_ENTRIES for i in of(n)]
        spec_set = set(spec)
        exact_ids = {ids[n] for n in names if n.startswith("exactmath.")}
        exact_inside = 0
        for i in spans:
            if self.name[i] not in exact_ids:
                continue
            j = self.parent[i]
            while j >= 0 and j not in spec_set and self.name[j] not in exact_ids:
                j = self.parent[j]
            if j in spec_set:
                exact_inside += self.end[i] - self.start[i]

        setup_spans = self.subtree(setup_root)
        validate_id = ids.get("fan.validate")
        validate_setup = [i for i in setup_spans if self.name[i] == validate_id
                          and self.name[self.parent[i]] != validate_id]

        solve_ns = self.end[solve_root] - self.start[solve_root]
        metrics = {
            "exactmath.lp_calls": (len(lp), "count"),
            "exactmath.lp_s": (dur(lp), "s"),
            "exactmath.bounded_calls": (len(of("exactmath.polyhedron_bounded")), "count"),
            "exactmath.bounded_s": (dur(of("exactmath.polyhedron_bounded")), "s"),
            "exactmath.complex_calls": (len(of("exactmath.cohomology_dims")), "count"),
            "exactmath.complex_entries": (self.complex_entries, "count"),
            "exactmath.complex_s": (dur(of("exactmath.cohomology_dims")), "s"),
            "exactmath.rank_calls": (len(of("exactmath.rank")), "count"),
            "exactmath.rank_s": (dur(of("exactmath.rank")), "s"),
            "fan.validate_s": (dur(validate_setup), "s"),
            "fan.stratum_calls": (len(of("fan.stratum_fan")), "count"),
            "fan.stratum_s": (dur(of("fan.stratum_fan")), "s"),
            "divisors.hypothesis_calls": (len(hyp), "count"),
            "divisors.hypothesis_self_s": (self_s(hyp), "s"),
            "divisors.shortcut_ratio": (1 - lp_in_hyp / len(hyp) if hyp else 0.0, "ratio"),
            "divisors.restrict_calls": (len(of("divisors.restrict_to_stratum")), "count"),
            "divisors.restrict_distinct": (len(self.restrict_keys), "count"),
            "divisors.restrict_s": (dur(of("divisors.restrict_to_stratum")), "s"),
            "danilov.spec_calls": (len(spec), "count"),
            "danilov.spec_distinct": (len(self.spec_keys), "count"),
            "danilov.spec_self_s": (dur(spec) - exact_inside / 1e9, "s"),
            "danilov.verify_calls": (len(of("danilov.verify_vanishing")), "count"),
            "danilov.verify_s": (dur(of("danilov.verify_vanishing")), "s"),
            "certifier.build_calls": (len(of("certifier.build_certificate")), "count"),
            "certifier.build_s": (dur(of("certifier.build_certificate")), "s"),
            "certifier.check_s": (dur(of("certifier.check_certificate")), "s"),
            "certifier.leaves": (self.leaves, "count"),
            "suite.sweep_self_s": (self_s(of("suite.thm11_sweep")), "s"),
            "trace.solve_s": (solve_ns / 1e9, "s"),
            "trace.spans": (len(spans), "count"),
        }
        return metrics, sum(own.values()) == solve_ns

    def write(self, path: str) -> None:
        data = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [list(t) for t in zip(self.name, self.start, self.end, self.parent)],
        }
        with gzip.open(path, "wt") as handle:
            json.dump(data, handle, separators=(",", ":"))
