"""The benchmark's workloads: inputs made from the seed, fixed work, checks.

Each workload has three steps, which child.py runs in one fresh interpreter:
``setup(seed)`` builds and validates the fans (timed as set-up),
``solve(state)`` does the fixed work (timed as solve), and
``check(state, result)`` compares the outputs with the oracle, untimed.

An operation is one (D', L) instance of a sweep, or one cohomology call.
It fails if it raises (``Report.raised``) or if its output is wrong
(``Report.wrong``); a wrong output also makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from time import monotonic

from toricbott import danilov, divisors, suite
from toricbott import fan as fanmod

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Report:
    attempted: int
    raised: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)
    op_windows: list = field(default_factory=list)     # (monotonic start, seconds)

    @property
    def failed(self) -> int:
        return min(self.attempted, self.raised + self.wrong)


def _same_fan(engine_fan, ofan) -> bool:
    return (engine_fan.dim == ofan.dim and engine_fan.rays == ofan.rays
            and sorted(engine_fan.max_cones) == sorted(ofan.cones))


@dataclass
class SweepState:
    fan: object
    seed: int


class Sweep:
    """``suite.thm11_sweep`` over every (D', L) with L in coeffs^rays.

    The sweep is exhaustive, so its work does not depend on the seed; the
    seed picks the instances whose verdict, witness and h^0 are checked
    against the oracle.
    """

    def __init__(self, engine_fan, oracle_fan, certify: bool, expected: dict,
                 coeffs=oracle.SWEEP_COEFFS, samples: int = 16):
        self.engine_fan = engine_fan
        self.oracle_fan = oracle_fan
        self.certify = certify
        self.expected = expected
        self.coeffs = tuple(coeffs)
        self.samples = samples

    def setup(self, seed: int) -> SweepState:
        f = self.engine_fan()
        diag = fanmod.validate(f)
        if not diag.ok:
            raise ValueError(f"workload fan is invalid: {diag.reasons}")
        return SweepState(f, seed)

    def solve(self, state: SweepState):
        try:
            return suite.thm11_sweep(state.fan, certify=self.certify, coeffs=self.coeffs)
        except Exception as exc:  # an engine fault fails every instance of the round
            return exc

    def check(self, state: SweepState, outcome) -> Report:
        rep = Report(attempted=self.expected["pairs"])
        if isinstance(outcome, Exception):
            rep.raised = rep.attempted
            rep.problems.append(f"sweep raised {type(outcome).__name__}: {outcome}")
            return rep
        f = state.fan
        ofan = self.oracle_fan()
        if not _same_fan(f, ofan):
            rep.wrong = rep.attempted
            rep.problems.append("engine fan differs from the oracle's fan")
            return rep
        wrong = {(tuple(d), tuple(l)) for _, d, l, _ in outcome.failures}
        for kind, dprime, coeffs, _ in outcome.failures[:5]:
            rep.problems.append(f"sweep reported a {kind} failure at {(dprime, coeffs)}")
        # Discrepancies the sweep cannot attribute to an instance.
        gap = abs(outcome.instances - self.expected["pairs"])
        gap += abs(outcome.feasible - self.expected["feasible"])
        if gap:
            rep.problems.append(
                f"sweep saw {outcome.instances} pairs / {outcome.feasible} feasible, "
                f"oracle {self.expected['pairs']} / {self.expected['feasible']}")
        proven = [outcome.verified]
        if self.certify:
            proven += [outcome.certified, outcome.agreed]
        if not outcome.failures and min(proven) != outcome.feasible:
            gap = max(gap, outcome.feasible - min(proven))
            rep.problems.append("feasible instances were left unverified or uncertified")
        wrong |= self._check_samples(state, ofan, rep)
        rep.wrong = len(wrong) + gap
        return rep

    def _check_samples(self, state: SweepState, ofan, rep: Report) -> set:
        """Random pairs until ``samples`` feasible ones: the hypothesis verdict
        must match the oracle's; on feasible pairs the witness must make
        L - dD' ample and h^0 must equal the oracle's chi for every p."""
        f = state.fan
        rng = random.Random(state.seed * 7919 + 1)
        n = f.n_rays
        wrong = set()
        found = 0
        for _ in range(100 * self.samples):
            if found == self.samples:
                break
            dprime = tuple(i for i in range(n) if rng.random() < 0.5)
            coeffs = tuple(rng.choice(self.coeffs) for _ in range(n))
            l = divisors.InvariantDivisor(coeffs)
            key = (dprime, coeffs)
            try:
                witness = divisors.hypothesis_feasible(f, l, dprime)
            except Exception as exc:  # the sweep passed this instance; now it raises
                wrong.add(key)
                rep.problems.append(f"hypothesis raised {type(exc).__name__} at {key}")
                continue
            if (witness is not None) != oracle.hypothesis_holds(ofan, coeffs, dprime):
                wrong.add(key)
                rep.problems.append(f"hypothesis verdict differs from the oracle at {key}")
                continue
            if witness is None:
                continue
            found += 1
            if not oracle.witness_ok(ofan, coeffs, dprime, witness):
                wrong.add(key)
                rep.problems.append(f"witness {witness} does not make L - dD' ample at {key}")
                continue
            try:
                report = danilov.verify_vanishing(f, dprime, l, witness=witness)
            except Exception as exc:
                wrong.add(key)
                rep.problems.append(f"verify_vanishing raised {type(exc).__name__} at {key}")
                continue
            for p, dims in enumerate(report.per_p):
                chi = oracle.chi_log(ofan, p, dprime, coeffs)
                if dims[0] != chi or any(dims[1:]):
                    wrong.add(key)
                    rep.problems.append(f"h(p={p}) = {dims}, oracle chi {chi} at {key}")
        if found < self.samples:
            rep.problems.append(f"only {found} feasible samples found")
            wrong.add(("samples",))
        return wrong


P2P1_CLASSES = ((1, -1), (-1, 1))


@dataclass
class CechState:
    fans: dict
    calls: list     # (fan key, p, twist, role)


class CechCalls:
    """Single ``danilov.cech_cohomology`` calls on threefolds.

    P^2 x P^1 at twist 0 and at two seeded twists per p; Bl_pt P^3 at
    twists 0, +B and -B for every p; P^1 x P^1 x P^1 at twist 0.  A seeded
    twist is a random representative, entries in {-1, 0, 1}, of a fixed
    class: representatives of one class differ by a principal divisor, so
    every seed asks for the same amount of work on a shifted weight lattice.
    """

    def __init__(self, p2p1_ps=range(4), blpt_ps=range(4), p1cube_ps=(0, 1, 3)):
        self.p2p1_ps = tuple(p2p1_ps)
        self.blpt_ps = tuple(blpt_ps)
        self.p1cube_ps = tuple(p1cube_ps)

    def setup(self, seed: int) -> CechState:
        p1, p2, p3 = (fanmod.projective_space(n) for n in (1, 2, 3))
        fans = {
            "p2xp1": fanmod.product(p2, p1),
            "blpt_p3": fanmod.star_subdivision(p3, (0, 1, 2)),
            "p1xp1xp1": fanmod.product(fanmod.product(p1, p1), p1),
        }
        for key, f in fans.items():
            diag = fanmod.validate(f)
            if not diag.ok:
                raise ValueError(f"workload fan {key} is invalid: {diag.reasons}")
        return CechState(fans, self.calls(seed))

    def calls(self, seed: int) -> list:
        rng = random.Random(seed)
        reps = {}
        for twist in itertools.product((-1, 0, 1), repeat=5):
            reps.setdefault((sum(twist[:3]), sum(twist[3:])), []).append(twist)
        # Calls go in order of p so that the mid-sized calls, which set the
        # median latency, fall on both sides of the long P^1 x P^1 x P^1 call.
        out = []
        for p in range(4):
            if p in self.p2p1_ps:
                out.append(("p2xp1", p, (0,) * 5, "kuenneth"))
                for cls in P2P1_CLASSES:
                    out.append(("p2xp1", p, rng.choice(reps[cls]), "kuenneth"))
            if p in self.blpt_ps:
                out.append(("blpt_p3", p, (0,) * 5, "hodge"))
                out.append(("blpt_p3", p, (1,) * 5, "plus"))
                out.append(("blpt_p3", p, (-1,) * 5, "minus"))
            if p in self.p1cube_ps:
                out.append(("p1xp1xp1", p, (0,) * 6, "kuenneth"))
        return out

    def solve(self, state: CechState) -> list:
        results = []
        for key, p, twist, _ in state.calls:
            start = monotonic()
            try:
                dims = danilov.cech_cohomology(state.fans[key], danilov.sheaf_spec(p, (), twist)).dims
            except Exception as exc:  # a failed call is counted, the run goes on
                dims = exc
            results.append((dims, (start, monotonic() - start)))
        return results

    def check(self, state: CechState, results: list) -> Report:
        rep = Report(attempted=len(state.calls))
        rep.op_windows = [window for _, window in results]
        p1, p2 = oracle.projective_space(1), oracle.projective_space(2)
        ofans = {
            "p2xp1": (oracle.product(p2, p1), (2, 1)),
            "blpt_p3": (oracle.star_subdivision(oracle.projective_space(3), (0, 1, 2)), None),
            "p1xp1xp1": (oracle.product(oracle.product(p1, p1), p1), (1, 1, 1)),
        }
        for key, f in state.fans.items():
            if not _same_fan(f, ofans[key][0]):
                rep.problems.append(f"engine fan {key} differs from the oracle's fan")
                rep.wrong = rep.attempted
                return rep
        blpt = ofans["blpt_p3"][0]
        if not oracle.is_ample(blpt, (1,) * len(blpt.rays)):
            rep.problems.append("oracle: -K is not ample on Bl_pt P^3")
            rep.wrong = rep.attempted
            return rep
        bad = set()
        by_role = {}
        for i, ((key, p, twist, role), (dims, _)) in enumerate(zip(state.calls, results)):
            label = f"{key} p={p} twist={twist}"
            if isinstance(dims, Exception):
                rep.raised += 1
                rep.problems.append(f"{label} raised {type(dims).__name__}: {dims}")
                continue
            ofan, factors = ofans[key]
            expected = None
            if role == "kuenneth":
                blocks, start = [], 0
                for n in factors:
                    blocks.append(sum(twist[start:start + n + 1]))
                    start += n + 1
                expected = oracle.bott_kuenneth(factors, blocks, p)
            elif role == "hodge":
                expected = oracle.hodge_twist0(ofan, p)
            elif role == "plus" and p == 0:
                expected = (oracle.h0_line_bundle(ofan, twist),) + (0,) * ofan.dim
            if len(dims) != ofan.dim + 1 or any(h < 0 for h in dims):
                bad.add(i)
                rep.problems.append(f"{label}: malformed dims {dims}")
                continue
            if role in ("plus", "minus"):
                by_role[(role, p)] = (i, dims)
            if expected is not None and tuple(dims) != tuple(expected):
                bad.add(i)
                rep.problems.append(f"{label}: {dims}, oracle {expected}")
            elif role == "plus" and any(dims[1:]):
                bad.add(i)
                rep.problems.append(f"{label}: {dims} breaks Bott vanishing for -K ample")
        dim = blpt.dim
        for p in self.blpt_ps:
            plus, minus = by_role.get(("plus", p)), by_role.get(("minus", dim - p))
            if plus is None or minus is None:
                continue
            if any(plus[1][q] != minus[1][dim - q] for q in range(dim + 1)):
                bad.update((plus[0], minus[0]))
                rep.problems.append(
                    f"Serre duality fails on Bl_pt P^3: p={p} +B {plus[1]}, "
                    f"p={dim - p} -B {minus[1]}")
        rep.wrong = len(bad)
        return rep


def stored_counts() -> dict:
    with open(os.path.join(HERE, "oracle_counts.json")) as handle:
        return json.load(handle)["fans"]


def workloads() -> dict:
    counts = stored_counts()
    fans = suite.suite_fans
    return {
        "verify-bl3": Sweep(lambda: fans()["bl3"], oracle.bl3, False, counts["bl3"]),
        "certify-p3": Sweep(lambda: fans()["p3"], lambda: oracle.projective_space(3),
                            True, counts["p3"]),
        "cech-3fold": CechCalls(),
    }
