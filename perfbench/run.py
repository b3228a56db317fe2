#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs rounds of the workload's fixed work, each in a fresh single-threaded
interpreter (child.py), until S seconds of rounds have been measured.  With
--trace 0 it also times set-up in more fresh interpreters and reports the
end-to-end metrics; with --trace 1 every round is traced and the per-layer
metrics are reported.  Every figure is the median over the run's rounds
(set-up: over all its interpreters).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

The run, its rounds and the speed probe (probe.py) share one CPU.  End-to-
end times are reported at the probe's reference speed: each measured time
is multiplied by REFERENCE_CHUNK_S over the probe's mean chunk time in the
same window, which cancels the host's load on that core.  The wall times
are printed beside them and kept in the result file.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

from probe import REFERENCE_CHUNK_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-bl3", "certify-p3", "cech-3fold")
SETUP_PROBES = 8          # extra set-up-only interpreters per untraced run
DEADLINE_S = 170          # the whole run, children included
MIN_WINDOW_S = 0.5        # shorter windows are widened to this for the speed


class ChildFailed(RuntimeError):
    pass


def run_child(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")] + args,
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"round {args} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"round {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"round {args} printed no result:\n{proc.stderr[-2000:]}") from exc


class SpeedProbe:
    """probe.py running beside the rounds; ``scale`` turns a time measured
    in a window into a time at the reference speed."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ends: list = []
        self.cpu: list = []

    def stop(self) -> None:
        try:
            out, _ = self.proc.communicate("", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        records = sorted(tuple(map(float, line.split())) for line in out.splitlines())
        self.ends = [t for t, _ in records]
        self.cpu = [c for _, c in records]

    def scale(self, window) -> float:
        start, seconds = window
        pad = max(0.0, MIN_WINDOW_S - seconds) / 2
        lo = bisect.bisect_left(self.ends, start - pad)
        hi = bisect.bisect_right(self.ends, start + seconds + pad)
        chunks = self.cpu[lo:hi] or self.cpu
        return REFERENCE_CHUNK_S / statistics.fmean(chunks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "toricbott", "__init__.py")):
        print(f"error: no engine source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Rounds and probe inherit the pinning, so they share one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    probe = None if args.trace else SpeedProbe()
    setups = []
    rounds = []
    try:
        def probe_setup(count):
            setups.extend(run_child(common + ["--setup-only"], deadline)["setup"]
                          for _ in range(count))

        if probe:
            # The first interpreter also compiles the bytecode caches; discard it.
            run_child(common + ["--setup-only"], deadline)
            probe_setup(SETUP_PROBES // 2)
        measured = 0.0
        while not rounds or measured < args.seconds:
            extra = []
            if args.trace:
                extra = ["--trace-file", os.path.join(OUT, f"trace-{tag}-round{len(rounds)}.json.gz")]
            start = time.monotonic()
            rounds.append(run_child(common + extra, deadline))
            measured += time.monotonic() - start
        if probe:
            # Half the probes after the rounds, so set-up is sampled at both
            # ends of the run.
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if probe:
            probe.stop()
    if probe and (probe.proc.returncode != 0 or not probe.cpu):
        print("error: the speed probe recorded nothing", file=sys.stderr)
        return 1

    for i, r in enumerate(rounds):
        print(f"round {i}: solve {r['solve'][1]:.3f} s wall, set-up {r['setup'][1]:.3f} s wall, "
              f"{r['attempted']} attempted, {r['failed']} failed, correct {r['correct']}")
        for problem in r["problems"]:
            print(f"  {problem}")

    def at_reference(window) -> float:
        return window[1] * probe.scale(window)

    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in rounds),
                          "unit": unit}
                   for name, (_, unit) in rounds[0]["layers"].items()}
    else:
        solve = [at_reference(r["solve"]) for r in rounds]
        # Cohomology calls are timed one by one; a sweep is one library call,
        # so its per-operation figure is the solve time per instance.
        if rounds[0]["ops"]:
            op_s = statistics.median(statistics.median(map(at_reference, r["ops"]))
                                     for r in rounds)
        else:
            op_s = statistics.median(s / r["attempted"] for s, r in zip(solve, rounds))
        all_setups = setups + [r["setup"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(map(at_reference, all_setups)), "unit": "s"},
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "op_p50_ms": {"value": op_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
        print(f"wall: set-up {statistics.median(w[1] for w in all_setups):.4g} s, "
              f"solve {statistics.median(r['solve'][1] for r in rounds):.4g} s; "
              f"core speed {statistics.median(probe.scale(r['solve']) for r in rounds):.3f} "
              f"x reference")
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump({"rounds": rounds, "setups": setups, "result": result,
                   "probe": list(zip(probe.ends, probe.cpu)) if probe else []}, handle)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
