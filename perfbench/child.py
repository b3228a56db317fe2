"""One round of a workload in a fresh interpreter; run.py starts it.

Set-up is timed from the top of this file, before the engine is imported,
to the moment the workload's fans are built and validated.  The engine's
process-lifetime caches therefore start empty, as for a CLI call.  The
last line of standard output is the round's result as JSON; its windows
are (monotonic start, seconds) pairs, which run.py matches against the
speed probe.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", help="trace this round and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import toricbott

    if not os.path.abspath(toricbott.__file__).startswith(SRC + os.sep):
        print(f"toricbott was imported from {toricbott.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        setup_root = tracer.open("setup")
    workload = workloads.workloads()[args.workload]
    state = workload.setup(args.seed)
    if tracer:
        tracer.close(setup_root)
    setup = (T0, time.monotonic() - T0)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    if tracer:
        solve_root = tracer.open("solve")
    start = time.monotonic()
    result = workload.solve(state)
    solve = (start, time.monotonic() - start)
    if tracer:
        tracer.close(solve_root)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = workload.check(state, result)
    out = {
        "attempted": report.attempted,
        "failed": report.failed,
        "correct": report.wrong == 0,
        "problems": report.problems[:20],
        "setup": setup,
        "solve": solve,
        "peak_rss_mb": peak_rss_mb,
        "ops": report.op_windows,
    }
    if tracer:
        layers, balanced = tracer.layer_metrics(setup_root, solve_root)
        if not balanced:
            out["correct"] = False
            out["problems"].append("span self times do not sum to the solve span")
        out["layers"] = layers
        tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
