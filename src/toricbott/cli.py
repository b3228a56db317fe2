"""Command-line front end.

Exit codes: 0 success, 1 failed validation or a vanishing violation,
2 malformed input, 3 hypothesis infeasible, 4 internal error (an engine
invariant broke: RuntimeError, AssertionError or RecursionError).  Codes 1
and 3 are deliberately distinct: an infeasible hypothesis is an out-of-scope
input, a violation with a feasible hypothesis would falsify the theorem (or
expose a bug).  Code 4 keeps an engine fault from reading as a violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import certifier, counterexample, danilov, divisors, fan as fanmod, suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _emit(data: dict, fmt: str, table_lines) -> None:
    if fmt == "machine":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _parse_indices(text: Optional[str]) -> tuple:
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def cmd_fan(args) -> int:
    if args.fan_action == "builtin":
        params = {}
        if args.dim is not None:
            params["dim"] = args.dim
        if args.param is not None:
            params["param"] = args.param
        f = fanmod.builtin(args.name, **params)
    else:
        f = fanmod.fan_from_dict(_load_json(args.fan))
    if args.fan_action == "validate":
        diag = fanmod.validate(f)
        data = {
            "smooth": diag.smooth,
            "complete": diag.complete,
            "fan_axioms": diag.fan_axioms,
            "projective": bool(diag.ok and divisors.is_projective(f)),
        }
        lines = [f"{key}: {value}" for key, value in sorted(data.items())]
        _emit(data, args.format, lines)
        return EXIT_OK if diag.ok else EXIT_FAIL
    if args.fan_action == "blowup":
        f = fanmod.star_subdivision(f, _parse_indices(args.cone))
    payload = fanmod.fan_to_dict(f)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        print(f"wrote fan with {len(payload['rays'])} rays to {args.output}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _report_payload(report: danilov.VanishingReport) -> dict:
    return {
        "passed": report.passed,
        "hypothesis_checked": report.hypothesis_checked,
        "violations": [list(v) for v in report.violations],
        "per_p": [list(d) for d in report.per_p],
        "witness": None if report.witness is None else [str(x) for x in report.witness],
    }


def cmd_vanishing(args) -> int:
    f = fanmod.fan_from_dict(_load_json(args.fan))
    l = divisors.divisor_from_dict(_load_json(args.divisor))
    dprime = _parse_indices(args.logset)
    witness = divisors.hypothesis_feasible(f, l, dprime)
    if witness is None and not args.unchecked:
        print("hypothesis infeasible: no d in [0,1]^{D'} makes L - dD' ample",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.vanishing_action in ("check", "cross-validate"):
        report = danilov.verify_vanishing(f, dprime, l, witness=witness,
                                          unchecked=args.unchecked)
        data = _report_payload(report)
        lines = [f"pass: {report.passed}"]
        for p, dims in enumerate(report.per_p):
            lines.append(f"p={p}: h = {list(dims)}")
        if args.vanishing_action == "cross-validate" and witness is not None:
            cross = certifier.cross_validate(f, dprime, l)
            data["certificate_ok"] = cross.certificate_ok
            data["agree"] = cross.agree
            lines.append(f"certificate_ok: {cross.certificate_ok}")
            lines.append(f"agree: {cross.agree}")
        _emit(data, args.format, lines)
        if args.unchecked and witness is None:
            return EXIT_OK
        ok = report.passed
        if args.vanishing_action == "cross-validate" and witness is not None:
            ok = ok and data["agree"]
        return EXIT_OK if ok else EXIT_FAIL
    # certify
    cert = certifier.build_certificate(f, dprime, l, witness=witness)
    ok = certifier.check_certificate(f, cert)
    payload = certifier.certificate_to_dict(cert)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
    data = {
        "checked": ok,
        "leaves": certifier.leaf_count(cert),
        "hash": certifier.certificate_hash(cert),
    }
    _emit(data, args.format, [f"{k}: {v}" for k, v in sorted(data.items())])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_cohomology(args) -> int:
    f = fanmod.fan_from_dict(_load_json(args.fan))
    raw = _load_json(args.spec)
    try:
        spec = danilov.sheaf_spec(raw["p"], raw.get("logset", []), raw["twist"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad sheaf spec: {exc}") from exc
    box = None
    if args.mode == "box":
        if args.box_bound is None:
            print("box mode requires --box-bound", file=sys.stderr)
            return EXIT_MALFORMED
        box = tuple((-args.box_bound, args.box_bound) for _ in range(f.dim))
    result = danilov.cech_cohomology(f, spec, mode=args.mode, box=box)
    data = {
        "dims": list(result.dims),
        "euler": result.euler,
    }
    lines = [f"h = {list(result.dims)}", f"euler = {result.euler}"]
    if args.weights:
        data["weight_support"] = [
            {"weight": list(m), "dims": list(d)} for m, d in sorted(result.weight_support.items())
        ]
        for m, d in sorted(result.weight_support.items()):
            lines.append(f"weight {list(m)}: {list(d)}")
    _emit(data, args.format, lines)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.scan:
        lo, hi = (int(x) for x in args.scan.split(".."))
        reports = [counterexample.scenario(d) for d in range(lo, hi + 1)]
        minimal = next((r.d for r in reports if r.bott_fails), None)
        data = {
            "minimal_failing_degree": minimal,
            "rows": [vars(r) | {} for r in reports],
        }
        lines = ["  d  genus  deg_L  rr_bound  fails"]
        for r in reports:
            mark = " <- minimal" if minimal == r.d else ""
            lines.append(f"{r.d:3d}  {r.genus:5d}  {r.deg_L:5d}  {r.rr_lower_bound:8d}"
                         f"  {str(r.bott_fails):5s}{mark}")
        _emit(data, args.format, lines)
        return EXIT_OK
    r = counterexample.scenario(args.degree)
    data = dict(vars(r))
    lines = [f"{key} = {value}" for key, value in sorted(data.items())]
    _emit(data, args.format, lines)
    return EXIT_OK


def _thm11_worker(task):
    name, certify = task
    out = suite.thm11_sweep(suite.suite_fans()[name], certify=certify)
    return name, out


def cmd_suite(args) -> int:
    fans = suite.suite_fans()
    names = sorted(fans) if args.fans == "all" else args.fans.split(",")
    rng = random.Random(args.seed)
    overall_ok = True
    if any(name not in fans for name in names):
        print(f"unknown suite fan in {names}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.select == "thm11":
        tasks = [(name, not args.no_certify) for name in names]
        if args.jobs > 1:
            # per-instance determinism makes fan-level dispatch safe; results
            # are reported in name order regardless of completion order
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_thm11_worker, tasks))
        else:
            results = map(_thm11_worker, tasks)
        for name, out in results:
            ok = out.all_verified and (args.no_certify or out.all_certified)
            overall_ok = overall_ok and ok
            print(f"{name}: {out.feasible}/{out.instances} feasible, "
                  f"verified={out.verified}, certified={out.certified}, ok={ok}")
        return EXIT_OK if overall_ok else EXIT_FAIL
    for name in names:
        f = fans[name]
        if args.select == "serre":
            failures = suite.serre_duality_failures(f, bound=args.bound)
            ok = not failures
            print(f"{name}: serre duality failures = {len(failures)}")
        elif args.select == "hodge":
            ok = True
            for dprime in suite.hodge_chart_subsets(f):
                report = danilov.hodge_count_check(f, dprime)
                ok = ok and report.passed
            print(f"{name}: hodge counts ok={ok}")
        elif args.select == "euler":
            ok = True
            for _, fan_, dprime, h, l in suite.sample_euler_instances(
                    {name: f}, rng, args.sample):
                report = danilov.euler_additivity_check(fan_, dprime, h, l)
                ok = ok and report.passed
            print(f"{name}: euler additivity ok={ok}")
        else:
            print(f"unknown suite selector {args.select!r}", file=sys.stderr)
            return EXIT_MALFORMED
        overall_ok = overall_ok and ok
    return EXIT_OK if overall_ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricbott",
        description="Exact verification of Bott-type vanishing on smooth "
                    "projective toric varieties.",
    )
    parser.add_argument("--format", choices=("table", "machine"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    fan_p = sub.add_parser("fan", help="fan construction and validation")
    fan_sub = fan_p.add_subparsers(dest="fan_action", required=True)
    v = fan_sub.add_parser("validate")
    v.add_argument("--fan", required=True)
    b = fan_sub.add_parser("builtin")
    b.add_argument("--name", required=True)
    b.add_argument("--dim", type=int)
    b.add_argument("--param", type=int)
    b.add_argument("-o", "--output")
    bl = fan_sub.add_parser("blowup")
    bl.add_argument("--fan", required=True)
    bl.add_argument("--cone", required=True, help="comma-separated ray indices")
    bl.add_argument("-o", "--output")

    van = sub.add_parser("vanishing", help="vanishing checks and certificates")
    van.add_argument("vanishing_action", choices=("check", "certify", "cross-validate"))
    van.add_argument("--fan", required=True)
    van.add_argument("--divisor", required=True)
    van.add_argument("--logset", default="")
    van.add_argument("--unchecked", action="store_true",
                     help="run the engine without the hypothesis (negative control)")
    van.add_argument("-o", "--output")

    coh = sub.add_parser("cohomology", help="cohomology of one sheaf spec")
    coh.add_argument("--fan", required=True)
    coh.add_argument("--spec", required=True)
    coh.add_argument("--mode", choices=("chamber", "box"), default="chamber")
    coh.add_argument("--box-bound", type=int)
    coh.add_argument("--weights", action="store_true")

    ce = sub.add_parser("counterexample", help="relative-vanishing failure arithmetic")
    group = ce.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--scan", help="range lo..hi")

    st = sub.add_parser("suite", help="run a verification sweep")
    st.add_argument("--select", choices=("thm11", "serre", "hodge", "euler"),
                    default="thm11")
    st.add_argument("--fans", default="all")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--sample", type=int, default=25)
    st.add_argument("--bound", type=int, default=3)
    st.add_argument("--no-certify", action="store_true")
    st.add_argument("--jobs", type=int, default=1,
                    help="dispatch whole-fan sweeps to this many processes")
    return parser


_COMMANDS = {
    "fan": cmd_fan,
    "vanishing": cmd_vanishing,
    "cohomology": cmd_cohomology,
    "counterexample": cmd_counterexample,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (fanmod.MalformedInput, fanmod.UnknownFamily, counterexample.DomainError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (RuntimeError, AssertionError, RecursionError) as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
