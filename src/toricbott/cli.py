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
        try:
            return json.load(handle)
        except RecursionError:
            # nesting deeper than the parser's stack is malformed input, not
            # an engine fault
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(data: dict, fmt: str, table_lines) -> None:
    if fmt == "machine":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _parse_indices(text: Optional[str], option: str) -> tuple:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must read i,j,... with integer ray indices, "
                         f"got {text!r}") from None


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
        f = fanmod.star_subdivision(f, _parse_indices(args.cone, "--cone"))
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


def _read_only_by(given: bool, option: str, readers: str) -> None:
    """ValueError (exit 2) naming an option that was given where it is not read."""
    if given:
        raise ValueError(f"{option} is read by {readers} only")


def cmd_vanishing(args) -> int:
    certify = args.vanishing_action == "certify"
    _read_only_by(args.output is not None and not certify, "-o/--output", "vanishing certify")
    f = fanmod.fan_from_dict(_load_json(args.fan))
    l = divisors.divisor_from_dict(_load_json(args.divisor))
    dprime = _parse_indices(args.logset, "--logset")
    witness = divisors.hypothesis_feasible(f, l, dprime)
    if witness is None and (certify or not args.unchecked):
        print("hypothesis infeasible: no d in [0,1]^{D'} makes L - dD' ample",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    # after the hypothesis: a certificate needs it, --unchecked or not
    _read_only_by(args.unchecked and certify, "--unchecked", "vanishing check and cross-validate")
    if not certify:
        both = None
        if args.vanishing_action == "cross-validate" and witness is not None:
            both = certifier.cross_validate(f, dprime, l, witness)
            report = both.direct
        else:
            report = danilov.verify_vanishing(f, dprime, l, witness=witness,
                                              unchecked=args.unchecked)
        data = _report_payload(report)
        lines = [f"pass: {report.passed}"]
        for p, dims in enumerate(report.per_p):
            lines.append(f"p={p}: h = {list(dims)}")
        if both is not None:
            data["certificate_ok"], data["agree"] = both.certificate_ok, both.agree
            lines += [f"certificate_ok: {both.certificate_ok}", f"agree: {both.agree}"]
        _emit(data, args.format, lines)
        if args.unchecked and witness is None:
            return EXIT_OK
        return EXIT_OK if report.passed and (both is None or both.agree) else EXIT_FAIL
    # certify: the certificate checked is the text written, as read back
    cert = certifier.build_certificate(f, dprime, l, witness=witness)
    text = json.dumps(certifier.certificate_to_dict(cert), sort_keys=True)
    try:
        ok = certifier.check_certificate(f, certifier.certificate_from_dict(json.loads(text)))
    except certifier.MalformedNode:
        ok = False
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
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
    if args.weights:
        result = danilov.cech_cohomology(f, spec)
        dims, support = result.dims, result.weight_support
    else:
        # the counted totals, which list no weight
        dims = danilov.log_spec_dims(f, spec.p, spec.logset, divisors.InvariantDivisor(spec.twist))
    euler = danilov.euler_characteristic(dims)
    data = {"dims": list(dims), "euler": euler}
    lines = [f"h = {list(dims)}", f"euler = {euler}"]
    if args.weights:
        data["weight_support"] = [
            {"weight": list(m), "dims": list(d)} for m, d in sorted(support.items())
        ]
        for m, d in sorted(support.items()):
            lines.append(f"weight {list(m)}: {list(d)}")
    _emit(data, args.format, lines)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.scan is not None:
        try:
            lo, hi = (int(x) for x in args.scan.split(".."))
        except ValueError:
            raise ValueError(f"scan range must read lo..hi with integers lo and hi, "
                             f"got {args.scan!r}") from None
        if lo > hi:
            raise ValueError(f"empty scan range {args.scan}")
        reports = [counterexample.scenario(d) for d in range(lo, hi + 1)]
        minimal = next((r.d for r in reports if r.bott_fails), None)
        data = {
            "minimal_failing_degree": minimal,
            "rows": [vars(r) for r in reports],
        }
        lines = ["  d      e  deg(w2 N*)  genus  deg L  a.D  b.D  rr_bound  fails"]
        for r in reports:
            mark = "  <- minimal" if minimal == r.d else ""
            lines.append(f"{r.d:3d} {r.e_invariant:6d} {r.deg_wedge2_conormal:11d} "
                         f"{r.genus:6d} {r.deg_L:6d} {r.a_dot_D:4d} {r.b_dot_D:4d} "
                         f"{r.rr_lower_bound:9d}  {str(r.bott_fails):5s}{mark}")
        _emit(data, args.format, lines)
        return EXIT_OK
    r = counterexample.scenario(args.degree)
    data = dict(vars(r))
    lines = [f"{key} = {value}" for key, value in sorted(data.items())]
    _emit(data, args.format, lines)
    return EXIT_OK


def cmd_suite(args) -> int:
    fans = suite.suite_fans()
    names = sorted(fans) if args.fans == "all" else args.fans.split(",")
    if any(name not in fans for name in names):
        print(f"unknown suite fan in {names}", file=sys.stderr)
        return EXIT_MALFORMED
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # one row per fan: a second run would replace the first one's row
        print(f"suite fan given twice: {', '.join(repeated)}", file=sys.stderr)
        return EXIT_MALFORMED
    thm11 = args.select == "thm11"
    sampled = args.select in ("serre", "euler")
    _read_only_by(args.no_certify and not thm11, "--no-certify", "suite --select thm11")
    _read_only_by(args.bound is not None and args.select != "serre", "--bound",
                  "suite --select serre")
    _read_only_by(args.sample is not None and not sampled, "--sample",
                  "suite --select serre and euler")
    _read_only_by(args.seed is not None and not sampled, "--seed",
                  "suite --select serre and euler")
    bound = 3 if args.bound is None else args.bound
    sample = 25 if args.sample is None else args.sample
    rng = random.Random(0 if args.seed is None else args.seed)
    if bound < 0 or sample < 0:
        print("--bound and --sample must be nonnegative", file=sys.stderr)
        return EXIT_MALFORMED
    if args.select == "euler" and sample == 0:
        print("--sample 0 draws no euler instance, so it would check nothing", file=sys.stderr)
        return EXIT_MALFORMED
    rows = {}
    lines = []
    if thm11:
        for name in names:
            out = suite.thm11_sweep(fans[name], certify=not args.no_certify)
            ok = out.all_verified and (args.no_certify or out.all_certified)
            rows[name] = dict(vars(out), ok=ok)
            lines.append(f"{name}: {out.feasible}/{out.instances} feasible, "
                         f"verified={out.verified}, certified={out.certified}, "
                         f"decided={out.decided}, checked={out.checked}, "
                         f"solved={out.solved}, ok={ok}")
            lines += [f"    {failure}" for failure in out.failures]
    else:
        for name in names:
            f = fans[name]
            if args.select == "serre":
                failures = len(suite.serre_duality_failures(f, bound=bound))
                log_failures = len(suite.log_serre_duality_failures(f, rng, sample))
                rows[name] = {"serre_failures": failures, "log_serre_failures": log_failures,
                              "ok": not failures and not log_failures}
                lines.append(f"{name}: serre duality failures = {failures}, "
                             f"log serre duality failures = {log_failures}")
            elif args.select == "hodge":
                rows[name] = {"ok": all(danilov.hodge_count_check(f, dprime).passed
                                        for dprime in suite.hodge_chart_subsets(f))}
                lines.append(f"{name}: hodge counts ok={rows[name]['ok']}")
            else:
                samples = suite.sample_euler_instances({name: f}, rng, sample)
                rows[name] = {"ok": all(danilov.euler_additivity_check(*sample[1:]).passed
                                        for sample in samples)}
                lines.append(f"{name}: euler additivity ok={rows[name]['ok']}")
    overall_ok = all(row["ok"] for row in rows.values())
    _emit({"select": args.select, "fans": rows, "ok": overall_ok}, args.format, lines)
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
    coh.add_argument("--weights", action="store_true")

    ce = sub.add_parser("counterexample", help="relative-vanishing failure arithmetic")
    group = ce.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--scan", help="range lo..hi")

    st = sub.add_parser("suite", help="run a verification sweep")
    st.add_argument("--select", choices=("thm11", "serre", "hodge", "euler"),
                    default="thm11")
    st.add_argument("--fans", default="all")
    st.add_argument("--seed", type=int,
                    help="seed of the serre and euler samples (default 0)")
    st.add_argument("--sample", type=int,
                    help="instances drawn per fan by serre and euler (default 25)")
    st.add_argument("--bound", type=int,
                    help="serre checks twists with entries in [-bound, bound] (default 3)")
    st.add_argument("--no-certify", action="store_true")
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
