import json
import re

import pytest

from toricbott.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_MALFORMED,
    EXIT_OK,
    main,
)
from toricbott.certifier import (
    build_certificate,
    certificate_from_dict,
    certificate_hash,
    leaf_count,
)
from toricbott.danilov import cech_cohomology, sheaf_spec
from toricbott.divisors import InvariantDivisor
from toricbott.fan import fan_from_dict, fan_to_dict, hirzebruch, product, projective_space


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    assert main(["fan", "builtin", "--name", "projective_space", "--dim", "2",
                 "-o", str(path)]) == EXIT_OK
    return str(path)


@pytest.fixture
def divisor_file(tmp_path):
    def write(coeffs, name="d.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"coeffs": list(coeffs)}))
        return str(path)

    return write


def test_builtin_writes_p2(p2_file):
    fan = fan_from_dict(json.load(open(p2_file)))
    assert fan == projective_space(2)


def test_validate_ok(p2_file, capsys):
    assert main(["fan", "validate", "--fan", p2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth: True" in out


def test_builtin_without_output_prints_the_fan(capsys):
    assert main(["fan", "builtin", "--name", "hirzebruch", "--param", "1"]) == EXIT_OK
    assert fan_from_dict(json.loads(capsys.readouterr().out)) == hirzebruch(1)


def test_validate_incomplete_fan(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2]],
    }))
    assert main(["fan", "validate", "--fan", str(path)]) == EXIT_FAIL


@pytest.mark.parametrize("action", ["check", "certify", "cross-validate"])
def test_vanishing_on_an_incomplete_fan_is_malformed(tmp_path, divisor_file, capsys, action):
    # the facet spanned by ray 2 lies in one cone only: no cone (0, 2)
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[0, 1], [1, 2]]}))
    assert main(["vanishing", action, "--fan", str(path),
                 "--divisor", divisor_file([1, 0, 0])]) == EXIT_MALFORMED
    assert "not smooth/complete/valid" in capsys.readouterr().err


def test_malformed_fan_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[2, 0]], "max_cones": [[0]]}))
    assert main(["fan", "validate", "--fan", str(path)]) == EXIT_MALFORMED


@pytest.mark.parametrize("data, message", [
    ({"dim": -1, "rays": [], "max_cones": []}, "negative dimension"),
    ({"dim": 2, "rays": [[1, 0], [0, 1, 0]], "max_cones": [[0, 1]]},
     "ray (0, 1, 0) has wrong length"),
    ({"dim": 1, "rays": [[1], [1]], "max_cones": [[0], [1]]}, "duplicate ray (1,)"),
    ({"dim": 1, "rays": [[1], [-1]], "max_cones": []}, "fan has no maximal cones"),
    ({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 0]]},
     "repeated ray index in cone (0, 0)"),
    ({"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [0]]}, "duplicate maximal cone (0,)"),
    ({"dim": 1, "rays": [[1], [-1]], "max_cones": [[0]]},
     "some ray is not used by any maximal cone"),
])
def test_validate_refuses_structurally_broken_fans(tmp_path, capsys, data, message):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["fan", "validate", "--fan", str(path)]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_deeply_nested_json_is_malformed(p2_file, tmp_path, capsys):
    # nesting deeper than the JSON parser's stack is a malformed file (exit 2),
    # not an internal RecursionError (exit 4)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["fan", "validate", "--fan", str(path)]) == EXIT_MALFORMED
    assert main(["vanishing", "check", "--fan", p2_file, "--divisor", str(path)]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.err.count(f"error: {path}") == 2 and captured.out == ""


def test_engine_recursion_error_is_internal(p2_file, capsys, monkeypatch):
    import toricbott.fan as fanmod

    def recurse(f):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(fanmod, "validate", recurse)
    assert main(["fan", "validate", "--fan", p2_file]) == EXIT_INTERNAL
    assert "internal RecursionError" in capsys.readouterr().err


def test_fan_file_with_float_ray_is_malformed(tmp_path):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1.5, -1]],
                                "max_cones": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["fan", "validate", "--fan", str(path)]) == EXIT_MALFORMED


@pytest.mark.parametrize("name, option", [("projective_space", "dim"), ("hirzebruch", "param")])
def test_builtin_without_its_parameter_is_malformed(capsys, name, option):
    assert main(["fan", "builtin", "--name", name]) == EXIT_MALFORMED
    assert f"needs an integer '{option}'" in capsys.readouterr().err


@pytest.mark.parametrize("name, given, unexpected", [
    ("projective_space", ["--dim", "1", "--param", "5"], "param"),
    ("hirzebruch", ["--param", "1", "--dim", "2"], "dim"),
])
def test_builtin_with_a_parameter_its_family_does_not_take_is_malformed(capsys, name, given,
                                                                       unexpected):
    # a dropped option would answer for another fan than the one asked for
    assert main(["fan", "builtin", "--name", name] + given) == EXIT_MALFORMED
    assert f"'{unexpected}'" in capsys.readouterr().err


def test_blowup_adds_ray(p2_file, tmp_path):
    out = tmp_path / "bl.json"
    assert main(["fan", "blowup", "--fan", p2_file, "--cone", "0,1",
                 "-o", str(out)]) == EXIT_OK
    fan = fan_from_dict(json.load(open(out)))
    assert fan.n_rays == 4 and (1, 1) in fan.rays


@pytest.mark.parametrize("text", ["0,,1", "a", "1,"])
@pytest.mark.parametrize("command, option", [
    (["vanishing", "check", "--divisor", "{divisor}"], "--logset"),
    (["fan", "blowup"], "--cone"),
])
def test_index_lists_name_their_option(p2_file, divisor_file, capsys, command, option, text):
    # the message names the option and quotes the input, rather than echoing
    # an int() failure
    argv = [arg.format(divisor=divisor_file([2, 0, 0])) for arg in command]
    assert main(argv + ["--fan", p2_file, option, text]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err and repr(text) in captured.err


def test_vanishing_check_pass(p2_file, divisor_file):
    d = divisor_file([2, 0, 0])
    assert main(["vanishing", "check", "--fan", p2_file, "--divisor", d,
                 "--logset", "1"]) == EXIT_OK


def test_vanishing_infeasible_exit_code(p2_file, divisor_file):
    d = divisor_file([0, 0, 0])
    assert main(["vanishing", "check", "--fan", p2_file, "--divisor", d,
                 "--logset", "0"]) == EXIT_INFEASIBLE


def test_vanishing_unchecked_negative_control(p2_file, divisor_file, capsys):
    d = divisor_file([0, 0, 0])
    code = main(["--format", "machine", "vanishing", "check", "--fan", p2_file,
                 "--divisor", d, "--unchecked"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert not data["passed"]
    assert [1, 1, 1] in data["violations"]


def test_vanishing_certify_unchecked_infeasible_exit_code(p2_file, divisor_file, capsys):
    # a certificate needs the hypothesis, --unchecked or not
    d = divisor_file([0, 0, 0])
    assert main(["vanishing", "certify", "--fan", p2_file, "--divisor", d,
                 "--logset", "0", "--unchecked"]) == EXIT_INFEASIBLE
    assert "hypothesis infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["check", "certify", "cross-validate"])
def test_vanishing_log_ray_out_of_range_is_malformed(p2_file, divisor_file, action):
    d = divisor_file([1, 0, 0])
    assert main(["vanishing", action, "--fan", p2_file, "--divisor", d,
                 "--logset", "5", "--unchecked"]) == EXIT_MALFORMED


@pytest.mark.parametrize("action", ["check", "certify"])
def test_vanishing_rational_divisor_is_malformed(p2_file, divisor_file, capsys, action):
    d = divisor_file([2, "1/2", 0])
    assert main(["vanishing", action, "--fan", p2_file, "--divisor", d]) == EXIT_MALFORMED
    assert "coefficient '1/2' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("action, coeffs", [("check", [1, 1, 1, -9]), ("certify", [1, 1]),
                                             ("cross-validate", [1])])
def test_vanishing_wrong_length_divisor_is_malformed(p2_file, divisor_file, capsys,
                                                     action, coeffs):
    d = divisor_file(coeffs)
    assert main(["vanishing", action, "--fan", p2_file, "--divisor", d]) == EXIT_MALFORMED
    assert f"{len(coeffs)} coefficients for 3 rays" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["check", "cross-validate"])
def test_vanishing_output_is_read_by_certify_only(p2_file, divisor_file, tmp_path, capsys,
                                                  action):
    d = divisor_file([1, 0, 0])
    out = tmp_path / "out.json"
    assert main(["vanishing", action, "--fan", p2_file, "--divisor", d,
                 "-o", str(out)]) == EXIT_MALFORMED
    assert "-o/--output" in capsys.readouterr().err
    assert not out.exists()


def test_vanishing_certify_refuses_unchecked(p2_file, divisor_file, capsys):
    # with a feasible hypothesis, certify used to run and ignore --unchecked
    d = divisor_file([1, 0, 0])
    assert main(["vanishing", "certify", "--fan", p2_file, "--divisor", d,
                 "--unchecked"]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert "--unchecked" in captured.err and captured.out == ""


def test_vanishing_certify_writes_certificate(p2_file, divisor_file, tmp_path, capsys):
    d = divisor_file([1, 0, 0])
    cert_path = tmp_path / "cert.json"
    assert main(["vanishing", "certify", "--fan", p2_file, "--divisor", d,
                 "-o", str(cert_path)]) == EXIT_OK
    data = json.load(open(cert_path))
    assert data["format"] == "toricbott-certificate/3"
    assert set(data) == {"format", "fan_sha256", "hypothesis_witness", "roots"}
    assert len(data["roots"]) == 1
    # D' = {} and L = D_0, stated once, in the root claim
    assert data["roots"][0]["claim"] == {"stratum": [], "logset": [], "twist": [1, 0, 0]}
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    cert = certificate_from_dict(data)
    assert printed["checked"] == "True"
    assert int(printed["leaves"]) == leaf_count(cert) > 0
    assert printed["hash"] == certificate_hash(cert)


def _drop_the_root_quotient(data):
    del data["roots"][0]["quotient"]


def _shift_the_root_twist(data):
    data["roots"][0]["claim"]["twist"][0] += 1


@pytest.mark.parametrize("corrupt", [_drop_the_root_quotient, _shift_the_root_twist])
def test_vanishing_certify_checks_the_certificate_it_writes(p2_file, divisor_file, tmp_path,
                                                            capsys, monkeypatch, corrupt):
    # the in-memory certificate is sound; the serialized one is not, and it
    # is the one that is read back, checked and written
    import toricbott.certifier as certifier

    original = certifier.certificate_to_dict

    def corrupted(cert):
        data = original(cert)
        corrupt(data)
        return data

    monkeypatch.setattr(certifier, "certificate_to_dict", corrupted)
    d = divisor_file([1, 0, 0])
    cert_path = tmp_path / "cert.json"
    assert main(["vanishing", "certify", "--fan", p2_file, "--divisor", d,
                 "-o", str(cert_path)]) == EXIT_FAIL
    assert "checked: False" in capsys.readouterr().out.splitlines()
    # the file holds the corrupted text that was checked
    expected = original(build_certificate(projective_space(2), (), InvariantDivisor((1, 0, 0)),
                                          witness=()))
    corrupt(expected)
    assert json.load(open(cert_path)) == expected


def test_cross_validate_command(p2_file, divisor_file):
    d = divisor_file([2, 1, 0])
    assert main(["vanishing", "cross-validate", "--fan", p2_file,
                 "--divisor", d]) == EXIT_OK


def test_cross_validate_runs_the_direct_check_once(p2_file, divisor_file, capsys,
                                                   monkeypatch):
    import toricbott.certifier as certifier
    import toricbott.danilov as danilov

    calls = []
    original = danilov.verify_vanishing
    for module in (danilov, certifier):
        monkeypatch.setattr(module, "verify_vanishing",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
    d = divisor_file([2, 1, 0])
    assert main(["vanishing", "cross-validate", "--fan", p2_file, "--divisor", d,
                 "--logset", "0"]) == EXIT_OK
    assert len(calls) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["certificate_ok: True", "agree: True"]


def test_cohomology_command(p2_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [2, 0, 0]}))
    assert main(["--format", "machine", "cohomology", "--fan", p2_file,
                 "--spec", str(spec)]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["dims"] == [6, 0, 0]


@pytest.mark.parametrize("field, value", [("logset", {}), ("logset", ""), ("twist", "000")])
def test_cohomology_spec_with_a_string_or_object_for_a_list_is_malformed(
        p2_file, tmp_path, capsys, field, value):
    # {"logset": {}} used to run as D' = {} and exit 0
    raw = {"p": 1, "logset": [], "twist": [0, 0, 0]}
    raw[field] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert main(["cohomology", "--fan", p2_file, "--spec", str(spec)]) == EXIT_MALFORMED
    assert "must come as a list" in capsys.readouterr().err


def test_cohomology_spec_with_float_is_malformed(p2_file, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 1.7, "logset": [0.9], "twist": [0, 0, 1]}))
    assert main(["cohomology", "--fan", p2_file, "--spec", str(spec)]) == EXIT_MALFORMED


def test_cohomology_weights_list_the_cech_support(p2_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 1, "logset": [0], "twist": [0, 0, 1]}))
    assert main(["--format", "machine", "cohomology", "--fan", p2_file, "--spec", str(spec),
                 "--weights"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    result = cech_cohomology(projective_space(2), sheaf_spec(1, [0], (0, 0, 1)))
    assert result.weight_support
    assert data["weight_support"] == [{"weight": list(m), "dims": list(d)}
                                      for m, d in sorted(result.weight_support.items())]
    assert data["dims"] == list(result.dims)


def test_cohomology_checks_the_logset_alike_on_both_routes(p2_file, tmp_path, capsys):
    # the listed weights and the counted totals check D' with one rule
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 1, "logset": [5], "twist": [0, 0, 0]}))
    errors = []
    for weights in ([], ["--weights"]):
        assert main(["cohomology", "--fan", p2_file, "--spec", str(spec),
                     *weights]) == EXIT_MALFORMED
        errors.append(capsys.readouterr().err)
    assert errors == ["error: logset ray index out of range in (5,)\n"] * 2


@pytest.mark.parametrize("options", [["--mode", "box"], ["--box-bound", "6"]])
def test_cohomology_refuses_the_box_options(p2_file, tmp_path, options):
    # the weights are listed from the cells with cohomology alone
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [1, 0, 0]}))
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--fan", p2_file, "--spec", str(spec), *options])
    assert exc.value.code == EXIT_MALFORMED


def test_machine_and_table_contain_same_numbers(p2_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 1, "logset": [], "twist": [0, 0, 0]}))
    main(["--format", "machine", "cohomology", "--fan", p2_file, "--spec", str(spec)])
    machine = json.loads(capsys.readouterr().out)
    main(["--format", "table", "cohomology", "--fan", p2_file, "--spec", str(spec)])
    table = capsys.readouterr().out
    dims_line = next(line for line in table.splitlines() if line.startswith("h ="))
    assert json.loads(dims_line.removeprefix("h = ")) == machine["dims"]
    euler_line = next(line for line in table.splitlines() if line.startswith("euler ="))
    assert int(euler_line.split("=")[1]) == machine["euler"]


def test_engine_fault_exits_internal_not_violation(p2_file, tmp_path, capsys, monkeypatch):
    from toricbott.danilov import _Engine, _engine

    monkeypatch.setattr(_Engine, "pattern_bounded", lambda self, states: False)
    _engine.cache_clear()   # counted dims of an earlier call would answer without the pass
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [2, 0, 0]}))
    assert main(["cohomology", "--fan", p2_file, "--spec", str(spec)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UnboundedCohomologyChamber" in err


def test_cohomology_on_sixteen_maximal_cones(tmp_path, capsys):
    p1 = projective_space(1)
    fan_path = tmp_path / "p1_4.json"
    fan_path.write_text(json.dumps(fan_to_dict(product(product(p1, p1), product(p1, p1)))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [0] * 8}))
    assert main(["--format", "machine", "cohomology", "--fan", str(fan_path),
                 "--spec", str(spec)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 0, 0, 0, 0]


def test_counterexample_degree(capsys):
    assert main(["--format", "machine", "counterexample", "--degree", "8"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["bott_fails"] and data["genus"] == 21


def test_counterexample_scan(capsys):
    assert main(["--format", "machine", "counterexample", "--scan", "1..10"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["minimal_failing_degree"] == 8


def test_counterexample_scan_table(capsys):
    assert main(["counterexample", "--scan", "6..9"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "<- minimal" in out
    lines = out.splitlines()
    assert lines[0].split() == ["d", "e", "deg(w2", "N*)", "genus", "deg", "L", "a.D",
                                "b.D", "rr_bound", "fails"]
    assert lines[3].split() == ["8", "72", "-56", "21", "16", "1", "1", "4", "True",
                                "<-", "minimal"]


def test_counterexample_bad_degree():
    assert main(["counterexample", "--degree", "0"]) == EXIT_MALFORMED


def test_counterexample_inverted_scan_is_malformed(capsys):
    assert main(["counterexample", "--scan", "5..1"]) == EXIT_MALFORMED
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", ["3", "1..2..3", "a..b", ""])
def test_counterexample_scan_names_the_range_form(capsys, text):
    # the message names the form lo..hi and quotes the input, rather than
    # echoing a tuple unpacking or an int() failure
    assert main(["counterexample", "--scan", text]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lo..hi" in captured.err and repr(text) in captured.err


@pytest.mark.parametrize("select, option, value", [("serre", "--bound", "-1"),
                                                   ("serre", "--sample", "-2"),
                                                   ("euler", "--sample", "-2")])
def test_suite_negative_bound_or_sample_is_malformed(capsys, select, option, value):
    assert main(["suite", "--select", select, "--fans", "p1", option, value]) == EXIT_MALFORMED
    assert capsys.readouterr().out == ""


def test_suite_empty_euler_sample_is_malformed(capsys):
    # an empty sample checks nothing; it must not print ok=True and exit 0
    assert main(["suite", "--select", "euler", "--fans", "p1", "--sample", "0"]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert "--sample 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("select, option", [("euler", ["--no-certify"]),
                                            ("serre", ["--no-certify"])])
def test_suite_thm11_options_are_refused_by_other_selections(capsys, select, option):
    assert main(["suite", "--select", select, "--fans", "p1"] + option) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert option[0] in captured.err and captured.out == ""


@pytest.mark.parametrize("select", ["thm11", "serre", "hodge", "euler"])
def test_suite_has_no_jobs_option(capsys, select):
    # the suite runs its fans in one serial loop; argparse refuses the
    # option with the malformed-input code
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--select", select, "--fans", "p1", "--jobs", "2"])
    assert exc.value.code == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert "--jobs" in captured.err and captured.out == ""


@pytest.mark.parametrize("select, option", [("hodge", ["--bound", "9"]),
                                            ("hodge", ["--sample", "7"]),
                                            ("hodge", ["--seed", "3"]),
                                            ("euler", ["--bound", "9"]),
                                            ("thm11", ["--bound", "9"]),
                                            ("thm11", ["--sample", "7"]),
                                            ("thm11", ["--seed", "3"])])
def test_suite_sample_options_are_refused_where_unread(capsys, select, option):
    assert main(["suite", "--select", select, "--fans", "p1"] + option) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert option[0] in captured.err and captured.out == ""


def test_suite_hodge_refuses_every_sample_option(capsys):
    # hodge reads none of them; this call printed ok=True and exited 0
    assert main(["suite", "--select", "hodge", "--fans", "p1", "--bound", "9",
                 "--sample", "7", "--seed", "3"]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("select, defaults", [
    ("serre", ["--bound", "3", "--sample", "25", "--seed", "0"]),
    ("euler", ["--sample", "25", "--seed", "0"]),
])
def test_suite_sample_option_defaults(capsys, select, defaults):
    # an option left out reads as its documented default
    assert main(["--format", "machine", "suite", "--select", select, "--fans", "p1"]) == EXIT_OK
    implicit = capsys.readouterr().out
    assert main(["--format", "machine", "suite", "--select", select, "--fans", "p1"]
                + defaults) == EXIT_OK
    assert capsys.readouterr().out == implicit


@pytest.mark.parametrize("select, options, pattern, keys", [
    ("thm11", ["--fans", "p1,p2", "--no-certify"],
     r"(\w+): (\d+)/(\d+) feasible, verified=(\d+), certified=(\d+), decided=(\d+), "
     r"checked=(\d+), solved=(\d+), ok=(\w+)",
     ("feasible", "instances", "verified", "certified", "decided", "checked", "solved", "ok")),
    ("serre", ["--fans", "p1,p2", "--bound", "1", "--sample", "3"],
     r"(\w+): serre duality failures = (\d+), log serre duality failures = (\d+)",
     ("serre_failures", "log_serre_failures")),
    ("hodge", ["--fans", "p1,p2"], r"(\w+): hodge counts ok=(\w+)", ("ok",)),
    ("euler", ["--fans", "p1,p2", "--sample", "3", "--seed", "7"],
     r"(\w+): euler additivity ok=(\w+)", ("ok",)),
], ids=["thm11", "serre", "hodge", "euler"])
def test_machine_suite_output_carries_the_table_numbers(capsys, select, options, pattern, keys):
    # the machine output is one JSON object with every number the table prints
    code = main(["suite", "--select", select] + options)
    table = [re.fullmatch(pattern, line).groups()
             for line in capsys.readouterr().out.splitlines()]
    assert main(["--format", "machine", "suite", "--select", select] + options) == code
    machine = json.loads(capsys.readouterr().out)
    assert machine["select"] == select
    assert machine["ok"] is (code == EXIT_OK)
    assert [name for name, *_ in table] == list(machine["fans"]) == ["p1", "p2"]
    for name, *values in table:
        assert [str(machine["fans"][name][key]) for key in keys] == values


def test_suite_smoke(capsys):
    assert main(["suite", "--select", "thm11", "--fans", "p1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok=True" in out


def test_suite_serre_smoke(capsys):
    assert main(["suite", "--select", "serre", "--fans", "p1", "--bound", "1",
                 "--sample", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "p1: serre duality failures = 0, log serre duality failures = 0\n")


def test_suite_thm11_prints_each_failure(capsys, monkeypatch):
    import toricbott.suite as suite

    failure = ("verify", (0,), (1, 0), ((0, 1, 1),))
    monkeypatch.setattr(suite, "thm11_sweep", lambda fan, certify: suite.SweepOutcome(
        instances=1, feasible=1, failures=[failure]))
    assert main(["suite", "--select", "thm11", "--fans", "p1"]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines()[1:] == [f"    {failure}"]


def test_machine_suite_output_lists_each_failure(capsys, monkeypatch):
    import toricbott.suite as suite

    failure = ("verify", (0,), (1, 0), ((0, 1, 1),))
    monkeypatch.setattr(suite, "thm11_sweep", lambda fan, certify: suite.SweepOutcome(
        instances=1, feasible=1, failures=[failure]))
    assert main(["--format", "machine", "suite", "--select", "thm11",
                 "--fans", "p1"]) == EXIT_FAIL
    row = json.loads(capsys.readouterr().out)["fans"]["p1"]
    assert row["failures"] == [["verify", [0], [1, 0], [[0, 1, 1]]]]
    assert (row["instances"], row["feasible"], row["verified"], row["ok"]) == (1, 1, 0, False)


def test_suite_serre_exits_1_on_a_wrong_cohomology_entry(capsys, wrong_h0):
    # h^0(O) read as 2 breaks Serre duality with O(K)
    wrong_h0(lambda f, logset, twist: not logset and twist == (0, 0, 0))
    assert main(["suite", "--select", "serre", "--fans", "p2", "--bound", "1",
                 "--sample", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out == (
        "p2: serre duality failures = 2, log serre duality failures = 0\n")


def test_suite_euler_exits_1_on_a_wrong_cohomology_entry(capsys, wrong_h0):
    # one h^0 of the drawn instance's middle term off by one
    import random

    import toricbott.suite as suite

    p2 = suite.suite_fans()["p2"]
    [(_, _, dprime, _, _)] = suite.sample_euler_instances({"p2": p2}, random.Random(0), 1)
    wrong_h0(lambda f, logset, twist: f == p2 and logset == frozenset(dprime))
    assert main(["suite", "--select", "euler", "--fans", "p2", "--sample", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out == "p2: euler additivity ok=False\n"


def test_suite_euler_smoke(capsys):
    assert main(["suite", "--select", "euler", "--fans", "p2", "--sample", "3",
                 "--seed", "7"]) == EXIT_OK


def test_suite_unknown_fan(capsys):
    assert main(["suite", "--select", "thm11", "--fans", "nope"]) == EXIT_MALFORMED


@pytest.mark.parametrize("select", ["thm11", "serre", "hodge", "euler"])
def test_suite_repeated_fan_is_malformed(capsys, select):
    # the rows are keyed by fan, so a second run would hide the first one's
    # result (with a different seeded sample for serre and euler)
    assert main(["suite", "--select", select, "--fans", "p2,p1,p2"]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert "p2" in captured.err and "p1" not in captured.err and captured.out == ""


def test_cohomology_oversize_chamber_is_malformed(p2_file, tmp_path, capsys):
    # listing the chamber of O(3000) on P2 spans 3001^2 weights: a size
    # error, not a fault
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [3000, 0, 0]}))
    assert main(["cohomology", "--fan", p2_file, "--spec", str(spec),
                 "--weights"]) == EXIT_MALFORMED
    assert "weights" in capsys.readouterr().err


def test_cohomology_counts_an_oversize_chamber(p2_file, tmp_path, capsys):
    # without --weights the dims are counted per margin pattern, not listed
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 0, "logset": [], "twist": [3000, 0, 0]}))
    assert main(["cohomology", "--fan", p2_file, "--spec", str(spec)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["h = [4504501, 0, 0]", "euler = 4504501"]
