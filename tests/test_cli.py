import argparse
import json
import os
import random
import re
import subprocess
import sys

import pytest

from derived_brackets.cli import main
from derived_brackets.gla import element_to_json, gla_to_json, sample_gla
from derived_brackets.sampling import fixture_gla, fixture_mc_big, fixture_mc_small


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
        return str(p)

    write("sample_gla.json", gla_to_json(sample_gla()))
    write("fixture_gla.json", gla_to_json(fixture_gla()))
    write("vdata_fixture.json", {"kind": "fixture"})

    rng = random.Random(3)
    phi = fixture_mc_small(rng)
    write("phi_mc.json", {"element": element_to_json(phi)})
    write("phi_bad.json", {"element": [{"coef_num": 1, "coef_den": 1, "basis": "a"}]})
    alpha = fixture_mc_big(rng)
    write("alpha.json", {"x": element_to_json(alpha.x), "a": element_to_json(alpha.a)})
    write("alpha_bad.json", {"x": [], "a": [{"coef_num": 1, "coef_den": 1, "basis": "a"}]})
    write("arg_a.json", {"element": [{"coef_num": 1, "coef_den": 1, "basis": "a"}]})

    corrupted = gla_to_json(sample_gla())
    corrupted["brackets"].append(
        {"left": "e", "right": "h", "result": [{"coef_num": 1, "coef_den": 1, "basis": "e"}]}
    )
    write("bad_gla.json", corrupted)

    write(
        "tpois.json",
        {
            "H": {"dims": {"base": 3}, "terms": [{"coef": 1, "monomial": {}, "wedge": [1, 2, 3]}]},
            "pi": {"dims": {"base": 3}, "terms": [{"coef": 1, "monomial": {}, "wedge": [1, 2]}]},
            "B": {"dims": {"base": 3}, "terms": [{"coef": 2, "monomial": {"x3": 1}, "wedge": [2, 3]}]},
            "X": {"dims": {"base": 3}, "terms": [{"coef": 1, "monomial": {}, "wedge": [1]}]},
        },
    )
    write(
        "vdata_coiso.json",
        {
            "kind": "coisotropic",
            "pi": {"dims": {"base": 1, "fiber": 2}, "terms": [{"coef": 1, "monomial": {}, "wedge": [1, 2]}]},
        },
    )
    write(
        "coiso_phi.json",
        {"element": {"dims": {"base": 1, "fiber": 2},
                     "terms": [{"coef": 2, "monomial": {"x1": 1}, "wedge": [2]}]}},
    )

    bad = tmp_path / "malformed.json"
    bad.write_text("{ not json")
    paths["malformed.json"] = str(bad)
    return paths


def test_verify_gla_exit_codes(files, capsys):
    assert main(["verify-gla", files["sample_gla.json"]]) == 0
    assert main(["verify-gla", files["bad_gla.json"]]) == 1
    assert main(["verify-gla", files["malformed.json"]]) == 2
    capsys.readouterr()


def test_mc_exit_codes(files, capsys):
    assert main(["mc", files["vdata_fixture.json"], files["phi_mc.json"]]) == 0
    assert main(["mc", files["vdata_fixture.json"], files["phi_bad.json"]]) == 1
    assert main(["mc", files["vdata_fixture.json"], files["alpha.json"]]) == 0
    capsys.readouterr()


def test_mc_reports_termination(files, capsys):
    assert main(["--json", "mc", files["vdata_fixture.json"], files["phi_mc.json"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["terminated_by"] == "filtration"
    assert out["flat"] is True


def test_mc_on_a_curved_gla_quadruple_reports_its_curvature(tmp_path, capsys):
    # Delta = e lies in the subalgebra, so P(Delta) = e is the curvature; the
    # descriptor says nothing about it, and a "curved" key is not read
    desc = {
        "kind": "gla",
        "gla": {"basis": [{"name": "e", "degree": 1}, {"name": "f", "degree": 0}]},
        "a_basis": ["e", "f"],
        "delta": [{"coef_num": 1, "basis": "e"}],
        "filtration": {"e": 1, "f": 1},
    }
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"element": [{"coef_num": 2, "basis": "f"}]}))
    for flag in ({}, {"curved": False}):
        vdata = tmp_path / "vdata_curved.json"
        vdata.write_text(json.dumps({**desc, **flag}))
        assert main(["--json", "mc", str(vdata), str(element)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] == [{"basis": "e", "coef_den": 1, "coef_num": 1}]
        assert out["flat"] is False


def test_derived_small_bracket(files, capsys):
    code = main(
        ["--json", "derived", files["vdata_fixture.json"],
         "--arg", files["arg_a.json"], "--arg", files["arg_a.json"]]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["arity"] == 2
    assert out["value"] == [{"basis": "b", "coef_den": 1, "coef_num": 1}]


def test_derived_zero_delta_small(files, tmp_path, capsys):
    # a quadruple with zero structure element: every small bracket vanishes
    desc = {
        "kind": "gla",
        "gla_file": files["fixture_gla.json"],
        "a_basis": ["a", "c", "b"],
        "delta": [],
    }
    p = tmp_path / "vdata_zero.json"
    p.write_text(json.dumps(desc))
    code = main(["--json", "derived", str(p), "--arg", files["arg_a.json"]])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == []


def test_twist_exit_codes(files, capsys):
    assert main(["twist", files["vdata_fixture.json"], files["alpha.json"]]) == 0
    assert main(["twist", files["vdata_fixture.json"], files["alpha_bad.json"]]) == 1
    capsys.readouterr()


def test_gauge_and_flow(files, capsys):
    assert main(["--json", "gauge", files["tpois.json"], "--check-series"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matches_series"] is True
    assert main(["--json", "flow", files["tpois.json"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ode_satisfied"] is True
    assert payload["denominator"] == [[0, 1]]


def test_coiso_backend_through_cli(files, capsys):
    assert main(["mc", files["vdata_coiso.json"], files["coiso_phi.json"]]) == 0
    capsys.readouterr()


def test_suite_determinism(files, capsys):
    argv = ["--json", "suite", "truc", "--seed", "7", "--samples", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"] is True and report["seed"] == 7


def test_suite_runs_all_names(files, capsys):
    for name in ("oracle", "gauge"):
        assert main(["suite", name, "--samples", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("samples", [1, 3, 5])
def test_suite_flow_runs_the_requested_number_of_curves(samples, capsys):
    assert main(["--json", "suite", "flow", "--seed", "1", "--samples", str(samples)]) == 0
    report = json.loads(capsys.readouterr().out)
    # ceil(N/2) curves with a zero flow direction carry four checks each,
    # floor(N/2) with a random direction three each
    assert report["samples"] == samples
    assert report["checks"] == 4 * ((samples + 1) // 2) + 3 * (samples // 2)


@pytest.mark.parametrize("name", ["machine", "jacobi"])
def test_suite_runs_exactly_the_requested_samples(name, capsys):
    # every setting draws --samples inputs, with no floor under small counts
    checks = {}
    for samples in (1, 4):
        assert main(["--json", "suite", name, "--seed", "1", "--samples", str(samples)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == samples
        checks[samples] = report["checks"]
    assert checks[4] == 4 * checks[1]


def test_unknown_vdata_kind(tmp_path, capsys):
    p = tmp_path / "vd.json"
    p.write_text(json.dumps({"kind": "mystery"}))
    assert main(["mc", str(p), str(p)]) == 2
    capsys.readouterr()


def _assert_zero_denominator_input_error(capsys, coefficient):
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "zero denominator" in err and coefficient in err


def test_gla_file_with_zero_denominator_is_an_input_error(tmp_path, capsys):
    data = gla_to_json(sample_gla())
    data["brackets"][0]["result"][0]["coef_den"] = 0
    p = tmp_path / "gla.json"
    p.write_text(json.dumps(data))
    assert main(["verify-gla", str(p)]) == 2
    _assert_zero_denominator_input_error(capsys, "1/0 of 'e'")


def test_mc_element_with_zero_denominator_is_an_input_error(files, tmp_path, capsys):
    p = tmp_path / "phi.json"
    p.write_text(json.dumps({"element": [{"coef_num": 2, "coef_den": 0, "basis": "a"}]}))
    assert main(["mc", files["vdata_fixture.json"], str(p)]) == 2
    _assert_zero_denominator_input_error(capsys, "2/0 of 'a'")


@pytest.mark.parametrize(
    "field, value",
    [("coef_num", 1.5), ("coef_num", 0.5), ("coef_den", 2.0), ("coef_num", True),
     ("coef_num", "1"), ("degree", 0.7), ("degree", False), ("filtration degree", 1.9)],
)
def test_gla_file_with_non_integer_number_is_an_input_error(field, value, tmp_path, capsys):
    # [h, e] = 1.5 e would otherwise load as [h, e] = e, and 0.5 e as 0; a
    # descriptor's filtration degree 1.9 would load as 1
    if field == "filtration degree":
        with open(_data("vdata_gla_unfiltered.json"), encoding="utf-8") as fh:
            desc = json.load(fh)
        desc["filtration"] = {b["name"]: value for b in desc["gla"]["basis"]}
        p = tmp_path / "vdata.json"
        p.write_text(json.dumps(desc))
        argv = ["--json", "mc", str(p), _data("alpha_mc.json")]
    else:
        data = gla_to_json(sample_gla())
        if field == "degree":
            data["basis"][0][field] = value
        else:
            data["brackets"][0]["result"][0][field] = value
        p = tmp_path / "gla.json"
        p.write_text(json.dumps(data))
        argv = ["--json", "verify-gla", str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert f"{field} of " in err and "must be an integer" in err and repr(value) in err


@pytest.mark.parametrize("command, coef", [("flow", "1/0"), ("gauge", [1, 0])])
def test_polynomial_literal_with_zero_denominator_is_an_input_error(
    command, coef, tmp_path, capsys
):
    pi = {"dims": {"base": 3}, "terms": [{"coef": coef, "monomial": {}, "wedge": [1, 2]}]}
    h = {"dims": {"base": 3}, "terms": [{"coef": 1, "monomial": {}, "wedge": [1, 2, 3]}]}
    p = tmp_path / "point.json"
    p.write_text(json.dumps({"H": h, "pi": pi}))
    assert main([command, str(p)]) == 2
    _assert_zero_denominator_input_error(capsys, repr(coef))


@pytest.mark.parametrize(
    "part, field, value, bad",
    [("pi", "monomial", {"x3": 1.5}, 1.5), ("pi", "wedge", [1, 2.7], 2.7),
     ("H", "wedge", [1, "2", 3], "2"), ("B", "monomial", {"x1": True}, True),
     ("X", "dims", 3.0, 3.0), ("pi", "coef", [1.5, 2], 1.5), ("pi", "coef", [1, 2.0], 2.0),
     ("pi", "coef", True, True)],
)
def test_polynomial_literal_with_non_integer_number_is_an_input_error(
    part, field, value, bad, tmp_path, capsys
):
    # pi = x3^1.5 d1^d2 would otherwise load as x3 d1^d2, d1^d2.7 as d1^d2,
    # a coefficient [1.5, 2] as 1/2 and a coefficient true as 1
    with open(_data("tpois_gauge.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if field == "dims":
        data[part]["dims"]["base"] = value
    else:
        data[part]["terms"][0][field] = value
    p = tmp_path / "gauge.json"
    p.write_text(json.dumps(data))
    assert main(["--json", "gauge", str(p)]) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    if field == "coef":
        assert f"coefficient {value!r}" in err and repr(bad) in err
        return
    name = {"monomial": "exponent of 'x", "wedge": "wedge index", "dims": "dims.base"}[field]
    assert name in err and "must be an integer" in err and repr(bad) in err


@pytest.mark.parametrize("name", ["", "x01", "x1.5", "x4", "p1"])
def test_polynomial_literal_with_unknown_variable_is_an_input_error(name, tmp_path, capsys):
    # on R^3 the variables are x1, x2, x3: an empty name used to crash with an
    # IndexError, and x01 loaded as x1
    with open(_data("tpois_gauge.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["pi"]["terms"][0]["monomial"] = {name: 1}
    p = tmp_path / "gauge.json"
    p.write_text(json.dumps(data))
    assert main(["--json", "gauge", str(p)]) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert f"unknown variable {name!r}" in err


@pytest.mark.parametrize(
    "field, value, message",
    [("monomial", [1], "monomial must be an object, got [1]"),
     ("monomial", 5, "monomial must be an object, got 5"),
     ("monomial", None, "monomial must be an object, got None"),
     ("terms", [5], "term must be an object, got 5"),
     ("terms", {"a": 1}, "terms must be a list, got {'a': 1}"),
     ("dims", [3], "dims must be an object, got [3]"),
     ("wedge", 5, "wedge must be a list, got 5")],
)
def test_polynomial_literal_with_wrong_container_is_an_input_error(
    field, value, message, tmp_path, capsys
):
    # the first five used to crash with an AttributeError traceback and exit 1
    with open(_data("tpois_gauge.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if field in ("terms", "dims"):
        data["pi"][field] = value
    else:
        data["pi"]["terms"][0][field] = value
    p = tmp_path / "gauge.json"
    p.write_text(json.dumps(data))
    assert main(["--json", "gauge", str(p)]) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert message in err


def _dbrack(argv, **env_vars):
    """Run ``dbrack argv`` in a new process, which imports the package from
    where this process found it, with ``env_vars`` added to its environment."""
    import derived_brackets

    src = os.path.dirname(os.path.dirname(os.path.abspath(derived_brackets.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "derived_brackets.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_entry_point_runs():
    result = _dbrack(["suite", "truc", "--samples", "2"])
    assert result.returncode == 0
    assert "PASS" in result.stdout


def _assert_one_line(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


def _assert_resource_limit(capsys):
    _assert_one_line(capsys.readouterr().err, "resource limit: ")


def test_term_cap_exits_with_resource_limit():
    # the cap is read once per process, so it is set before the process starts
    result = _dbrack(["--json", "suite", "gauge", "--samples", "1"], DB_MAX_TERMS="1")
    assert result.returncode == 3
    _assert_one_line(result.stderr, "resource limit: ")


def test_malformed_term_cap_is_an_input_error():
    result = _dbrack(["--json", "suite", "gauge", "--samples", "1"], DB_MAX_TERMS="abc")
    assert result.returncode == 2
    _assert_one_line(result.stderr, "input error: ")
    assert "DB_MAX_TERMS" in result.stderr and "'abc'" in result.stderr


def test_violated_series_bound_exits_with_resource_limit(files, tmp_path, capsys):
    # the fixture as a "gla" quadruple whose filtration contradicts the bracket:
    # u in F^2, yet [u, a] = v + b has a part in F^1.  The depth it gives is
    # too small, and the series' certificate term catches that.
    desc = {
        "kind": "gla",
        "gla_file": files["fixture_gla.json"],
        "a_basis": ["a", "c", "b"],
        "delta": [{"coef_num": 1, "coef_den": 1, "basis": "u"}],
        "filtration": {"a": 1, "c": 1, "b": 2, "u": 2, "v": 1, "w": 2},
    }
    vdata = tmp_path / "vdata_bound0.json"
    vdata.write_text(json.dumps(desc))
    with open(_data("alpha_mc.json"), encoding="utf-8") as fh:
        alpha = json.load(fh)
    alpha["a"] = [{"coef_num": -2, "coef_den": 1, "basis": "a"}]
    alpha_path = tmp_path / "alpha.json"
    alpha_path.write_text(json.dumps(alpha))
    assert main(["twist", str(vdata), str(alpha_path)]) == 3
    _assert_resource_limit(capsys)


def _non_nilpotent_quadruple(tmp_path):
    """A "gla" quadruple whose chains from Delta never vanish: h of degree 0
    spans the subalgebra, e of degree 1, [e, h] = e and Delta = e.  Returns
    the paths of the quadruple, of h as an element and of h as a pair."""
    h = [{"coef_num": 1, "coef_den": 1, "basis": "h"}]
    e = [{"coef_num": 1, "coef_den": 1, "basis": "e"}]
    desc = {
        "kind": "gla",
        "gla": {"basis": [{"name": "h", "degree": 0}, {"name": "e", "degree": 1}],
                "brackets": [{"left": "e", "right": "h", "result": e}]},
        "a_basis": ["h"],
        "delta": e,
    }
    paths = []
    for name, payload in (("vdata.json", desc), ("h.json", {"element": h}),
                          ("pair_h.json", {"x": [], "a": h})):
        (tmp_path / name).write_text(json.dumps(payload))
        paths.append(str(tmp_path / name))
    return paths


def test_uncertified_mc_exits_with_resource_limit(tmp_path, capsys):
    # a "gla" quadruple without a filtration gets the depth computed from its
    # table.  The fixture's table decides every series exactly as its
    # declared filtration does: the same report and exit code.
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"element": [{"coef_num": 1, "coef_den": 1, "basis": "a"}]}))
    for path, code in ((_data("alpha_mc.json"), 0), (_data("pair_not_mc.json"), 1),
                       (str(element), 1)):
        assert main(["--json", "mc", _data("vdata_fixture.json"), path]) == code
        expected = capsys.readouterr().out
        assert json.loads(expected)["terminated_by"] == "filtration"
        assert main(["--json", "mc", _data("vdata_gla_unfiltered.json"), path]) == code
        assert capsys.readouterr().out == expected
    # where the chains from Delta never vanish, no series is certified
    vdata, h, pair_h = _non_nilpotent_quadruple(tmp_path)
    for path in (h, pair_h):
        assert main(["--json", "mc", vdata, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_line(captured.err, "resource limit: ")


def test_twist_with_uncertified_mc_check_exits_with_resource_limit(tmp_path, capsys):
    # the unfiltered fixture twists exactly as the filtered one
    for path, code in ((_data("alpha_mc.json"), 0), (_data("pair_not_mc.json"), 1)):
        assert main(["--json", "twist", _data("vdata_fixture.json"), path]) == code
        expected = capsys.readouterr().out
        assert main(["--json", "twist", _data("vdata_gla_unfiltered.json"), path]) == code
        assert capsys.readouterr().out == expected
    # twisting needs a certified Maurer-Cartan check, which a quadruple whose
    # chains never vanish cannot give
    vdata, _h, pair_h = _non_nilpotent_quadruple(tmp_path)
    assert main(["--json", "twist", vdata, pair_h]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line(captured.err, "resource limit: ")


def test_derived_on_a_non_nilpotent_quadruple_evaluates(tmp_path, capsys):
    # building an algebra evaluates no depth, so brackets stay available
    vdata, h, _pair_h = _non_nilpotent_quadruple(tmp_path)
    assert main(["--json", "derived", vdata, "--arg", h, "--arg", h]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"arity": 2, "value": []}
    assert captured.err == ""
    # m_1(h[1]) = (-[Delta, h][1], P h) = (-e[1], h)
    x_h = tmp_path / "x_h.json"
    x_h.write_text(json.dumps({"x": [{"coef_num": 1, "coef_den": 1, "basis": "h"}]}))
    assert main(["--json", "derived", vdata, "--big", "--arg", str(x_h)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == {
        "x": [{"basis": "e", "coef_den": 1, "coef_num": -1}],
        "a": [{"basis": "h", "coef_den": 1, "coef_num": 1}]}


def test_mc_big_wraps_a_subalgebra_element(files, capsys):
    # the element a is the pair (0, a) of the big algebra; it used to end in
    # an AttributeError traceback
    assert main(["--json", "mc", files["vdata_fixture.json"], files["phi_bad.json"], "--big"]) == 1
    wrapped = capsys.readouterr().out
    assert main(["--json", "mc", files["vdata_fixture.json"], files["alpha_bad.json"]]) == 1
    assert wrapped == capsys.readouterr().out
    assert json.loads(wrapped)["residual"]["a"] == [{"basis": "b", "coef_den": 2, "coef_num": 3}]


def _not_an_object(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    gla_file = tmp_path / "vdata_gla_file.json"
    gla_file.write_text(json.dumps({"kind": "gla", "gla_file": str(listed), "a_basis": [],
                                    "delta": []}))
    return str(listed), str(gla_file)


@pytest.mark.parametrize(
    "argv",
    [["verify-gla", "LIST"],
     ["derived", "LIST"],
     ["derived", "FIXTURE", "--arg", "LIST"],
     ["derived", "GLA_FILE"],
     ["mc", "LIST", "ALPHA"],
     ["mc", "FIXTURE", "LIST"],
     ["twist", "LIST", "ALPHA"],
     ["twist", "FIXTURE", "LIST"],
     ["gauge", "LIST"],
     ["flow", "LIST"]],
    ids="_".join,
)
def test_non_object_json_file_is_an_input_error(argv, files, tmp_path, capsys):
    # a top-level [1, 2] used to end in an AttributeError traceback (exit 1)
    listed, gla_file = _not_an_object(tmp_path)
    names = {"LIST": listed, "GLA_FILE": gla_file, "FIXTURE": files["vdata_fixture.json"],
             "ALPHA": files["alpha.json"]}
    assert main([names.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    _assert_one_line(captured.err, "input error: ")
    assert f"{listed} must hold a JSON object, got list" in captured.err


_DROP = object()  # a field to delete


@pytest.mark.parametrize(
    "base, changes, message",
    [("vdata_gla_unfiltered.json", {"gla": [1, 2]}, 'field "gla" must be an object, got [1, 2]'),
     ("vdata_gla_unfiltered.json", {"gla": _DROP, "gla_file": 5},
      'field "gla_file" must be a string, got 5'),
     ("vdata_gla_unfiltered.json", {"a_basis": "abc"}, "field \"a_basis\" must be a list, got 'abc'"),
     ("vdata_gla_unfiltered.json", {"a_basis": ["a", 1]},
      'entry of field "a_basis" must be a string, got 1'),
     ("vdata_gla_unfiltered.json", {"projection": [1]},
      'field "projection" must be an object, got [1]'),
     ("vdata_gla_unfiltered.json", {"filtration": [1]},
      'field "filtration" must be an object, got [1]'),
     ("vdata_gla_unfiltered.json", {"delta": _DROP}, 'missing field "delta"'),
     ("vdata_gla_unfiltered.json", {"gla": _DROP}, 'missing field "gla_file"'),
     ("vdata_coiso.json", {"pi": _DROP}, 'missing field "pi"'),
     ("tpois_gauge.json", {"H": _DROP}, 'missing field "H"'),
     ("tpois_gauge.json", {"pi": _DROP}, 'missing field "pi"')],
    ids=["gla-list", "gla_file-int", "a_basis-str", "a_basis-entry", "projection-list",
         "filtration-list", "no-delta", "no-gla", "coiso-no-pi", "point-no-H", "point-no-pi"],
)
def test_malformed_descriptor_field_is_an_input_error(base, changes, message, tmp_path, capsys):
    # these used to print a bare KeyError ('delta'), or a message naming no
    # field, such as "list indices must be integers or slices, not str"
    with open(_data(base), encoding="utf-8") as fh:
        data = json.load(fh)
    for key, value in changes.items():
        if value is _DROP:
            del data[key]
        else:
            data[key] = value
    p = tmp_path / base
    p.write_text(json.dumps(data))
    argv = ["gauge", str(p)] if base.startswith("tpois") else ["mc", str(p), _data("alpha_mc.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert f"{p}: {message}" in err


@pytest.mark.parametrize(
    "vdata, payload, message",
    [(None, {"brackets": []}, 'missing field "basis"'),
     ("vdata_fixture.json", {"element": [1]}, 'field "element", term 1 must be an object, got 1'),
     ("vdata_fixture.json", {"x": 5}, 'field "x" must be a list, got 5'),
     ("vdata_fixture.json", {"y": []}, 'missing field "element"'),
     ("vdata_coiso.json", {"x": 5}, 'field "x" must be an object, got 5')],
    ids=["gla-no-basis", "element-entry-int", "x-int", "no-element", "coiso-x-int"],
)
def test_malformed_element_or_table_is_an_input_error(vdata, payload, message, tmp_path, capsys):
    # the first three used to print "input error: 'basis'", "'int' object is
    # not subscriptable" and "'int' object is not iterable", naming no file;
    # verify-gla reads the payload as a table, mc as an element file
    p = tmp_path / "payload.json"
    p.write_text(json.dumps(payload))
    argv = ["verify-gla", str(p)] if vdata is None else ["mc", _data(vdata), str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert f"{p}: {message}" in err


def test_bracket_pair_listed_twice_is_an_input_error(tmp_path, capsys):
    # the two entries used to be added up: [h, e] = 2e and verify-gla passed
    table = gla_to_json(sample_gla())
    assert [(b["left"], b["right"]) for b in table["brackets"]] == [("h", "e")]
    table["brackets"].append(table["brackets"][0])
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(table))
    assert main(["--json", "verify-gla", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line(captured.err, "input error: ")
    assert f"{p}, bracket entry 2: [h, e] is already given by bracket entry 1" in captured.err


_COISO_DIMS = {"base": 1, "fiber": 2}


@pytest.mark.parametrize(
    "command, payload, message",
    [("mc", {"element": {"dims": _COISO_DIMS, "terms": 5}},
      'field "element": terms must be a list, got 5'),
     ("mc", {"element": {"terms": []}}, 'field "element": missing field "dims"'),
     ("mc", {"element": {"dims": _COISO_DIMS, "terms": [{"coef": 1, "wedge": [0]}]}},
      'field "element", term 1: wedge index 0 outside 1..3'),
     ("mc", {"x": {"dims": _COISO_DIMS, "terms": [{"monomial": {"p1": -1}}]}},
      'field "x", term 1: exponent of \'p1\' is negative, got -1'),
     ("mc", {"a": {"dims": {"base": -1, "fiber": 2}}},
      'field "a": dims must not be negative, got (-1, 2)'),
     ("gauge", {"B": []}, 'field "B" must be an object, got []')],
    ids=["terms-int", "no-dims", "wedge-0", "negative-exponent", "negative-dims",
         "point-B-list"],
)
def test_malformed_polynomial_literal_names_its_file_and_field(
    command, payload, message, tmp_path, capsys
):
    # the first three used to print "terms must be a list, got 5", "'dims'" and
    # "wedge (-1,) not strictly increasing in range", naming neither the file
    # nor the field; a twisted-Poisson point's B and X were read unchecked
    if command == "gauge":
        with open(_data("tpois_gauge.json"), encoding="utf-8") as fh:
            payload = {**json.load(fh), **payload}
    p = tmp_path / "literal.json"
    p.write_text(json.dumps(payload))
    argv = ["mc", _data("vdata_coiso.json"), str(p)] if command == "mc" else [command, str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_one_line(err, "input error: ")
    assert f"input error: {p}: {message}\n" == err


@pytest.mark.parametrize(
    "command, payload, message",
    [("mc", {"element": {"dims": {"base": 2, "fiber": 2}, "terms": [{"coef": 1, "wedge": [3]}]}},
      'field "element": dims (2, 2) do not match (1, 2) of the quadruple'),
     ("mc", {"x": {"dims": {"base": 1, "fiber": 3}, "terms": []}},
      'field "x": dims (1, 3) do not match (1, 2) of the quadruple'),
     ("mc", {"a": {"dims": {"base": 2, "fiber": 2}, "terms": []}},
      'field "a": dims (2, 2) do not match (1, 2) of the quadruple'),
     ("gauge", {"B": {"dims": {"base": 4}, "terms": []}},
      'field "B": dims (4, 0) do not match (3, 0) of field "pi"'),
     ("flow", {"B": {"dims": {"base": 4}, "terms": []}},
      'field "B": dims (4, 0) do not match (3, 0) of field "pi"'),
     ("flow", {"H": {"dims": {"base": 2}, "terms": []}},
      'field "H": dims (2, 0) do not match (3, 0) of field "pi"'),
     ("gauge", {"X": {"dims": {"base": 3, "fiber": 1}, "terms": []}},
      'field "X": dims (3, 1) do not match (3, 0) of field "pi"'),
     ("gauge", {"pi": {"dims": {"base": 3, "fiber": 1}, "terms": []}},
      'field "pi": a point lives on a plain base, got dims (3, 1)')],
    ids=["coiso-element", "coiso-x", "coiso-a", "gauge-B", "flow-B", "flow-H", "gauge-X",
         "pi-fiber"],
)
def test_polynomial_literal_with_other_dims_names_its_file_and_field(
    command, payload, message, tmp_path, capsys
):
    # these used to print "input error: multivector ambient space mismatch"
    # or "form ambient space mismatch", naming neither the file nor the field
    if command != "mc":
        with open(_data("tpois_gauge.json"), encoding="utf-8") as fh:
            payload = {**json.load(fh), **payload}
    p = tmp_path / "literal.json"
    p.write_text(json.dumps(payload))
    argv = ["mc", _data("vdata_coiso.json"), str(p)] if command == "mc" else [command, str(p)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    _assert_one_line(captured.err, "input error: ")
    assert f"input error: {p}: {message}\n" == captured.err
    assert captured.out == ""


def test_maurer_cartan_input_outside_f1_is_an_input_error(tmp_path, capsys):
    # the fixture's table with a filtration that puts the degree-0 subalgebra
    # element a in F^0: the depth of a filtration needs inserted elements in F^1
    with open(_data("vdata_gla_unfiltered.json"), encoding="utf-8") as fh:
        desc = json.load(fh)
    desc["filtration"] = {"a": 0, "c": 1, "b": 1, "u": 1, "v": 1, "w": 2}
    vdata = tmp_path / "vdata_f0.json"
    vdata.write_text(json.dumps(desc))
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"element": [{"coef_num": 1, "coef_den": 1, "basis": "a"}]}))
    for path in (_data("alpha_mc.json"), str(element)):
        assert main(["mc", str(vdata), path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_line(captured.err, "input error: ")
        assert captured.err == (
            "input error: Maurer-Cartan input must have filtration degree >= 1, got 0\n"
        )


def test_element_payload_shapes():
    from derived_brackets.cli import _element_payload
    from derived_brackets.polygeo import element_to_json as poly_to_json, form, mv
    from derived_brackets.sampling import fixture_vdata
    from derived_brackets.tpois import TPoisElement
    from derived_brackets.vdata import BigElt

    space = fixture_vdata().zero.space
    pair = BigElt(space.gen("u"), space.gen("a", 2))
    assert _element_payload(pair) == {
        "x": element_to_json(space.gen("u")),
        "a": element_to_json(space.gen("a", 2)),
    }
    h, u = form((2, 0), 1, None, (0, 1)), mv((2, 0), 3, (1, 0), (1,))
    assert _element_payload(TPoisElement(h, u)) == {
        "form": poly_to_json(h),
        "mv": poly_to_json(u),
    }


def test_run_config_invariants():
    from derived_brackets.sampling import RunConfig

    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(max_arity=7)
    for max_arity in (0, 5):
        with pytest.raises(ValueError, match="max_arity must be between 1 and 4"):
            RunConfig(max_arity=max_arity)
    with pytest.raises(ValueError):
        RunConfig(max_poly_degree=9)
    for degree in (-1, 7):
        message = rf"max_poly_degree \(--max-degree\) must be between 0 and 6, got {degree}"
        with pytest.raises(ValueError, match=message):
            RunConfig(max_poly_degree=degree)
    assert RunConfig(max_poly_degree=0).max_poly_degree == 0


@pytest.mark.parametrize("max_arity", ["5", "0"])
def test_max_arity_outside_what_the_suites_run_is_an_input_error(max_arity, capsys):
    # suites ran arities up to 4 whatever --max-arity said, up to 6, and
    # none at all for 0, reporting a pass with no checks
    assert main(["suite", "jacobi", "--max-arity", max_arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line(
        captured.err, f"input error: max_arity must be between 1 and 4, got {max_arity}"
    )


def test_suite_rejects_removed_max_terms_flag(capsys):
    # the flag is gone from every subcommand; mc and twist once had it
    for argv in (["suite", "truc", "--samples", "2"],
                 ["mc", _data("vdata_fixture.json"), _data("alpha_mc.json")],
                 ["twist", _data("vdata_fixture.json"), _data("alpha_mc.json")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-terms", "5"])
        assert exc.value.code == 2
        assert "--max-terms" in capsys.readouterr().err


# -- golden output ------------------------------------------------------------------
#
# tests/data/golden/NAME.json holds the exact --json output of each command on
# the fixed inputs in tests/data/, recorded with the full L[1]/a pattern
# enumeration of the big algebra and with separate static and t-dependent
# graph transforms in tpois.

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _data(name):
    return os.path.join(DATA, name)


GOLDEN = {
    "derived_big_2": (0, ["derived", _data("vdata_fixture.json"), "--big",
                          "--arg", _data("pair_p.json"), "--arg", _data("pair_q.json")]),
    "derived_big_3": (0, ["derived", _data("vdata_fixture.json"), "--big",
                          "--arg", _data("pair_p.json"), "--arg", _data("pair_q.json"),
                          "--arg", _data("pair_p.json")]),
    "mc_big_flat": (0, ["mc", _data("vdata_fixture.json"), _data("alpha_mc.json"), "--big"]),
    "mc_big_not_flat": (1, ["mc", _data("vdata_fixture.json"), _data("pair_not_mc.json"),
                            "--big"]),
    "mc_big_coiso": (1, ["mc", _data("vdata_coiso.json"), _data("coiso_pair.json"), "--big"]),
    "twist": (0, ["twist", _data("vdata_fixture.json"), _data("alpha_mc.json")]),
    "suite_machine": (0, ["suite", "machine", "--seed", "1", "--samples", "5"]),
    "suite_jacobi": (0, ["suite", "jacobi", "--seed", "1", "--samples", "5"]),
    "flow": (0, ["flow", _data("tpois_flow.json")]),
    "gauge_check_series": (0, ["gauge", _data("tpois_gauge.json"), "--check-series"]),
    "suite_flow": (0, ["suite", "flow", "--seed", "1", "--samples", "5"]),
    "suite_gauge": (0, ["suite", "gauge", "--seed", "1", "--samples", "5"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden(name, capsys):
    code, argv = GOLDEN[name]
    assert main(["--json"] + argv) == code
    with open(os.path.join(DATA, "golden", f"{name}.json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected


# -- help and usage -----------------------------------------------------------------

COMMAND_HELP = {
    "verify-gla": "validate a structure-constant algebra file",
    "derived": "evaluate one derived bracket",
    "mc": "Maurer-Cartan residual of an element",
    "twist": "twist a quadruple by a Maurer-Cartan pair",
    "gauge": "gauge vector field at a twisted-Poisson point",
    "flow": "symbolic flow curve through a twisted-Poisson point",
    "suite": "run a named property suite",
}


def _help_of(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command(monkeypatch, capsys):
    out = _help_of(["--help"], monkeypatch, capsys)
    assert out.startswith("usage: dbrack ")
    for name, line in COMMAND_HELP.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(line)}$", out, re.MULTILINE), name


@pytest.mark.parametrize("name", sorted(COMMAND_HELP))
def test_command_help_matches_recorded_text(name, monkeypatch, capsys):
    # tests/data/help/NAME.txt is the output of `dbrack NAME --help` at 80
    # columns: the usage, arguments, defaults and options of each command
    with open(os.path.join(DATA, "help", f"{name}.txt"), encoding="utf-8") as fh:
        expected = fh.read()
    assert _help_of([name, "--help"], monkeypatch, capsys) == expected
    assert _help_of(["--json", name, "--help"], monkeypatch, capsys) == expected


@pytest.mark.parametrize(
    "argv", [[], ["nope"], ["derived", "--json", "VDATA"]],
    ids=["none", "unknown", "json-after-command"],
)
def test_usage_errors_exit_2(argv, capsys):
    argv = [_data("vdata_fixture.json") if a == "VDATA" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dbrack ") and "error: " in captured.err


def test_usage_error_through_the_module_entry_point():
    result = _dbrack(["nope"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: dbrack ") and "invalid choice: 'nope'" in result.stderr


def test_each_call_builds_its_own_parsers(monkeypatch, capsys):
    # a real dbrack builds its parsers once per process, so no call may reuse
    # another's; and a call builds no parser for a command it does not run
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["--json", "mc", _data("vdata_fixture.json"), _data("alpha_mc.json")],
                 ["--json", "mc", _data("vdata_fixture.json"), _data("alpha_mc.json")],
                 ["verify-gla", _data("vdata_fixture.json")]):
        before = len(built)
        main(argv)
        assert 1 <= len(built) - before <= 2, built[before:]
    capsys.readouterr()


# -- the remaining branches of each command --------------------------------------------


def _written(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


_BARE_COISO = {"dims": {"base": 1, "fiber": 2},
               "terms": [{"coef": 2, "monomial": {"x1": 1}, "wedge": [2]}]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derived", "@vdata_fixture.json", "--arg", "@pair_p.json"],
         "input error: the small algebra takes subalgebra elements only"),
        (["twist", "@vdata_fixture.json", "ELEMENT"],
         'input error: twisting elements are pairs {"x": .., "a": ..}'),
        (["mc", "@vdata_coiso.json", "BARE"],
         "input error: BARE: dims (2, 2) do not match (1, 2) of the quadruple"),
        (["suite", "jacobi", "--max-degree", "-2", "--samples", "1"],
         "input error: max_poly_degree (--max-degree) must be between 0 and 6, got -2"),
        (["suite", "gauge", "--max-degree", "7", "--samples", "1"],
         "input error: max_poly_degree (--max-degree) must be between 0 and 6, got 7"),
    ],
    ids=["small-derived-of-a-pair", "twist-by-an-element", "coiso-bare-literal-dims",
         "negative-max-degree", "max-degree-above-6"],
)
def test_input_error_branches(argv, message, tmp_path, capsys):
    named = {
        "ELEMENT": _written(tmp_path, "element.json", {"element": []}),
        "BARE": _written(tmp_path, "bare.json", {**_BARE_COISO, "dims": {"base": 2, "fiber": 2}}),
    }
    argv = [_data(a[1:]) if a.startswith("@") else named.get(a, a) for a in argv]
    assert main(["--json"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line(captured.err, "input error: ")
    for name, path in named.items():
        message = message.replace(name, path)
    assert captured.err == message + "\n"


def test_coiso_element_file_may_be_a_bare_literal(tmp_path, capsys):
    wrapped = _written(tmp_path, "wrapped.json", {"element": _BARE_COISO})
    bare = _written(tmp_path, "bare.json", _BARE_COISO)
    outputs = []
    for path in (wrapped, bare):
        code = main(["--json", "mc", _data("vdata_coiso.json"), path])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][0] in (0, 1)


def test_derived_on_an_invalid_quadruple_reports_its_failures(tmp_path, monkeypatch, capsys):
    # a relative gla_file is read next to its descriptor, whatever the working
    # directory; the projection u -> a leaves [u - a, v] = w + b with P = b
    os.makedirs(tmp_path / "quadruple")
    _written(tmp_path / "quadruple", "table.json", gla_to_json(fixture_gla()))
    desc = _written(tmp_path / "quadruple", "vdata.json", {
        "kind": "gla", "gla_file": "table.json", "a_basis": ["a", "c", "b"],
        "projection": {"u": [{"basis": "a", "coef_num": 1}]},
        "delta": [{"basis": "u", "coef_num": 1}],
    })
    monkeypatch.chdir(tmp_path)
    assert main(["--json", "derived", desc, "--arg", _data("pair_p.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert ["kernel not closed under bracket", "[u, v]"] in report["failures"]


def test_gauge_series_mismatch_exits_1(monkeypatch, capsys):
    from derived_brackets import cli

    real = cli.gauge_Y

    def doubled_form(*args):
        gf, gm = real(*args)
        return gf.scale(2), gm

    monkeypatch.setattr(cli, "gauge_Y", doubled_form)
    assert main(["--json", "gauge", _data("tpois_gauge.json"), "--check-series"]) == 1
    assert json.loads(capsys.readouterr().out)["matches_series"] is False


def test_derived_has_no_small_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derived", _data("vdata_fixture.json"), "--small"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --small" in capsys.readouterr().err


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_flow_of_a_high_power_needs_no_deep_stack(tmp_path, capsys):
    # transport builds x1^300 by a loop: under a recursion limit 150 frames
    # above this one, the flow used to end in RecursionError, one frame per
    # unit of the exponent
    with open(_data("tpois_flow.json"), encoding="utf-8") as fh:
        point = json.load(fh)
    point["B"]["terms"][1]["monomial"] = {"x1": 300}
    path = _written(tmp_path, "flow_x1_300.json", point)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        code = main(["--json", "flow", path])
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1)
    assert json.loads(capsys.readouterr().out)["form"][1][1]["terms"][0]["coef"] == -300
