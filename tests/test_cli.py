import json
import os
import random
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
        "max_arity": 3,
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


def test_unknown_vdata_kind(tmp_path, capsys):
    p = tmp_path / "vd.json"
    p.write_text(json.dumps({"kind": "mystery"}))
    assert main(["mc", str(p), str(p)]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    # the child imports the package from where this process found it
    import derived_brackets

    src = os.path.dirname(os.path.dirname(os.path.abspath(derived_brackets.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "derived_brackets.cli", "suite", "truc", "--samples", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_run_config_invariants():
    from derived_brackets.sampling import RunConfig

    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(max_arity=7)
    with pytest.raises(ValueError):
        RunConfig(max_poly_degree=9)


def test_suite_rejects_removed_max_terms_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "truc", "--samples", "2", "--max-terms", "5"])
    assert exc.value.code == 2
    assert "--max-terms" in capsys.readouterr().err


# -- golden output ------------------------------------------------------------------
#
# tests/data/golden/NAME.json holds the exact --json output of each command on
# the fixed inputs in tests/data/, recorded with the full L[1]/a pattern
# enumeration of the big algebra.

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden(name, capsys):
    code, argv = GOLDEN[name]
    assert main(["--json"] + argv) == code
    with open(os.path.join(DATA, "golden", f"{name}.json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
