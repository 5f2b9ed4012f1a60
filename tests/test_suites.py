"""Every suite can fail: with its check made to return a wrong value, the
report says ``"passed": false`` with one failure record per failed check,
``dbrack suite NAME`` exits 1, and text mode prints ``failure:`` lines.
Both outputs of each broken run match a recorded copy, which pins every
record's values and, through the text mode's ``repr``, its key order."""

import dataclasses
import json
import os

import pytest

from derived_brackets import suites
from derived_brackets.cli import main
from derived_brackets.polygeo import form, mv
from derived_brackets.sampling import RunConfig
from derived_brackets.tpois import FlowCurve, GeneratorReport, TPoisElement

BROKEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden", "broken")


class _Nonzero:
    def is_zero(self):
        return False


def _break_jacobi(monkeypatch):
    monkeypatch.setattr(suites, "relations_residual", lambda algebra, n, args: _Nonzero())


def _break_machine(monkeypatch):
    real = suites.machine_check

    def disagreeing(*args):
        report = real(*args)
        return dataclasses.replace(report, left_vanishes=not report.right_vanishes)

    monkeypatch.setattr(suites, "machine_check", disagreeing)


def _break_truc(monkeypatch):
    monkeypatch.setattr(suites, "twist_vdata", lambda v, alpha: v)  # the untwisted quadruple


def _break_oracle(monkeypatch):
    real = suites.oracle_bracket

    def shifted(m, args):
        o_form, o_mv = real(m, args)
        return o_form, o_mv + mv((m, 0), 1, None, (0,))

    monkeypatch.setattr(suites, "oracle_bracket", shifted)


def _break_gauge(monkeypatch):
    monkeypatch.setattr(suites, "mc_residual_derivative",
                        lambda h, pi, gf, gm: (form(h.dims, 1), gm.scale(0)))
    monkeypatch.setattr(suites, "gauge_field", lambda algebra, z, at: TPoisElement.zero(3))
    monkeypatch.setattr(suites, "generator_match",
                        lambda *args: GeneratorReport(None, None, False, False))


def _break_flow(monkeypatch):
    shift = form((3, 0), 1, None, (0, 1, 2))
    monkeypatch.setattr(FlowCurve, "at",
                        lambda self, t: (self.form_at(t) + shift, self.mv_at(t)))
    monkeypatch.setattr(FlowCurve, "ode_residual", lambda self: {0: "nonzero"})
    monkeypatch.setattr(suites, "gauge_Y", lambda b, x, h, pi: (h + shift, pi))


# name -> (how to break its check, arguments, the keys of each failure record,
# the values its "setting", "check" or "pattern" key takes)
BROKEN = {
    "jacobi": (_break_jacobi, ["--max-arity", "1"], {"setting", "arity", "sample"},
               {"fixture-small", "fixture-big", "fixture-twisted", "coiso-small", "coiso-big",
                "twisted-poisson"}),
    "machine": (_break_machine, [], {
        "setting", "sample", "left_bracket_square_zero", "left_exponential_residual_zero",
        "right_big_mc_zero", "left_vanishes", "right_vanishes", "agree"},
        {"fixture", "fixture-engineered", "coiso", "coiso-engineered"}),
    "truc": (_break_truc, ["--max-arity", "1"], {"sample", "arity"}, None),
    "oracle": (_break_oracle, ["--samples", "5", "--seed", "3"],
               {"dim", "sample", "pattern", "direct", "oracle"}, {0, 1, 2, 3, 4}),
    "gauge": (_break_gauge, [], {"check", "sample"}, {"tangency", "series", "generator"}),
    "flow": (_break_flow, ["--samples", "2"], {"check", "sample"},
             {"start", "ode", "derivative", "closed-form"}),
}


def _recorded(name, ext):
    # tests/data/golden/broken/suite_NAME.{json,txt}: the output of the broken
    # run below, in JSON and in text mode
    with open(os.path.join(BROKEN_DIR, f"suite_{name}.{ext}"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_every_suite_can_fail(name, monkeypatch, capsys):
    breaking, argv, keys, kinds = BROKEN[name]
    argv = ["suite", name, "--samples", "1"] + argv
    breaking(monkeypatch)
    assert main(["--json"] + argv) == 1
    out = capsys.readouterr().out
    assert out == _recorded(name, "json")
    report = json.loads(out)
    assert report["passed"] is False and report["failures"]
    assert all(set(failure) == keys for failure in report["failures"])
    if kinds is not None:
        key = ({"setting", "check", "pattern"} & keys).pop()
        assert {failure[key] for failure in report["failures"]} == kinds

    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out == _recorded(name, "txt")
    lines = out.splitlines()
    failures = report["failures"]
    assert lines[0] == (f"suite {name}: FAIL ({report['checks']} checks, "
                        f"{len(failures)} failures, seed {report['seed']})")
    assert len(lines) == 1 + min(len(failures), 10)
    assert all(line.startswith("  failure: {") for line in lines[1:])


def test_oracle_draws_every_pattern_and_passes():
    report = suites.run_suite("oracle", RunConfig(seed=3, samples=5))
    assert report["passed"] and report["checks"] == 10


def test_a_singular_closed_form_time_is_skipped(monkeypatch):
    def singular(b, pi):
        raise suites.GraphTransformError("singular at the sampled time")

    monkeypatch.setattr(suites, "e_b_pi", singular)
    report = suites.run_suite("flow", RunConfig(samples=1))
    assert report["passed"] and report["checks"] == 4


def test_unknown_suite_is_an_input_error():
    with pytest.raises(ValueError, match="unknown suite 'nope'; choose from"):
        suites.run_suite("nope", RunConfig())

