"""The benchmark's per-layer tracer patches library callables by name.

``perfbench/tracing.py`` wraps, among others, ``tpois.tpois_bracket`` and
``graded.koszul_sign`` in every module that bound them, patches the method
``gla.StructureGLA.bracket`` on its class, and reads series counters off
``mc_residual``'s report and the big algebra's ``m``.  A
refactor that renames or stops calling a hooked attribute leaves ``--trace 1``
silently empty; this test runs the tracer against the checkout and requires
spans and counters for both layers.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, random, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run, tracing

lib = run.fresh_import()
tracer = tracing.Tracer()
tracing.instrument(lib, tracer)
P, T = lib.polygeo, lib.tpois
dims = (2, 0)
h = T.TPoisElement.of_form(P.form(dims, 1, (1, 0), (0,)))
pi = T.TPoisElement.of_mv(P.mv(dims, 1, None, (0, 1)))
T.tpois_bracket(2, (h, pi))
lib.linfty.relations_residual(T.tpois_linfty(2), 2, (pi, pi))
S = lib.sampling
v = S.fixture_vdata()
report = lib.linfty.mc_residual(lib.vdata.big_algebra(v), S.fixture_mc_big(random.Random(1)))
before = tracer.self_times()[2].get("gla.bracket", 0)
a, c = v.a_basis[0], v.a_basis[1]
lib.vdata.small_algebra(v).m(2, (a, c))
small_brackets = tracer.self_times()[2].get("gla.bracket", 0) - before
print(json.dumps({{"calls": tracer.self_times()[2], "counters": tracer.counters,
                  "terms": report.terms_evaluated, "small_brackets": small_brackets}}))
"""


def test_tracer_records_spans_for_hooked_callables():
    script = SCRIPT.format(
        perfbench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    calls, counters = out["calls"], out["counters"]
    assert calls.get("tpois.tpois_bracket", 0) >= 2
    assert calls.get("graded.koszul_sign", 0) >= 1
    assert calls.get("linfty.relations_residual", 0) == 1
    # the series counters perfbench reports come from the MC report and the
    # big algebra's m
    assert calls.get("linfty.mc_residual", 0) == 1
    assert out["terms"] > 0
    assert counters.get("linfty.mc_residual.terms") == out["terms"]
    assert counters.get("vdata.big.m.max_arity", 0) > 0
    # the kernel is patched as gla.StructureGLA.bracket: a small-algebra m_2
    # on the fixture, P[[Delta, a], c], is two spans of it
    assert out["small_brackets"] >= 2


WORKLOADS = """
import json, random, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run, workloads

lib = run.fresh_import()
results = {{}}
for name, build in workloads.WORKLOADS.items():
    pool = build(lib, random.Random(1), 1, {workdir!r})
    results[name] = [[kind, size, op() is True] for cycle in pool for kind, size, op in cycle]
print(json.dumps(results))
"""


def test_one_cycle_of_every_workload_passes(tmp_path):
    # the benchmark's workloads call the sampling generators and the public
    # API by name; a changed signature would otherwise show only as a failed
    # benchmark run
    script = WORKLOADS.format(perfbench=os.path.join(ROOT, "perfbench"),
                              src=os.path.join(ROOT, "src"), workdir=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == ["cli", "geometry", "relations", "series"]
    assert all(results.values())
    failed = [(name, kind, size) for name, ops in results.items()
              for kind, size, ok in ops if not ok]
    assert not failed, failed
