"""Span tracing around the public callables of ``derived_brackets``.

The tracer lives entirely in the benchmark: :func:`instrument` replaces each
traced callable by a wrapper in every ``derived_brackets`` module that bound
it (module functions, methods of classes, and the ``m`` of every algebra that
``small_algebra``, ``big_algebra`` and ``twist`` return).  Each wrapped call
records one span (name, size, start, end, parent span, operation id) in
memory; constructors only count.  Self time is a span's duration minus the
time its child spans cover.

Instrument right after a fresh import and before anything is built: vdata
handles capture ``bracket`` callables at construction time.
"""

from __future__ import annotations

import dataclasses
import time


def _pair(name):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


# (metric name, unit, better), in the order of BENCHMARK.json's per_layer list:
# grouped by layer and by the end-to-end metric each group should move.
PER_LAYER = (
    # series layer: ops_per_s and op_p90_ms on `series`
    _pair("vdata.big.m")
    + [("vdata.big.m.nonzero_ratio", "ratio", "higher"),
       ("vdata.big.m.max_arity", "count", "lower")]
    + _pair("vdata.small.m")
    + [("vdata.small.m.nonzero_ratio", "ratio", "higher"),
       ("vdata.small.m.max_arity", "count", "lower")]
    + _pair("linfty.mc_residual")
    + [("linfty.mc_residual.terms", "count", "lower"),
       ("linfty.mc_residual.uncertified", "count", "lower")]
    + _pair("linfty.twist.m")
    + _pair("vdata.machine_check")
    + _pair("vdata.exp_ad")
    + _pair("polygeo.fiber_translate")
    + [("polygeo.terms_hwm", "count", "lower")]
    # kernel and bracket layer: ops_per_s and op_p50_ms on `relations`
    + _pair("gla.bracket")
    + [("gla.bracket.nonzero_ratio", "ratio", "higher")]
    + _pair("polygeo.schouten")
    + [("polygeo.schouten.nonzero_ratio", "ratio", "higher")]
    + _pair("tpois.tpois_bracket")
    + _pair("qgeom.oracle_bracket")
    + _pair("qgeom.super_bracket")
    + _pair("linfty.relations_residual")
    + _pair("graded.koszul_sign")
    + _pair("graded.unshuffles")
    + [("graded.HomElt.init.calls", "count", "lower"),
       ("polygeo.PolyMultivector.init.calls", "count", "lower"),
       ("polygeo.PolyForm.init.calls", "count", "lower"),
       ("qgeom.SuperPoly.init.calls", "count", "lower")]
    # geometry layer: op_p90_ms and ops_per_s on `geometry`
    + _pair("tpois.e_b_pi")
    + [(f"tpois.e_b_pi.m{m}.self_s", "s", "lower") for m in (4, 5, 6)]
    + _pair("tpois.flow_curve")
    + [(f"tpois.flow_curve.m{m}.self_s", "s", "lower") for m in (3, 4, 5, 6)]
    + _pair("tpois.generator_match")
    + _pair("tpois.gauge_Y")
    + _pair("linfty.gauge_field")
    + _pair("polygeo.multi_sharp")
    + _pair("polygeo.de_rham")
    + _pair("polygeo.contract_form")
    # front end and validation: op_p50_ms on `cli`, and setup_s
    + _pair("cli.main")
    + _pair("gla.verify_gla")
    + _pair("vdata.validate_vdata")
    + _pair("vdata.twist_vdata")
    + [("gla.json.self_s", "s", "lower"),
       ("polygeo.json.self_s", "s", "lower"),
       # Maurer-Cartan terms per `dbrack mc` call on the pol=1 coisotropic
       # example; pol + 2 = 3 suffice
       ("cli.mc_coiso_pol1.terms", "count", "lower"),
       ("trace.ops_per_s_untraced", "1/s", "higher"),
       ("trace.ops_per_s_traced", "1/s", "higher"),
       ("trace.ops_per_s_loss", "ratio", "lower")]
)

# Metrics that must repeat exactly between two traced passes at one seed.
DETERMINISTIC_SUFFIXES = (".calls", ".terms", ".uncertified", ".max_arity",
                          ".nonzero_ratio", ".terms_hwm")


class Tracer:
    """In-memory span recorder and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in parallel lists
        self.name_of: list[int] = []
        self.size_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_kind = ""
        self.counters: dict[str, float] = {}

    def count(self, key: str, by=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def high_water(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def spanned(self, name: str, fn, size=None, observe=None):
        """``fn`` wrapped so that every call records a span named ``name``.

        ``size(args)`` tags the span with an input size; ``observe(args,
        result)`` updates counters from the call and its result."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack
        name_of, size_of, start, end = self.name_of, self.size_of, self.start, self.end
        parent, op_of = self.parent, self.op_of

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            size_of.append(size(args) if size is not None else 0)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[key] = self.counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[tuple[str, int], float], dict[str, int]]:
        """Self seconds by name and by (name, size), and calls by name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_name: dict[str, float] = {}
        by_size: dict[tuple[str, int], float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            own = self.end[i] - self.start[i] - child[i]
            by_name[name] = by_name.get(name, 0.0) + own
            key = (name, self.size_of[i])
            by_size[key] = by_size.get(key, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        return by_name, by_size, calls

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give (the trace.* ones are
        filled in by the runner)."""
        own, own_by_size, calls = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            if name.startswith("trace."):
                continue
            if name in c:
                out[name] = c[name]
            elif name.endswith(".calls"):
                out[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                base = name[: -len(".self_s")]
                head, _, tail = base.rpartition(".")
                if tail[:1] == "m" and tail[1:].isdigit():
                    out[name] = own_by_size.get((head, int(tail[1:])), 0.0)
                else:
                    out[name] = own.get(base, 0.0)
            elif name.endswith(".nonzero_ratio"):
                base = name[: -len(".nonzero_ratio")]
                total = calls.get(base, 0)
                out[name] = c.get(base + ".nonzero", 0) / total if total else 0.0
            else:
                out[name] = 0
        pol1_calls = c.get("cli.mc_coiso_pol1.calls", 0)
        out["cli.mc_coiso_pol1.terms"] = (
            c.get("cli.mc_coiso_pol1.terms_total", 0) / pol1_calls if pol1_calls else 0
        )
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: op, name, size, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tsize\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op_of[i]}\t{names[self.name_of[i]]}\t{self.size_of[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


# -- instrumentation -----------------------------------------------------------


def _replace_everywhere(lib_modules, original, replacement) -> None:
    for module in lib_modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def instrument(lib, tracer: Tracer) -> None:
    """Wrap the traced callables of the freshly imported package ``lib``."""
    mods = [getattr(lib, name) for name in lib.MODULE_NAMES] + [lib.package]
    t = tracer

    def nonzero(prefix):
        def observe(args, result):
            if not result.is_zero():
                t.count(prefix + ".nonzero")
        return observe

    def algebra_m(prefix):
        def observe(args, result):
            if not result.is_zero():
                t.count(prefix + ".nonzero")
            t.high_water(prefix + ".max_arity", args[0])
        return observe

    def mc_observe(args, report):
        t.count("linfty.mc_residual.terms", report.terms_evaluated)
        if report.terminated_by == "truncation":
            t.count("linfty.mc_residual.uncertified")
        if t.op_kind == "cli-mc-coiso-pol1":
            t.count("cli.mc_coiso_pol1.calls")
            t.count("cli.mc_coiso_pol1.terms_total", report.terms_evaluated)

    def schouten_observe(args, result):
        if not result.is_zero():
            t.count("polygeo.schouten.nonzero")
        t.high_water("polygeo.terms_hwm", len(result.terms))

    def traced(module, attr, name, **kw):
        original = getattr(module, attr)
        _replace_everywhere(mods, original, t.spanned(name, original, **kw))

    def algebra_factory(module, attr, name):
        original = getattr(module, attr)

        def factory(*args, **kwargs):
            algebra = original(*args, **kwargs)
            return dataclasses.replace(
                algebra, m=t.spanned(name, algebra.m, observe=algebra_m(name))
            )

        _replace_everywhere(mods, original, factory)

    vdata, linfty, gla, graded = lib.vdata, lib.linfty, lib.gla, lib.graded
    polygeo, tpois, qgeom, cli = lib.polygeo, lib.tpois, lib.qgeom, lib.cli

    algebra_factory(vdata, "big_algebra", "vdata.big.m")
    algebra_factory(vdata, "small_algebra", "vdata.small.m")
    algebra_factory(linfty, "twist", "linfty.twist.m")
    traced(linfty, "mc_residual", "linfty.mc_residual", observe=mc_observe)
    traced(vdata, "machine_check", "vdata.machine_check")
    traced(vdata, "exp_ad", "vdata.exp_ad")
    traced(polygeo, "fiber_translate", "polygeo.fiber_translate")

    gla.StructureGLA.bracket = t.spanned(
        "gla.bracket", gla.StructureGLA.bracket, observe=nonzero("gla.bracket"))
    traced(polygeo, "schouten", "polygeo.schouten", observe=schouten_observe)
    traced(tpois, "tpois_bracket", "tpois.tpois_bracket")
    traced(qgeom, "oracle_bracket", "qgeom.oracle_bracket")
    traced(qgeom, "super_bracket", "qgeom.super_bracket")
    traced(linfty, "relations_residual", "linfty.relations_residual")
    traced(graded, "koszul_sign", "graded.koszul_sign")
    traced(graded, "unshuffles", "graded.unshuffles")
    graded.HomElt.__init__ = t.counted("graded.HomElt.init.calls", graded.HomElt.__init__)
    for cls in (polygeo.PolyMultivector, polygeo.PolyForm):
        cls.__init__ = t.counted(f"polygeo.{cls.__name__}.init.calls", cls.__init__)
    qgeom.SuperPoly.__init__ = t.counted("qgeom.SuperPoly.init.calls", qgeom.SuperPoly.__init__)

    traced(tpois, "e_b_pi", "tpois.e_b_pi", size=lambda a: a[1].dims[0])
    traced(tpois, "flow_curve", "tpois.flow_curve", size=lambda a: a[3].dims[0])
    traced(tpois, "generator_match", "tpois.generator_match")
    traced(tpois, "gauge_Y", "tpois.gauge_Y")
    traced(linfty, "gauge_field", "linfty.gauge_field")
    traced(polygeo, "multi_sharp", "polygeo.multi_sharp")
    traced(polygeo, "de_rham", "polygeo.de_rham")
    traced(polygeo, "contract_form", "polygeo.contract_form")

    traced(cli, "main", "cli.main")
    traced(gla, "verify_gla", "gla.verify_gla")
    traced(vdata, "validate_vdata", "vdata.validate_vdata")
    traced(vdata, "twist_vdata", "vdata.twist_vdata")
    for attr in ("gla_from_json", "element_from_json", "element_to_json"):
        traced(gla, attr, "gla.json")
    for attr in ("mv_from_json", "form_from_json", "element_to_json"):
        traced(polygeo, attr, "polygeo.json")
