"""Command-line front end.

Subcommands: verify-gla, derived, mc, twist, gauge, flow, suite.
Exit codes: 0 success, 1 mathematical failure, 2 input error.
Reports are deterministic: the same seed and configuration produce
byte-identical JSON.  The environment variable DB_MAX_TERMS overrides the
term-count safety cap of the polynomial layer.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gla import element_from_json, element_to_json, gla_from_json, verify_gla
from .graded import HomElt
from .linfty import Filtration, MCError, mc_residual
from .polygeo import (
    PolyMultivector,
    coiso_vdata,
    element_to_json as poly_to_json,
    form_from_json,
    mv_from_json,
)
from .sampling import RunConfig, fixture_vdata
from .suites import SUITE_NAMES, run_suite
from .tpois import TPoisElement, flow_curve, gauge_Y, tpois_linfty
from .vdata import BigElt, VData, big_algebra, small_algebra, twist_vdata, validate_vdata


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# -- descriptor loading ----------------------------------------------------------


def _gla_backed_vdata(desc: dict, base_dir: str) -> VData:
    import os

    if "gla" in desc:
        algebra = gla_from_json(desc["gla"])
    else:
        path = desc["gla_file"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        algebra = gla_from_json(_load_json(path))
    space = algebra.space
    a_names = tuple(desc["a_basis"])
    images = {
        name: element_from_json(space, entry)
        for name, entry in desc.get("projection", {}).items()
    }
    for name in space.names():
        if name not in images:
            images[name] = space.gen(name) if name in a_names else space.zero()

    def project(x: HomElt) -> HomElt:
        out = space.zero()
        for n, c in x.terms.items():
            out = out + images[n].scale(c)
        return out

    delta = element_from_json(space, desc["delta"])
    filtration = None
    series_bound = None
    if "filtration" in desc:
        fdeg_map = {k: int(vv) for k, vv in desc["filtration"].items()}
        bound = int(desc.get("series_bound", 8))

        def fdeg(x: HomElt) -> int:
            if x.is_zero():
                return 2**30
            return min(fdeg_map[n] for n in x.terms)

        filtration = Filtration(degree=fdeg, series_bound=lambda phi: bound)
        series_bound = lambda phi: bound  # noqa: E731

    return VData(
        bracket=algebra.bracket,
        degree=lambda x: x.degree(),
        components=lambda x: x.components(),
        project=project,
        delta=delta,
        zero=space.zero(),
        in_a=lambda x: all(n in a_names for n in x.terms),
        sample_basis=tuple(algebra.basis_elements()),
        a_basis=tuple(space.gen(n) for n in a_names),
        curved=bool(desc.get("curved", False)),
        filtration=filtration,
        series_bound=series_bound,
        max_arity=desc.get("max_arity"),
        name=desc.get("name", "gla-backed"),
    )


def load_vdata(path: str) -> tuple[VData, str]:
    """Returns the quadruple and its kind tag."""
    import os

    desc = _load_json(path)
    kind = desc.get("kind", "gla")
    if kind == "fixture":
        return fixture_vdata(), kind
    if kind == "gla":
        return _gla_backed_vdata(desc, os.path.dirname(os.path.abspath(path))), kind
    if kind == "coisotropic":
        pi = mv_from_json(desc["pi"])
        return coiso_vdata(pi), kind
    raise InputError(f"unknown quadruple kind {kind!r}")


def _load_element(v: VData, kind: str, path: str):
    data = _load_json(path)
    if kind in ("fixture", "gla"):
        space = v.zero.space
        if "x" in data or "a" in data:
            return BigElt(
                element_from_json(space, data.get("x", [])),
                element_from_json(space, data.get("a", [])),
            ), True
        return element_from_json(space, data.get("element", data)), False
    if kind == "coisotropic":
        if "x" in data or "a" in data:
            zero = v.zero
            x = mv_from_json(data["x"]) if "x" in data else zero
            a = mv_from_json(data["a"]) if "a" in data else zero
            return BigElt(x, a), True
        return mv_from_json(data.get("element", data)), False
    raise InputError(f"unsupported element payload for kind {kind!r}")


def _element_payload(value) -> object:
    if isinstance(value, BigElt):
        return {"x": _element_payload(value.x), "a": _element_payload(value.a)}
    if isinstance(value, HomElt):
        return element_to_json(value)
    if isinstance(value, TPoisElement):
        return {"form": poly_to_json(value.form_part), "mv": poly_to_json(value.mv_part)}
    if hasattr(value, "terms") and hasattr(value, "dims"):
        return poly_to_json(value)
    return repr(value)


# -- subcommands ------------------------------------------------------------------


def cmd_verify_gla(args) -> int:
    algebra = gla_from_json(_load_json(args.file))
    report = verify_gla(algebra)
    _emit(report.as_dict(), args.json)
    return 0 if report.ok else 1


def cmd_derived(args) -> int:
    v, kind = load_vdata(args.vdata)
    report = validate_vdata(v)
    if not report.ok:
        _emit(report.as_dict(), args.json)
        return 1
    loaded = [_load_element(v, kind, p) for p in args.arg]
    if args.big:
        algebra = big_algebra(v)
        elements = [
            e if is_pair else BigElt(v.zero, e) for e, is_pair in loaded
        ]
    else:
        algebra = small_algebra(v)
        for e, is_pair in loaded:
            if is_pair:
                raise InputError("the small algebra takes subalgebra elements only")
        elements = [e for e, _ in loaded]
    value = algebra.m(len(elements), tuple(elements))
    _emit({"arity": len(elements), "value": _element_payload(value)}, args.json)
    return 0


def cmd_mc(args) -> int:
    v, kind = load_vdata(args.vdata)
    element, is_pair = _load_element(v, kind, args.element)
    algebra = big_algebra(v) if (args.big or is_pair) else small_algebra(v)
    report = mc_residual(algebra, element, max_terms=args.max_terms)
    payload = {
        "residual": _element_payload(report.residual),
        "terms_evaluated": report.terms_evaluated,
        "terminated_by": report.terminated_by,
        "flat": report.residual.is_zero(),
    }
    _emit(payload, args.json)
    return 0 if report.residual.is_zero() else 1


def cmd_twist(args) -> int:
    v, kind = load_vdata(args.vdata)
    alpha, is_pair = _load_element(v, kind, args.alpha)
    if not is_pair:
        raise InputError("twisting elements are pairs {\"x\": .., \"a\": ..}")
    try:
        twisted = twist_vdata(v, alpha, max_terms=args.max_terms)
    except MCError as exc:
        _emit({"error": str(exc), "residual": _element_payload(exc.residual)}, args.json)
        return 1
    payload = {"delta": _element_payload(twisted.delta)}
    payload["projection_samples"] = [
        {
            "input": _element_payload(x),
            "output": _element_payload(twisted.project(x)),
        }
        for x in twisted.sample_basis
    ]
    _emit(payload, args.json)
    return 0


def _load_tpois_point(path: str):
    data = _load_json(path)
    h = form_from_json(data["H"]) if "H" in data else None
    pi = mv_from_json(data["pi"]) if "pi" in data else None
    b = form_from_json(data["B"]) if "B" in data else None
    x = mv_from_json(data["X"]) if "X" in data else None
    if h is None or pi is None:
        raise InputError("twisted-Poisson payloads need \"H\" and \"pi\" literals")
    m = pi.dims[0]
    from .polygeo import PolyForm

    if b is None:
        b = PolyForm.zero((m, 0))
    if x is None:
        x = PolyMultivector.zero((m, 0))
    return h, pi, b, x


def cmd_gauge(args) -> int:
    h, pi, b, x = _load_tpois_point(args.data)
    gf, gm = gauge_Y(b, x, h, pi)
    payload = {"form": poly_to_json(gf), "mv": poly_to_json(gm)}
    if args.check_series:
        algebra = tpois_linfty(pi.dims[0])
        from .linfty import gauge_field

        series = gauge_field(algebra, TPoisElement(b, x), TPoisElement(h, pi))
        payload["matches_series"] = (
            series.form_part == gf and series.mv_part == gm
        )
        if not payload["matches_series"]:
            _emit(payload, args.json)
            return 1
    _emit(payload, args.json)
    return 0


def cmd_flow(args) -> int:
    h, pi, b, x = _load_tpois_point(args.data)
    curve = flow_curve(b, x, h, pi)
    payload = curve.emit()
    ode = curve.ode_residual()
    payload["ode_satisfied"] = not ode
    _emit(payload, args.json)
    return 0 if not ode else 1


def cmd_suite(args) -> int:
    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        max_arity=args.max_arity,
        max_poly_degree=args.max_degree,
        output="json" if args.json else "text",
    )
    report = run_suite(args.name, config)
    if args.json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        status = "PASS" if report["passed"] else "FAIL"
        print(
            f"suite {report['suite']}: {status} "
            f"({report['checks']} checks, {len(report['failures'])} failures, "
            f"seed {report['seed']})"
        )
        for failure in report["failures"][:10]:
            print(f"  failure: {failure}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbrack",
        description="Exact derived-bracket homotopy algebras and twisted Poisson geometry",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gla", help="validate a structure-constant algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify_gla)

    p = sub.add_parser("derived", help="evaluate one derived bracket")
    p.add_argument("vdata")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--small", action="store_true", default=True)
    group.add_argument("--big", action="store_true", default=False)
    p.add_argument("--arg", action="append", default=[], help="element file (repeat)")
    p.set_defaults(fn=cmd_derived)

    p = sub.add_parser("mc", help="Maurer-Cartan residual of an element")
    p.add_argument("vdata")
    p.add_argument("element")
    p.add_argument("--big", action="store_true", default=False)
    p.add_argument("--max-terms", type=int, default=12)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("twist", help="twist a quadruple by a Maurer-Cartan pair")
    p.add_argument("vdata")
    p.add_argument("alpha")
    p.add_argument("--max-terms", type=int, default=12)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("gauge", help="gauge vector field at a twisted-Poisson point")
    p.add_argument("data", help="JSON with H, pi and optionally B, X literals")
    p.add_argument("--check-series", action="store_true")
    p.set_defaults(fn=cmd_gauge)

    p = sub.add_parser("flow", help="symbolic flow curve through a twisted-Poisson point")
    p.add_argument("data", help="JSON with H, pi and optionally B, X literals")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("name", choices=sorted(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
