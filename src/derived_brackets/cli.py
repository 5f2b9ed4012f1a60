"""Command-line front end.

Subcommands: verify-gla, derived, mc, twist, gauge, flow, suite.
``dbrack --help`` lists them with one line each, and ``dbrack CMD --help``
gives the arguments and options of one.  ``--json`` goes before the command.
Exit codes: 0 success, 1 mathematical failure, 2 input error, 3 resource
limit (a term count over the DB_MAX_TERMS cap, or a series proven not to
terminate: a nonzero term past its arity bound, or a chain of subalgebra
insertions that never vanishes).  A ``gla`` quadruple without a declared
filtration gets the depth computed from its table (``gla.chain_depth``).
Reports are deterministic: the same seed and configuration produce
byte-identical JSON.  The environment variable DB_MAX_TERMS overrides the
term-count safety cap of the polynomial layer; it is read once per process,
at the first check, and a malformed value exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .gla import LinearMap, element_from_json, element_to_json, gla_from_json, table_vdata
from .gla import verify_gla
from .graded import HomElt, json_field, json_int, json_of
from .linfty import MCError, NonTerminatingSeriesError, mc_residual
from .polygeo import (
    PolyForm,
    PolyMultivector,
    TermExplosionError,
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
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# -- descriptor loading ----------------------------------------------------------


def _gla_backed_vdata(desc: dict, path: str) -> VData:
    if "gla" in desc:
        algebra = gla_from_json(json_field(desc, path, "gla", dict), f'{path}: field "gla"')
    else:
        gla_path = json_field(desc, path, "gla_file", str)
        if not os.path.isabs(gla_path):
            gla_path = os.path.join(os.path.dirname(os.path.abspath(path)), gla_path)
        algebra = gla_from_json(_load_json(gla_path), gla_path)
    space = algebra.space
    a_names = tuple(
        json_of(str, name, f'{path}: entry of field "a_basis"')
        for name in json_field(desc, path, "a_basis", list)
    )
    projection = json_field(desc, path, "projection", dict) if "projection" in desc else {}
    images = {
        name: element_from_json(space, entry, f'{path}: field "projection", entry {name!r}')
        for name, entry in projection.items()
    }
    for name in a_names:
        images.setdefault(name, space.gen(name))
    delta = element_from_json(space, json_field(desc, path, "delta"), f'{path}: field "delta"')
    fdeg = None
    if "filtration" in desc:
        fdeg = {
            k: json_int(vv, f"{path}: filtration degree of {k!r}")
            for k, vv in json_field(desc, path, "filtration", dict).items()
        }
    return table_vdata(algebra, a_names, delta, LinearMap(space, images), fdeg,
                       desc.get("name", "gla-backed"))


def _literal(reader, data: dict, path: str, name: str, dims=None, owner: str = ""):
    """The polynomial literal in field ``name`` of the file ``path``, read by
    ``reader`` (mv_from_json or form_from_json); when ``dims`` is given, the
    literal must have those dims, which belong to ``owner``."""
    where = f'{path}: field "{name}"'
    element = reader(json_field(data, path, name, dict), where)
    if dims is not None and element.dims != dims:
        raise InputError(f"{where}: dims {element.dims} do not match {dims} of {owner}")
    return element


def load_vdata(path: str) -> tuple[VData, str]:
    """Returns the quadruple and its kind tag."""
    desc = _load_json(path)
    kind = desc.get("kind", "gla")
    if kind == "fixture":
        return fixture_vdata(), kind
    if kind == "gla":
        return _gla_backed_vdata(desc, path), kind
    if kind == "coisotropic":
        pi = _literal(mv_from_json, desc, path, "pi")
        return coiso_vdata(pi), kind
    raise InputError(f"unknown quadruple kind {kind!r}")


def _load_element(v: VData, kind: str, path: str):
    """The element file at ``path`` for a quadruple of ``kind`` (a
    :func:`load_vdata` tag), and whether it holds a pair."""
    data = _load_json(path)
    if kind in ("fixture", "gla"):
        space = v.zero.space
        if "x" in data or "a" in data:
            return BigElt(
                element_from_json(space, data.get("x", []), f'{path}: field "x"'),
                element_from_json(space, data.get("a", []), f'{path}: field "a"'),
            ), True
        element = json_field(data, path, "element")
        return element_from_json(space, element, f'{path}: field "element"'), False
    dims, owner = v.zero.dims, "the quadruple"  # coisotropic
    if "x" in data or "a" in data:
        x = _literal(mv_from_json, data, path, "x", dims, owner) if "x" in data else v.zero
        a = _literal(mv_from_json, data, path, "a", dims, owner) if "a" in data else v.zero
        return BigElt(x, a), True
    if "element" in data:
        return _literal(mv_from_json, data, path, "element", dims, owner), False
    element = mv_from_json(data, path)
    if element.dims != dims:
        raise InputError(f"{path}: dims {element.dims} do not match {dims} of {owner}")
    return element, False


def _element_payload(value) -> object:
    if isinstance(value, BigElt):
        return {"x": _element_payload(value.x), "a": _element_payload(value.a)}
    if isinstance(value, HomElt):
        return element_to_json(value)
    if isinstance(value, TPoisElement):
        return {"form": poly_to_json(value.form_part), "mv": poly_to_json(value.mv_part)}
    return poly_to_json(value)


# -- subcommands ------------------------------------------------------------------


def cmd_verify_gla(args) -> int:
    algebra = gla_from_json(_load_json(args.file), args.file)
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
    if args.big and not is_pair:
        element = BigElt(v.zero, element)
    algebra = big_algebra(v) if (args.big or is_pair) else small_algebra(v)
    report = mc_residual(algebra, element)
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
        twisted = twist_vdata(v, alpha)
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
    pi = _literal(mv_from_json, data, path, "pi")
    dims, owner = pi.dims, 'field "pi"'
    if dims[1]:
        raise InputError(f'{path}: field "pi": a point lives on a plain base, got dims {dims}')
    h = _literal(form_from_json, data, path, "H", dims, owner)
    b, x = PolyForm.zero(dims), PolyMultivector.zero(dims)
    if "B" in data:
        b = _literal(form_from_json, data, path, "B", dims, owner)
    if "X" in data:
        x = _literal(mv_from_json, data, path, "X", dims, owner)
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


# -- command table ----------------------------------------------------------------
#
# name -> (one-line help, argument adder, command function).  ``main`` builds the
# parser of the invoked command alone, so one call pays for that command's
# arguments, not for every command's.


def _verify_gla_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _derived_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("vdata")
    p.add_argument("--big", action="store_true", default=False)
    p.add_argument("--arg", action="append", default=[], help="element file (repeat)")


def _mc_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("vdata")
    p.add_argument("element")
    p.add_argument("--big", action="store_true", default=False)


def _twist_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("vdata")
    p.add_argument("alpha")


def _flow_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("data", help="JSON with H, pi and optionally B, X literals")


def _gauge_arguments(p: argparse.ArgumentParser) -> None:
    _flow_arguments(p)
    p.add_argument("--check-series", action="store_true")


def _suite_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=sorted(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=2)


COMMANDS = {
    "verify-gla": ("validate a structure-constant algebra file", _verify_gla_arguments,
                   cmd_verify_gla),
    "derived": ("evaluate one derived bracket", _derived_arguments, cmd_derived),
    "mc": ("Maurer-Cartan residual of an element", _mc_arguments, cmd_mc),
    "twist": ("twist a quadruple by a Maurer-Cartan pair", _twist_arguments, cmd_twist),
    "gauge": ("gauge vector field at a twisted-Poisson point", _gauge_arguments, cmd_gauge),
    "flow": ("symbolic flow curve through a twisted-Poisson point", _flow_arguments, cmd_flow),
    "suite": ("run a named property suite", _suite_arguments, cmd_suite),
}


def main(argv: list[str] | None = None) -> int:
    """Run one ``dbrack`` command and return its exit code.  Two parsers are
    built on every call: one that knows ``--json`` and the command names, then
    one for the invoked command alone, given the rest of ``argv``."""
    top = argparse.ArgumentParser(
        prog="dbrack",
        description="Exact derived-bracket homotopy algebras and twisted Poisson geometry",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{entry[0]}" for name, entry in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("command", choices=COMMANDS, help="one of the commands below")
    top.add_argument("arguments", nargs=argparse.REMAINDER,
                     help="the command's arguments (dbrack CMD --help)")
    args = top.parse_args(argv)
    _help, add_arguments, run = COMMANDS[args.command]
    parser = argparse.ArgumentParser(prog=f"dbrack {args.command}")
    add_arguments(parser)
    parser.parse_args(args.arguments, namespace=args)
    try:
        return run(args)
    except (InputError, KeyError, ValueError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (TermExplosionError, NonTerminatingSeriesError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
