"""The benchmark's workloads: seeded operations over the public API.

Each workload function draws a pool of operations from ``rng`` with the
``sampling`` generators the suites use.  An operation is ``(kind, size, run)``:
``run()`` performs one suite-style check and returns True exactly when its
exact answer holds.  The pool is a list of *cycles*; every cycle holds the
workload's whole mix of kinds, with fresh inputs, so any prefix of the pool
keeps the mix.

Operations look their callables up on the modules at call time, so that the
traced run sees the wrappers installed by ``tracing.instrument``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from fractions import Fraction

COISO_DIMS = (1, 2)
ALGEBRAS = 8


# -- series: Maurer-Cartan, twisting and the simultaneous-deformation check ------


def _machine_agree(V, v, phi, dtilde, ptilde):
    return lambda: V.machine_check(v, phi, dtilde, ptilde).agree


def _machine_both_vanish(V, v, phi, dtilde, ptilde):
    def run():
        report = V.machine_check(v, phi, dtilde, ptilde)
        return report.left_vanishes and report.right_vanishes
    return run


def _twist_matches(L, V, v, big, alpha, n, args):
    return lambda: (
        L.twist(big, alpha).m(n, args) == V.big_algebra(V.twist_vdata(v, alpha)).m(n, args)
    )


def _coiso_correspondence(L, V, P, pi, phi):
    return lambda: (
        L.mc_residual(V.small_algebra(P.coiso_vdata(pi)), phi).residual
        == P.coiso_projection(P.fiber_translate(pi, phi))
    )


def series(lib, rng, cycles, _workdir):
    S, V, L, P = lib.sampling, lib.vdata, lib.linfty, lib.polygeo
    v = S.fixture_vdata()
    big = V.big_algebra(v)
    zero = P.PolyMultivector.zero(COISO_DIMS)
    pool = []
    for _ in range(cycles):
        # The cost of a twist check falls in one of two clusters, depending on
        # alpha, and the gap between them lies near the twist checks' median.
        # Two of each cheap check, one twist check per n and two coisotropic
        # checks put the median among the cheap and the lighter twist checks,
        # and p90 inside the coisotropic checks, away from that gap.
        cycle = []
        for _ in range(2):
            phi = S.fixture_mc_small(rng)
            dtilde = S.random_fixture_element(rng, 1)
            ptilde = S.random_fixture_a_element(rng, 0)
            cycle.append(("machine-fixture-random", 0,
                          _machine_agree(V, v, phi, dtilde, ptilde)))
            alpha = S.fixture_mc_big(rng)
            cycle.append(("machine-fixture-engineered", 0,
                          _machine_both_vanish(V, v, v.zero, alpha.x, alpha.a)))
            pi = S.random_coiso_poisson(rng, COISO_DIMS, 2)
            phi = S.random_vertical_section(rng, COISO_DIMS, 1)
            cycle.append(("coiso-correspondence", 0, _coiso_correspondence(L, V, P, pi, phi)))

        base = S.random_coiso_poisson(rng, COISO_DIMS, 2, require_flat=True)
        cv = P.coiso_vdata(base)
        dtilde = S.random_multivector(rng, COISO_DIMS, 2, 1)
        ptilde = S.random_vertical_section(rng, COISO_DIMS, 1)
        cycle.append(("machine-coiso-random", 0, _machine_agree(V, cv, zero, dtilde, ptilde)))
        dtilde, ptilde = S.engineered_coiso_mc(rng, base, 1)
        cycle.append(("machine-coiso-engineered", 0,
                      _machine_both_vanish(V, cv, zero, dtilde, ptilde)))

        for n in range(1, 5):
            alpha = S.fixture_mc_big(rng)
            args = tuple(S.random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            cycle.append(("twist", n, _twist_matches(L, V, v, big, alpha, n, args)))
        pool.append(cycle)
    return pool


# -- relations: higher-Jacobi residuals and the oracle ---------------------------


def _coiso_a_element(lib, rng, degree):
    """Element of the coisotropic abelian subalgebra: vertical legs with
    base-only coefficients, arity 1 or 2."""
    P, S = lib.polygeo, lib.sampling
    m, k = COISO_DIMS
    out = P.PolyMultivector.zero(COISO_DIMS)
    options = list(itertools.combinations(range(m, m + k), rng.choice([1, 2])))
    for _ in range(2):
        wedge = rng.choice(options)
        for mono, coef in S.random_base_poly(rng, COISO_DIMS, degree).items():
            out = out + P.mv(COISO_DIMS, coef, mono, wedge)
    return out


def _residual_vanishes(L, algebra, n, args):
    return lambda: L.relations_residual(algebra, n, args).is_zero()


def _oracle_args(lib, rng, m, pattern, degree):
    """The argument patterns of the `oracle` suite."""
    S = lib.sampling
    dims = (m, 0)
    if pattern == 0:
        return [S.random_form(rng, dims, rng.randint(1, m), degree)]
    if pattern == 1:
        return [S.random_multivector(rng, dims, rng.randint(1, m), degree)]
    if pattern == 2:
        return [S.random_multivector(rng, dims, rng.randint(1, m), degree) for _ in range(2)]
    if pattern == 3:
        n = rng.randint(1, min(3, m))
        return [S.random_form(rng, dims, n, degree)] + [
            S.random_multivector(rng, dims, rng.randint(1, 2), degree) for _ in range(n)
        ]
    n = rng.randint(2, 3)
    q = rng.randint(1, m)
    args = [S.random_form(rng, dims, q, degree)] + [
        S.random_multivector(rng, dims, rng.randint(1, 2), degree) for _ in range(n - 1)
    ]
    if rng.randrange(2):
        args = [S.random_multivector(rng, dims, rng.randint(1, 2), degree) for _ in range(3)]
    return args


def _oracle_matches(lib, m, args):
    T, Q, P = lib.tpois, lib.qgeom, lib.polygeo
    t_args = tuple(
        T.TPoisElement.of_mv(a) if isinstance(a, P.PolyMultivector) else T.TPoisElement.of_form(a)
        for a in args
    )

    def run():
        direct = T.tpois_bracket(len(t_args), t_args)
        o_form, o_mv = Q.oracle_bracket(m, args)
        return direct.form_part == o_form and direct.mv_part == o_mv
    return run


def relations(lib, rng, cycles, _workdir):
    S, V, L, P, T = lib.sampling, lib.vdata, lib.linfty, lib.polygeo, lib.tpois
    v = S.fixture_vdata()
    small = V.small_algebra(v)
    big = V.big_algebra(v)
    tpois3 = T.tpois_linfty(3)
    for m in (2, 3):
        lib.qgeom.oracle_linfty(m)  # fills the oracle's per-dimension cache
    # a few twisted fixture and coisotropic algebras, shared by the cycles, so
    # that set-up time goes into drawing arguments
    twists = [L.twist(big, S.fixture_mc_big(rng)) for _ in range(ALGEBRAS)]
    coisos = [
        V.small_algebra(P.coiso_vdata(S.random_coiso_poisson(rng, COISO_DIMS, 2, require_flat=True)))
        for _ in range(ALGEBRAS)
    ]

    def pair():
        return S.random_fixture_pair(rng, rng.choice([-1, 0, 1]))

    pool = []
    for c in range(cycles):
        cycle = []
        twisted = twists[c % ALGEBRAS]
        csmall = coisos[c % ALGEBRAS]
        for n in range(1, 5):
            draws = (
                ("fixture-small", small,
                 lambda: S.random_fixture_a_element(rng, rng.choice([0, 1]))),
                ("fixture-big", big, pair),
                ("fixture-twisted", twisted, pair),
                ("coiso-small", csmall, lambda: _coiso_a_element(lib, rng, 2)),
                ("tpois", tpois3,
                 lambda: S.random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 2)),
            )
            for kind, algebra, draw in draws:
                args = tuple(draw() for _ in range(n))
                cycle.append((f"jacobi-{kind}", n, _residual_vanishes(L, algebra, n, args)))
        for m in (2, 3):
            for pattern in range(5):
                args = _oracle_args(lib, rng, m, pattern, 2)
                cycle.append(("oracle", m, _oracle_matches(lib, m, args)))
        pool.append(cycle)
    return pool


# -- geometry: graph transforms and flows ------------------------------------------


def _shear_round_trip(T, b, pi):
    return lambda: T.e_b_pi(b.scale(-1), T.e_b_pi(b, pi)) == pi


def _flow_checks(T, b, x, h, pi):
    def run():
        curve = T.flow_curve(b, x, h, pi)
        return curve.at(Fraction(0)) == (h, pi) and not curve.ode_residual()
    return run


def _generator_matches(T, b, x, h, pi):
    def run():
        report = T.generator_match(b, x, h, pi)
        return report.identity_holds and report.symbolic_matches_closed_form
    return run


def _gauge_series_matches(L, T, algebra, b, x, h, pi):
    def run():
        series = L.gauge_field(algebra, T.TPoisElement(b, x), T.TPoisElement(h, pi))
        gf, gm = T.gauge_Y(b, x, h, pi)
        return series.form_part == gf and series.mv_part == gm
    return run


def geometry(lib, rng, cycles, _workdir):
    S, L, T = lib.sampling, lib.linfty, lib.tpois
    tpois3 = T.tpois_linfty(3)

    # constant shears can make det(1 + B^flat pi^sharp) vanish
    def safe(m):
        return S.gauge_safe_data(rng, m, 2, allow_constant_shear=False)

    pool = []
    for _ in range(cycles):
        cycle = []
        # two of each small size for one of each larger one: the median then
        # falls inside the small operations and p90 inside the m = 6 ones
        for m in (4, 4, 5, 6):
            _h, pi, b, _x = safe(m)
            cycle.append(("shear-round-trip", m, _shear_round_trip(T, b, pi)))
        for m in (3, 3, 4, 4, 5, 6):
            h, pi, b, x = safe(m)
            cycle.append(("flow-curve", m, _flow_checks(T, b, x, h, pi)))
        h, pi, b, x = safe(3)
        cycle.append(("generator-match", 3, _generator_matches(T, b, x, h, pi)))
        h, pi, _b, _x = safe(3)
        b, x = S.random_gauge_direction(rng, 3, 2, constant_field=True)
        cycle.append(("gauge-series", 3, _gauge_series_matches(L, T, tpois3, b, x, h, pi)))
        pool.append(cycle)
    return pool


# -- cli: one `dbrack` command at a time, in-process --------------------------------


def _json_normal(payload):
    return json.loads(json.dumps(payload, sort_keys=True, default=str))


def _dbrack(lib, argv, check):
    """Run ``dbrack --json argv`` through ``cli.main``; it must exit with 0 and
    its JSON payload must pass ``check``."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = lib.cli.main(["--json"] + argv)
            except SystemExit as exc:
                code = exc.code
        return code == 0 and check(json.loads(out.getvalue()))

    return run


def cli(lib, rng, cycles, workdir):
    S, V, G, P, T = lib.sampling, lib.vdata, lib.gla, lib.polygeo, lib.tpois

    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def pair_json(e):
        return {"x": G.element_to_json(e.x), "a": G.element_to_json(e.a)}

    def tpois_json(h, pi, b, x):
        return {"H": P.element_to_json(h), "pi": P.element_to_json(pi),
                "B": P.element_to_json(b), "X": P.element_to_json(x)}

    v = S.fixture_vdata()
    big = V.big_algebra(v)
    gla_file = write("fixture_gla.json", G.gla_to_json(S.fixture_gla()))
    fixture = write("vdata_fixture.json", {"kind": "fixture"})
    pool = []
    for c in range(cycles):
        cycle = []
        cycle.append(("cli-verify-gla", 0, _dbrack(
            lib, ["verify-gla", gla_file],
            lambda out: out == {"ok": True, "violations": []})))

        n = rng.choice([2, 3])
        pairs = [S.random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n)]
        argv = ["derived", fixture, "--big"]
        for i, e in enumerate(pairs):
            argv += ["--arg", write(f"c{c}_pair{i}.json", pair_json(e))]
        expected = _json_normal({"arity": n, "value": pair_json(big.m(n, tuple(pairs)))})
        cycle.append(("cli-derived-big", n, _dbrack(
            lib, argv, lambda out, expected=expected: out == expected)))

        def flat(out):
            return out["flat"] is True

        phi = write(f"c{c}_phi.json", {"element": G.element_to_json(S.fixture_mc_small(rng))})
        cycle.append(("cli-mc-fixture-element", 0, _dbrack(lib, ["mc", fixture, phi], flat)))
        alpha = write(f"c{c}_alpha.json", pair_json(S.fixture_mc_big(rng)))
        cycle.append(("cli-mc-fixture-pair", 0, _dbrack(lib, ["mc", fixture, alpha], flat)))

        # pi = c p1^2 @x1^@p1 on R^1 x R^2 (pol 1) and phi = k x1 @p1: the
        # fiber translation keeps the base leg, so the pair is always flat
        coef_pi = rng.choice([-3, -2, -1, 1, 2, 3])
        coef_phi = rng.choice([-3, -2, -1, 1, 2, 3])
        dims = {"base": 1, "fiber": 2}
        coiso = write(f"c{c}_coiso.json", {"kind": "coisotropic", "pi": {
            "dims": dims, "terms": [{"coef": coef_pi, "monomial": {"p1": 2}, "wedge": [1, 2]}]}})
        section = write(f"c{c}_section.json", {"element": {
            "dims": dims, "terms": [{"coef": coef_phi, "monomial": {"x1": 1}, "wedge": [2]}]}})
        cycle.append(("cli-mc-coiso-pol1", 1, _dbrack(lib, ["mc", coiso, section], flat)))

        twist_alpha = S.fixture_mc_big(rng)
        delta = _json_normal(G.element_to_json(v.delta + twist_alpha.x))
        cycle.append(("cli-twist", 0, _dbrack(
            lib, ["twist", fixture, write(f"c{c}_twist.json", pair_json(twist_alpha))],
            lambda out, delta=delta: out["delta"] == delta)))

        h, pi, _b, _x = S.gauge_safe_data(rng, 3, 2, allow_constant_shear=False)
        b, x = S.random_gauge_direction(rng, 3, 2, constant_field=True)
        gf, gm = T.gauge_Y(b, x, h, pi)
        expected = _json_normal(
            {"form": P.element_to_json(gf), "mv": P.element_to_json(gm), "matches_series": True})
        cycle.append(("cli-gauge-check-series", 3, _dbrack(
            lib, ["gauge", write(f"c{c}_gauge.json", tpois_json(h, pi, b, x)), "--check-series"],
            lambda out, expected=expected: out == expected)))

        h, pi, b, x = S.gauge_safe_data(rng, 3, 2, allow_constant_shear=False)
        start = _json_normal({"form": [0, P.element_to_json(h)], "mv": [0, P.element_to_json(pi)]})

        def flow_ok(out, start=start):
            # the curve starts at (H, pi): t^0 terms, over a denominator 1 at t = 0
            return (out["ode_satisfied"] is True and out["form"][0] == start["form"]
                    and out["mv_numerator"][0] == start["mv"] and out["denominator"][0] == [0, 1])

        cycle.append(("cli-flow", 3, _dbrack(
            lib, ["flow", write(f"c{c}_flow.json", tpois_json(h, pi, b, x))], flow_ok)))
        pool.append(cycle)
    return pool


WORKLOADS = {"series": series, "relations": relations, "geometry": geometry, "cli": cli}
