"""Named property suites, shared by the command-line front end and the tests.

Each suite returns a deterministic, JSON-serializable report: same seed and
configuration give byte-identical output.  A suite passes exactly when every
sample check holds with exact arithmetic; failures carry per-sample witnesses.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .linfty import gauge_field, relations_residual, twist
from .polygeo import PolyMultivector, coiso_vdata, de_rham, mv
from .qgeom import oracle_bracket
from .sampling import (
    RunConfig,
    engineered_coiso_mc,
    fixture_mc_big,
    fixture_mc_small,
    fixture_vdata,
    gauge_safe_data,
    random_base_poly,
    random_coiso_poisson,
    random_fixture_a_element,
    random_fixture_element,
    random_fixture_pair,
    random_form,
    random_gauge_direction,
    random_multivector,
    random_tpois_element,
    random_vertical_section,
)
from .tpois import (
    GraphTransformError,
    TPoisElement,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    mc_residual_derivative,
    tpois_bracket,
    tpois_linfty,
)
from .vdata import BigElt, big_algebra, machine_check, small_algebra, twist_vdata


def _report(name: str, config: RunConfig, checks: int, failures: list) -> dict:
    return {
        "suite": name,
        "seed": config.seed,
        "samples": config.samples,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def _fixture_pair_sampler(rng):
    return random_fixture_pair(rng, rng.choice([-1, 0, 1]))


def _coiso_a_sampler(rng, dims, degree, arity=None):
    if arity is None:
        arity = rng.choice([1, 2])
    out = PolyMultivector.zero(dims)
    m, k = dims
    options = list(itertools.combinations(range(m, m + k), arity))
    if not options:
        return out
    for _ in range(2):
        wedge = rng.choice(options)
        for mono, coef in random_base_poly(rng, dims, degree).items():
            out = out + mv(dims, coef, mono, wedge)
    return out


def suite_jacobi(config: RunConfig) -> dict:
    """Higher-Jacobi residuals vanish on every shipped constructor."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0

    v = fixture_vdata()
    small = small_algebra(v)
    big = big_algebra(v)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            args = tuple(random_fixture_a_element(rng, rng.choice([0, 1])) for _ in range(n))
            checks += 1
            if not relations_residual(small, n, args).is_zero():
                failures.append({"setting": "fixture-small", "arity": n, "sample": k})
            pargs = tuple(_fixture_pair_sampler(rng) for _ in range(n))
            checks += 1
            if not relations_residual(big, n, pargs).is_zero():
                failures.append({"setting": "fixture-big", "arity": n, "sample": k})

    # twisted fixture algebra
    alpha = fixture_mc_big(rng)
    twisted = twist(big, alpha)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            pargs = tuple(_fixture_pair_sampler(rng) for _ in range(n))
            checks += 1
            if not relations_residual(twisted, n, pargs).is_zero():
                failures.append({"setting": "fixture-twisted", "arity": n, "sample": k})

    dims = (1, 2)
    pi = random_coiso_poisson(rng, dims, min(config.max_poly_degree, 2), require_flat=True)
    cv = coiso_vdata(pi)
    csmall = small_algebra(cv)
    cbig = big_algebra(cv)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            args = tuple(
                _coiso_a_sampler(rng, dims, config.max_poly_degree) for _ in range(n)
            )
            checks += 1
            if not relations_residual(csmall, n, args).is_zero():
                failures.append({"setting": "coiso-small", "arity": n, "sample": k})
        for k in range(config.samples):
            pargs = []
            for _ in range(n):
                degw = rng.choice([-1, 0])
                x = (
                    random_multivector(rng, dims, degw + 2, 1)
                    if 0 <= degw + 2 <= 3
                    else PolyMultivector.zero(dims)
                )
                pargs.append(BigElt(x, _coiso_a_sampler(rng, dims, 1, arity=degw + 1)))
            checks += 1
            if not relations_residual(cbig, n, tuple(pargs)).is_zero():
                failures.append({"setting": "coiso-big", "arity": n, "sample": k})

    m = 3
    algebra = tpois_linfty(m)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            args = tuple(
                random_tpois_element(rng, m, rng.choice([-1, 0, 1]), 2) for _ in range(n)
            )
            checks += 1
            if not relations_residual(algebra, n, args).is_zero():
                failures.append({"setting": "twisted-poisson", "arity": n, "sample": k})

    return _report("jacobi", config, checks, failures)


def suite_machine(config: RunConfig) -> dict:
    """Left/right vanishing agreement of the simultaneous-deformation check."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0

    v = fixture_vdata()
    space = v.zero.space
    for k in range(config.samples):
        phi = fixture_mc_small(rng)
        dtilde = random_fixture_element(rng, 1)
        ptilde = random_fixture_a_element(rng, 0)
        rep = machine_check(v, phi, dtilde, ptilde)
        checks += 1
        if not rep.agree:
            failures.append({"setting": "fixture", "sample": k, **rep.as_dict()})
    for k in range(config.samples):
        alpha = fixture_mc_big(rng)
        rep = machine_check(v, space.zero(), alpha.x, alpha.a)
        checks += 1
        if not (rep.left_vanishes and rep.right_vanishes):
            failures.append({"setting": "fixture-engineered", "sample": k, **rep.as_dict()})

    dims = (1, 2)
    degree = min(config.max_poly_degree, 2)
    base = random_coiso_poisson(rng, dims, degree, require_flat=True)
    cv = coiso_vdata(base)
    zero = PolyMultivector.zero(dims)
    for k in range(config.samples):
        dtilde = random_multivector(rng, dims, 2, 1)
        ptilde = random_vertical_section(rng, dims, 1)
        rep = machine_check(cv, zero, dtilde, ptilde)
        checks += 1
        if not rep.agree:
            failures.append({"setting": "coiso", "sample": k, **rep.as_dict()})
    for k in range(config.samples):
        dtilde, ptilde = engineered_coiso_mc(rng, base, 1)
        rep = machine_check(cv, zero, dtilde, ptilde)
        checks += 1
        if not (rep.left_vanishes and rep.right_vanishes):
            failures.append({"setting": "coiso-engineered", "sample": k, **rep.as_dict()})

    return _report("machine", config, checks, failures)


def suite_truc(config: RunConfig) -> dict:
    """Twisting at the algebra level equals twisting at the quadruple level."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0
    v = fixture_vdata()
    big = big_algebra(v)
    n_alpha = max(config.samples, 1)
    for k in range(n_alpha):
        alpha = fixture_mc_big(rng)
        twisted = twist(big, alpha)
        quadruple = big_algebra(twist_vdata(v, alpha))
        for n in range(1, config.max_arity + 1):
            for _ in range(3):
                args = tuple(_fixture_pair_sampler(rng) for _ in range(n))
                checks += 1
                if twisted.m(n, args) != quadruple.m(n, args):
                    failures.append({"sample": k, "arity": n})
    return _report("truc", config, checks, failures)


def suite_oracle(config: RunConfig) -> dict:
    """Direct twisted-Poisson brackets equal the coordinate-model oracle."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0
    degree = min(config.max_poly_degree, 3)
    for m in (2, 3):
        dims = (m, 0)
        for k in range(config.samples):
            kind = k % 5
            if kind == 0:  # unary on a form
                q = rng.randint(1, m)
                args = [random_form(rng, dims, q, degree)]
            elif kind == 1:  # unary on a multivector
                args = [random_multivector(rng, dims, rng.randint(1, m), degree)]
            elif kind == 2:  # binary multivectors
                args = [
                    random_multivector(rng, dims, rng.randint(1, m), degree)
                    for _ in range(2)
                ]
            elif kind == 3:  # form + matching multivectors (n = deg H)
                n = rng.randint(1, min(3, m))
                args = [random_form(rng, dims, n, degree)] + [
                    random_multivector(rng, dims, rng.randint(1, 2), degree)
                    for _ in range(n)
                ]
            else:  # mismatched / vanishing patterns must agree on zero too
                n = rng.randint(2, 3)
                q = rng.randint(1, m)
                args = [random_form(rng, dims, q, degree)] + [
                    random_multivector(rng, dims, rng.randint(1, 2), degree)
                    for _ in range(n - 1)
                ]
                if rng.randrange(2):
                    args = [
                        random_multivector(rng, dims, rng.randint(1, 2), degree)
                        for _ in range(3)
                    ]
            t_args = tuple(
                TPoisElement.of_form(a) if not isinstance(a, PolyMultivector)
                else TPoisElement.of_mv(a)
                for a in args
            )
            direct = tpois_bracket(len(args), t_args)
            o_form, o_mv = oracle_bracket(m, args)
            checks += 1
            if direct.form_part != o_form or direct.mv_part != o_mv:
                failures.append(
                    {
                        "dim": m,
                        "sample": k,
                        "pattern": kind,
                        "direct": repr(direct),
                        "oracle": repr((o_form, o_mv)),
                    }
                )
    return _report("oracle", config, checks, failures)


def suite_gauge(config: RunConfig) -> dict:
    """Gauge directions are tangent to the Maurer-Cartan set; the series over
    the multibrackets equals the closed form; generators match."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0
    m = 3
    algebra = tpois_linfty(m)
    degree = min(config.max_poly_degree, 2)
    for k in range(config.samples):
        h, pi, b_safe, x_safe = gauge_safe_data(rng, m, degree)
        # tangency and the series hold for arbitrary directions, not just
        # transform-compatible ones
        b, x = random_gauge_direction(rng, m, degree, constant_field=True)
        gf, gm = gauge_Y(b, x, h, pi)

        d_form, d_mv = mc_residual_derivative(h, pi, gf, gm)
        checks += 1
        if not (d_form.is_zero() and d_mv.is_zero()):
            failures.append({"check": "tangency", "sample": k})

        series = gauge_field(algebra, TPoisElement(b, x), TPoisElement(h, pi))
        checks += 1
        if series.form_part != gf or series.mv_part != gm:
            failures.append({"check": "series", "sample": k})

        # the generator comparison needs the graph transform, hence safe data
        checks += 1
        rep = generator_match(b_safe, x_safe, h, pi)
        if not (rep.identity_holds and rep.symbolic_matches_closed_form):
            failures.append({"check": "generator", "sample": k})
    return _report("gauge", config, checks, failures)


def suite_flow(config: RunConfig) -> dict:
    """Flow curves: start point, tangency ODE, derivative at zero, and the
    closed form at vanishing flow direction.  Of the ``samples`` curves the
    first ceil(samples / 2) have a zero flow direction (four checks each),
    the rest a random one (three checks each)."""
    rng = random.Random(config.seed)
    failures = []
    checks = 0
    m = 3
    degree = min(config.max_poly_degree, 2)
    zero_flows = (config.samples + 1) // 2
    for k in range(config.samples):
        constant_zero = k < zero_flows
        h, pi, b, x = gauge_safe_data(rng, m, degree,
                                      allow_constant_shear=constant_zero)
        if constant_zero:
            x = PolyMultivector.zero((m, 0))
        curve = flow_curve(b, x, h, pi)
        f0, m0 = curve.at(Fraction(0))
        checks += 1
        if f0 != h or m0 != pi:
            failures.append({"check": "start", "sample": k})
        checks += 1
        if curve.ode_residual():
            failures.append({"check": "ode", "sample": k})
        df, dm = curve.derivative_at_zero()
        gf, gm = gauge_Y(b, x, h, pi)
        checks += 1
        if df != gf or dm != gm:
            failures.append({"check": "derivative", "sample": k})
        if constant_zero:
            checks += 1
            try:
                t0 = Fraction(rng.randint(1, 3), rng.randint(1, 3))
                ft, mt = curve.at(t0)
                expected_f = h - de_rham(b).scale(t0)
                expected_m = e_b_pi(b.scale(t0), pi)
                if ft != expected_f or mt != expected_m:
                    failures.append({"check": "closed-form", "sample": k})
            except GraphTransformError:
                pass  # the transform can be singular at the sampled time
    return _report("flow", config, checks, failures)


SUITES = {
    "jacobi": suite_jacobi,
    "machine": suite_machine,
    "truc": suite_truc,
    "oracle": suite_oracle,
    "gauge": suite_gauge,
    "flow": suite_flow,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, config: RunConfig) -> dict:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(config)
