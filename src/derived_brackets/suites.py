"""Named property suites, shared by the command-line front end and the tests.

Each suite returns a deterministic, JSON-serializable report: same seed and
configuration give byte-identical output.  One rule decides every verdict:
``passed`` is false exactly when ``failures`` lists a record, one per failed
check.  It lives in :class:`_Run`: a suite body states each check once as
``run.check(holds, **record)``, which counts the check and keeps the record
(its per-sample witness) when the check fails, and ``run.report()`` builds
the report from the count and the records.
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


class _Run:
    """One suite run: its seeded ``rng``, its check count and its failure
    records."""

    def __init__(self, name: str, config: RunConfig):
        self.name, self.config = name, config
        self.rng = random.Random(config.seed)
        self.checks = 0
        self.failures: list[dict] = []

    def check(self, holds, **record) -> None:
        """Count one check; record it as failed unless it holds."""
        self.checks += 1
        if not holds:
            self.failures.append(record)

    def report(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.config.seed,
            "samples": self.config.samples,
            "checks": self.checks,
            "failures": self.failures,
            "passed": not self.failures,
        }


def _fixture_pair_sampler(rng):
    return random_fixture_pair(rng, rng.choice([-1, 0, 1]))


def _coiso_a_sampler(rng, dims, degree, arity=None):
    if arity is None:
        arity = rng.choice([1, 2])
    out = PolyMultivector.zero(dims)
    m, k = dims
    options = list(itertools.combinations(range(m, m + k), arity))
    for _ in range(2):
        wedge = rng.choice(options)
        for mono, coef in random_base_poly(rng, dims, degree).items():
            out = out + mv(dims, coef, mono, wedge)
    return out


def suite_jacobi(config: RunConfig) -> dict:
    """Higher-Jacobi residuals vanish on every shipped constructor."""
    run = _Run("jacobi", config)
    rng = run.rng

    v = fixture_vdata()
    small = small_algebra(v)
    big = big_algebra(v)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            args = tuple(random_fixture_a_element(rng, rng.choice([0, 1])) for _ in range(n))
            run.check(relations_residual(small, n, args).is_zero(),
                      setting="fixture-small", arity=n, sample=k)
            pargs = tuple(_fixture_pair_sampler(rng) for _ in range(n))
            run.check(relations_residual(big, n, pargs).is_zero(),
                      setting="fixture-big", arity=n, sample=k)

    # twisted fixture algebra
    alpha = fixture_mc_big(rng)
    twisted = twist(big, alpha)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            pargs = tuple(_fixture_pair_sampler(rng) for _ in range(n))
            run.check(relations_residual(twisted, n, pargs).is_zero(),
                      setting="fixture-twisted", arity=n, sample=k)

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
            run.check(relations_residual(csmall, n, args).is_zero(),
                      setting="coiso-small", arity=n, sample=k)
        for k in range(config.samples):
            pargs = []
            for _ in range(n):
                degw = rng.choice([-1, 0])
                x = random_multivector(rng, dims, degw + 2, 1)
                pargs.append(BigElt(x, _coiso_a_sampler(rng, dims, 1, arity=degw + 1)))
            run.check(relations_residual(cbig, n, tuple(pargs)).is_zero(),
                      setting="coiso-big", arity=n, sample=k)

    m = 3
    algebra = tpois_linfty(m)
    for n in range(1, config.max_arity + 1):
        for k in range(config.samples):
            args = tuple(
                random_tpois_element(rng, m, rng.choice([-1, 0, 1]), 2) for _ in range(n)
            )
            run.check(relations_residual(algebra, n, args).is_zero(),
                      setting="twisted-poisson", arity=n, sample=k)

    return run.report()


def suite_machine(config: RunConfig) -> dict:
    """Left/right vanishing agreement of the simultaneous-deformation check:
    random inputs must agree, engineered Maurer-Cartan ones vanish on both
    sides."""
    run = _Run("machine", config)
    rng = run.rng

    v = fixture_vdata()
    space = v.zero.space
    for k in range(config.samples):
        phi = fixture_mc_small(rng)
        dtilde = random_fixture_element(rng, 1)
        ptilde = random_fixture_a_element(rng, 0)
        rep = machine_check(v, phi, dtilde, ptilde)
        run.check(rep.agree, setting="fixture", sample=k, **rep.as_dict())
    for k in range(config.samples):
        alpha = fixture_mc_big(rng)
        rep = machine_check(v, space.zero(), alpha.x, alpha.a)
        run.check(rep.left_vanishes and rep.right_vanishes,
                  setting="fixture-engineered", sample=k, **rep.as_dict())

    dims = (1, 2)
    degree = min(config.max_poly_degree, 2)
    base = random_coiso_poisson(rng, dims, degree, require_flat=True)
    cv = coiso_vdata(base)
    zero = PolyMultivector.zero(dims)
    for k in range(config.samples):
        dtilde = random_multivector(rng, dims, 2, 1)
        ptilde = random_vertical_section(rng, dims, 1)
        rep = machine_check(cv, zero, dtilde, ptilde)
        run.check(rep.agree, setting="coiso", sample=k, **rep.as_dict())
    for k in range(config.samples):
        dtilde, ptilde = engineered_coiso_mc(rng, base, 1)
        rep = machine_check(cv, zero, dtilde, ptilde)
        run.check(rep.left_vanishes and rep.right_vanishes,
                  setting="coiso-engineered", sample=k, **rep.as_dict())

    return run.report()


def suite_truc(config: RunConfig) -> dict:
    """Twisting at the algebra level equals twisting at the quadruple level."""
    run = _Run("truc", config)
    rng = run.rng
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
                run.check(twisted.m(n, args) == quadruple.m(n, args), sample=k, arity=n)
    return run.report()


def suite_oracle(config: RunConfig) -> dict:
    """Direct twisted-Poisson brackets equal the coordinate-model oracle."""
    run = _Run("oracle", config)
    rng = run.rng
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
            run.check(direct.form_part == o_form and direct.mv_part == o_mv,
                      dim=m, sample=k, pattern=kind,
                      direct=repr(direct), oracle=repr((o_form, o_mv)))
    return run.report()


def suite_gauge(config: RunConfig) -> dict:
    """Gauge directions are tangent to the Maurer-Cartan set; the series over
    the multibrackets equals the closed form; generators match."""
    run = _Run("gauge", config)
    rng = run.rng
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
        run.check(d_form.is_zero() and d_mv.is_zero(), check="tangency", sample=k)

        series = gauge_field(algebra, TPoisElement(b, x), TPoisElement(h, pi))
        run.check(series.form_part == gf and series.mv_part == gm, check="series", sample=k)

        # the generator comparison needs the graph transform, hence safe data
        rep = generator_match(b_safe, x_safe, h, pi)
        run.check(rep.identity_holds and rep.symbolic_matches_closed_form,
                  check="generator", sample=k)
    return run.report()


def suite_flow(config: RunConfig) -> dict:
    """Flow curves: start point, tangency ODE, derivative at zero, and the
    closed form at vanishing flow direction.  Of the ``samples`` curves the
    first ceil(samples / 2) have a zero flow direction (four checks each),
    the rest a random one (three checks each)."""
    run = _Run("flow", config)
    rng = run.rng
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
        run.check(curve.at(Fraction(0)) == (h, pi), check="start", sample=k)
        run.check(not curve.ode_residual(), check="ode", sample=k)
        run.check(curve.derivative_at_zero() == gauge_Y(b, x, h, pi),
                  check="derivative", sample=k)
        if constant_zero:
            t0 = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            try:
                holds = curve.at(t0) == (h - de_rham(b).scale(t0), e_b_pi(b.scale(t0), pi))
            except GraphTransformError:
                holds = True  # the transform can be singular at the sampled time
            run.check(holds, check="closed-form", sample=k)
    return run.report()


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
