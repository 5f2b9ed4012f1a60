"""Acceptance gate: every criterion below runs with exact (zero-tolerance)
arithmetic at its stated sample size and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from derived_brackets.linfty import gauge_field, mc_residual, relations_residual, twist
from derived_brackets.polygeo import (
    PolyForm,
    PolyMultivector,
    coiso_projection,
    coiso_vdata,
    de_rham,
    fiber_translate,
    form,
    mv,
)
from derived_brackets.qgeom import (
    mv_to_super,
    oracle_bracket,
    standard_courant_vdata,
)
from derived_brackets.sampling import (
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
    random_twisted_pair,
    random_vertical_section,
)
from derived_brackets.tpois import (
    TPoisElement,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    mc_residual_derivative,
    tpois_bracket,
    tpois_linfty,
    tpois_mc_residual,
)
from derived_brackets.vdata import (
    BigElt,
    big_algebra,
    machine_check,
    small_algebra,
    twist_vdata,
)

SEED = 20260808


def _verdict(number: int, label: str, ok: bool) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status}", file=sys.stderr)
    return ok


def _coiso_a(rng, dims, degree, arity):
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


def test_criterion_1_higher_jacobi():
    """Relations residuals vanish on >= 50 seeded tuples per arity (1..4) for
    every shipped constructor in all three settings."""
    rng = random.Random(SEED)
    ok = True

    # (a) the nilpotent structure-constant quadruple (6 basis elements)
    v = fixture_vdata()
    small, big = small_algebra(v), big_algebra(v)
    alpha = fixture_mc_big(rng)
    twisted = twist(big, alpha)
    for n in range(1, 5):
        for _ in range(50):
            args = tuple(random_fixture_a_element(rng, rng.choice([0, 1])) for _ in range(n))
            ok &= relations_residual(small, n, args).is_zero()
            pargs = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            ok &= relations_residual(big, n, pargs).is_zero()
            pargs = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            ok &= relations_residual(twisted, n, pargs).is_zero()

    # (b) the coisotropic backend on R^1 x R^2 with |pi|_pol <= 2
    dims = (1, 2)
    pi = random_coiso_poisson(rng, dims, 2, require_flat=True)
    assert (pi.pol_degree() or 0) <= 2
    cv = coiso_vdata(pi)
    csmall, cbig = small_algebra(cv), big_algebra(cv)
    for n in range(1, 5):
        for _ in range(50):
            args = tuple(_coiso_a(rng, dims, 2, rng.choice([1, 2])) for _ in range(n))
            ok &= relations_residual(csmall, n, args).is_zero()
        for _ in range(12):
            pargs = []
            for _ in range(n):
                degw = rng.choice([-1, 0])
                x = random_multivector(rng, dims, degw + 2, 1)
                pargs.append(BigElt(x, _coiso_a(rng, dims, 1, degw + 1)))
            ok &= relations_residual(cbig, n, tuple(pargs)).is_zero()

    # (c) the twisted-Poisson algebra on R^3 with degree <= 2 coefficients
    algebra = tpois_linfty(3)
    for n in range(1, 5):
        for _ in range(50):
            args = tuple(
                random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 2) for _ in range(n)
            )
            ok &= relations_residual(algebra, n, args).is_zero()

    assert _verdict(1, "higher-Jacobi", ok)


def test_criterion_2_machine_double_check():
    """100 seeded samples in the structure-constant setting and 25 in the
    coisotropic one: the independently computed sides vanish together."""
    rng = random.Random(SEED + 1)
    ok = True

    v = fixture_vdata()
    positives = 0
    for k in range(100):
        if k % 4 == 0:  # engineered Maurer-Cartan deformations
            alpha = fixture_mc_big(rng)
            rep = machine_check(v, v.zero, alpha.x, alpha.a)
            ok &= rep.left_vanishes and rep.right_vanishes
            positives += 1
        else:
            phi = fixture_mc_small(rng)
            dtilde = random_fixture_element(rng, 1)
            ptilde = random_fixture_a_element(rng, 0)
            rep = machine_check(v, phi, dtilde, ptilde)
        ok &= rep.agree
    ok &= positives >= 25

    dims = (1, 2)
    base = random_coiso_poisson(rng, dims, 2, require_flat=True)
    cv = coiso_vdata(base)
    zero = PolyMultivector.zero(dims)
    for k in range(25):
        if k % 3 == 0:
            dtilde, ptilde = engineered_coiso_mc(rng, base, 1)
            rep = machine_check(cv, zero, dtilde, ptilde)
            ok &= rep.left_vanishes and rep.right_vanishes
        else:
            dtilde = random_multivector(rng, dims, 2, 1)
            ptilde = random_vertical_section(rng, dims, 1)
            rep = machine_check(cv, zero, dtilde, ptilde)
        ok &= rep.agree

    assert _verdict(2, "simultaneous-deformation double check", ok)


def test_criterion_3_twist_correspondence():
    """For 25 seeded Maurer-Cartan elements, the twisted algebra's brackets
    equal the twisted quadruple's brackets up to arity 4, exactly."""
    rng = random.Random(SEED + 2)
    v = fixture_vdata()
    big = big_algebra(v)
    ok = True
    for _ in range(25):
        alpha = fixture_mc_big(rng)
        twisted = twist(big, alpha)
        quadruple = big_algebra(twist_vdata(v, alpha))
        for n in range(1, 5):
            for _ in range(3):
                args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
                ok &= twisted.m(n, args) == quadruple.m(n, args)
    assert _verdict(3, "twist at algebra level == twist at quadruple level", ok)


def test_criterion_4_oracle_equality():
    """Direct twisted-Poisson brackets equal the coordinate-model oracle on
    50 seeded samples per bracket family (m <= 3, degree <= 3, arity <= 3+1)."""
    rng = random.Random(SEED + 3)
    ok = True

    def compare(m, args):
        direct = tpois_bracket(
            len(args),
            tuple(
                TPoisElement.of_mv(a) if isinstance(a, PolyMultivector)
                else TPoisElement.of_form(a)
                for a in args
            ),
        )
        o_form, o_mv = oracle_bracket(m, args)
        return direct.form_part == o_form and direct.mv_part == o_mv

    for k in range(50):  # family a: the differential
        m = rng.choice([2, 3])
        dims = (m, 0)
        if k % 2:
            ok &= compare(m, [random_form(rng, dims, rng.randint(1, m), 3)])
        else:
            ok &= compare(m, [random_multivector(rng, dims, rng.randint(1, m), 3)])

    for _ in range(50):  # family b: binary multivectors
        m = rng.choice([2, 3])
        dims = (m, 0)
        args = [random_multivector(rng, dims, rng.randint(1, m), 3) for _ in range(2)]
        ok &= compare(m, args)

    for _ in range(50):  # family c: one form with n multivectors, n <= 3
        m = rng.choice([2, 3])
        dims = (m, 0)
        n = rng.randint(1, min(3, m))
        q = rng.randint(1, m) if rng.randrange(3) == 0 else n  # include mismatches
        args = [random_form(rng, dims, q, 3)] + [
            random_multivector(rng, dims, rng.randint(1, 2), 3) for _ in range(n)
        ]
        ok &= compare(m, args)

    assert _verdict(4, "oracle equality", ok)


def test_criterion_5_mc_characterization():
    """50 seeded pairs: the series residual vanishes iff dH = 0 and
    [pi, pi] = 2 wedge3(pi)(H), including known positives and negatives."""
    rng = random.Random(SEED + 4)
    algebra = tpois_linfty(3)
    ok = True
    positives = negatives = 0
    pairs = [(form((3, 0), 1, None, (0, 1, 2)), mv((3, 0), 1, None, (0, 1)))]
    for _ in range(49):
        pairs.append(random_twisted_pair(rng, 3, 2, flavor="mixed"))
    for h, pi in pairs:
        series = mc_residual(algebra, TPoisElement(h, pi))
        ok &= series.terminated_by in ("bound", "filtration")
        dh, res = tpois_mc_residual(h, pi)
        closed = dh.is_zero() and res.is_zero()
        ok &= series.residual.is_zero() == closed
        positives += closed
        negatives += not closed
    ok &= positives > 0 and negatives > 0
    assert _verdict(5, "twisted-Poisson Maurer-Cartan characterization", ok)


def test_criterion_6_coisotropic_correspondence():
    """25 seeded (pi, Phi): the small-algebra residual vanishes iff the
    fiber-translated bivector projects to zero, and every summand beyond
    |pi|_pol + 2 is exactly zero."""
    rng = random.Random(SEED + 5)
    dims = (1, 2)
    ok = True
    positives = negatives = 0
    for _ in range(25):
        pi = random_coiso_poisson(rng, dims, 2)
        phi = random_vertical_section(rng, dims, 1)
        cv = coiso_vdata(pi)
        small = small_algebra(cv)
        report = mc_residual(small, phi)
        translated = coiso_projection(fiber_translate(pi, phi))
        ok &= report.residual.is_zero() == translated.is_zero()
        ok &= report.residual == translated  # the exponential route, exactly
        bound = max(pi.pol_degree() or 0, 0) + 2
        for extra in (1, 2):
            ok &= small.m(bound + extra, (phi,) * (bound + extra)).is_zero()
        positives += translated.is_zero()
        negatives += not translated.is_zero()
    ok &= positives > 0 and negatives > 0
    assert _verdict(6, "coisotropic correspondence", ok)


def test_criterion_7_gauge_tangency_and_generators():
    """25 seeded Maurer-Cartan points and 25 directions: exact tangency of the
    gauge field, exact generator matching, and gauge_Y == the series."""
    rng = random.Random(SEED + 6)
    algebra = tpois_linfty(3)
    ok = True
    for _ in range(25):
        h, pi, b_safe, x_safe = gauge_safe_data(rng, 3, 2)
        b, x = random_gauge_direction(rng, 3, 2, constant_field=True)

        gf, gm = gauge_Y(b, x, h, pi)
        d_form, d_mv = mc_residual_derivative(h, pi, gf, gm)
        ok &= d_form.is_zero() and d_mv.is_zero()

        series = gauge_field(algebra, TPoisElement(b, x), TPoisElement(h, pi))
        ok &= series.form_part == gf and series.mv_part == gm

        rep = generator_match(b_safe, x_safe, h, pi)
        ok &= rep.identity_holds and rep.symbolic_matches_closed_form
    assert _verdict(7, "gauge tangency and generators", ok)


def test_criterion_8_flow_curves():
    """10 seeded flows with X = 0 and 10 with constant nonzero X: polynomial
    tangency identity, correct start, derivative at zero equals the gauge
    field, and the zero-direction closed form (H - t dB, e^{tB} pi)."""
    rng = random.Random(SEED + 7)
    ok = True
    for k in range(20):
        zero_direction = k < 10
        h, pi, b, x = gauge_safe_data(rng, 3, 2, allow_constant_shear=zero_direction)
        if zero_direction:
            x = PolyMultivector.zero((3, 0))
        elif x.is_zero():
            x = mv((3, 0), 1, None, (0,))
        curve = flow_curve(b, x, h, pi)
        ok &= curve.at(Fraction(0)) == (h, pi)
        ok &= curve.ode_residual() == {}
        ok &= curve.derivative_at_zero() == gauge_Y(b, x, h, pi)
        if zero_direction:
            from derived_brackets.tpois import GraphTransformError

            try:
                t0 = Fraction(rng.randint(1, 3), 2)
                ft, mt = curve.at(t0)
                ok &= ft == h - de_rham(b).scale(t0)
                ok &= mt == e_b_pi(b.scale(t0), pi)
            except GraphTransformError:
                pass
    assert _verdict(8, "flow curves", ok)


def test_criterion_9_filtration_laws():
    """Filtration laws on basis elements for the coisotropic and coordinate
    model backends; Maurer-Cartan reports on filtered inputs are certified
    by a bound or a filtration."""
    rng = random.Random(SEED + 8)
    ok = True

    # coisotropic backend
    pi = random_coiso_poisson(rng, (1, 2), 2, require_flat=True)
    cv = coiso_vdata(pi)
    fdeg = cv.filtration
    for xx in cv.sample_basis:
        for yy in cv.sample_basis:
            bb = cv.bracket(xx, yy)
            if not bb.is_zero():
                ok &= fdeg(bb) >= fdeg(xx) + fdeg(yy)
        pxx = cv.project(xx)
        if not pxx.is_zero():
            ok &= fdeg(pxx) >= fdeg(xx)
    for aa in cv.a_basis:
        if not aa.is_zero() and aa.degree() == 0:
            ok &= fdeg(aa) >= 1

    # coordinate-model backend
    qv = standard_courant_vdata(2)
    qdeg = qv.filtration
    for xx in qv.sample_basis:
        for yy in qv.sample_basis:
            bb = qv.bracket(xx, yy)
            if not bb.is_zero():
                ok &= qdeg(bb) >= qdeg(xx) + qdeg(yy)
        pxx = qv.project(xx)
        if not pxx.is_zero():
            ok &= qdeg(pxx) >= qdeg(xx)
    ok &= qdeg(mv_to_super(mv((2, 0), 1, None, (0, 1)))) >= 1

    # Maurer-Cartan termination on filtered inputs is certified
    small = small_algebra(cv)
    for _ in range(10):
        phi = random_vertical_section(rng, (1, 2), 1)
        report = mc_residual(small, phi)
        ok &= report.terminated_by in ("filtration", "bound")
    v = fixture_vdata()
    for _ in range(10):
        report = mc_residual(small_algebra(v), fixture_mc_small(rng))
        ok &= report.terminated_by in ("filtration", "bound")
    algebra = tpois_linfty(3)
    for _ in range(10):
        h, pi = random_twisted_pair(rng, 3, 2)
        report = mc_residual(algebra, TPoisElement(h, pi))
        ok &= report.terminated_by in ("filtration", "bound")

    assert _verdict(9, "filtration laws", ok)
