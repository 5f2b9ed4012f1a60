"""The scalar rule: a coefficient is an ``int`` while it is integral and a
``Fraction`` only where a division leaves a remainder; never a float.

(a) With integral inputs the operations that do not divide store ints only.
(b) The geometry and series results, which divide by determinants and
    factorials, hold ints and non-integral Fractions, and no float.
"""

import random
from fractions import Fraction

import pytest

from derived_brackets.graded import DirectSum, HomElt
from derived_brackets.linfty import gauge_field, mc_residual
from derived_brackets.polygeo import (
    _WedgeElement,
    coiso_vdata,
    de_rham,
    multi_sharp,
    schouten,
)
from derived_brackets.sampling import (
    fixture_vdata,
    gauge_safe_data,
    random_base_poly,
    random_coiso_poisson,
    random_fixture_pair,
    random_form,
    random_multivector,
    random_tpois_element,
    random_vertical_section,
)
from derived_brackets.tpois import (
    GraphTransformError,
    TPoisElement,
    _adjugate_times,
    _charpoly,
    e_b_pi,
    flow_curve,
    generator_match,
    is_twisted_poisson,
    tpois_bracket,
    tpois_linfty,
)
from derived_brackets.vdata import BigElt, big_algebra


def coefficients(value):
    """Every scalar coefficient stored in an element, a pair of elements, a
    curve of elements or a matrix or vector of Curves."""
    if isinstance(value, (_WedgeElement, HomElt)):
        yield from value.terms.values()
    elif isinstance(value, DirectSum):
        yield from coefficients(value.first)
        yield from coefficients(value.second)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from coefficients(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from coefficients(item)
    else:
        yield value


def assert_ints(value):
    coefs = list(coefficients(value))
    assert all(type(c) is int for c in coefs), [c for c in coefs if type(c) is not int]


def assert_exact(value):
    for c in coefficients(value):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


# -- (a) integral inputs stay integral ------------------------------------------------


def test_random_base_poly_returns_ints():
    # the raw dict reaches the suites and the benchmark's samplers without an
    # element's normalization, so it must follow the rule itself
    for seed in range(3):
        rng = random.Random(seed)
        for dims, degree, fiber_degree in (((2, 0), 2, 0), ((1, 2), 2, 2), ((3, 0), 3, 0)):
            for _ in range(10):
                poly = random_base_poly(rng, dims, degree, fiber_degree)
                assert all(type(c) is int for c in poly.values()), poly


@pytest.mark.parametrize("dims", [(3, 0), (1, 2)])
def test_schouten_stores_ints(dims):
    rng = random.Random(11)
    for _ in range(20):
        u = random_multivector(rng, dims, rng.randint(0, 2), 2)
        v = random_multivector(rng, dims, rng.randint(0, 2), 2)
        assert_ints(u)
        assert_ints(schouten(u, v))


def test_multi_sharp_and_de_rham_store_ints():
    rng = random.Random(12)
    dims = (4, 0)
    for n in (1, 2, 3):
        for _ in range(8):
            pis = [random_multivector(rng, dims, rng.randint(1, 3), 2) for _ in range(n)]
            w = random_form(rng, dims, n, 2)
            assert_ints(multi_sharp(pis, w))
            assert_ints(de_rham(w))


def test_tpois_bracket_stores_ints():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            args = tuple(random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 2)
                         for _ in range(n))
            assert_ints(tpois_bracket(n, args))


def test_big_m_on_the_fixture_stores_ints():
    rng = random.Random(14)
    big = big_algebra(fixture_vdata())
    for n in (1, 2, 3):
        for _ in range(10):
            args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            assert_ints(big.m(n, args))


def test_big_m_on_the_coisotropic_quadruple_stores_ints():
    rng = random.Random(15)
    dims = (1, 2)
    for _ in range(4):
        big = big_algebra(coiso_vdata(random_coiso_poisson(rng, dims, 2, require_flat=True)))
        for n in (1, 2, 3):
            args = tuple(
                BigElt(random_multivector(rng, dims, 1, 1), random_vertical_section(rng, dims, 1))
                for _ in range(n)
            )
            assert_ints(big.m(n, args))


def _integral_curve_matrix(rng, m):
    def entry():
        if rng.randrange(3) == 0:
            return {}
        mono = tuple(rng.randint(0, 1) for _ in range(m))
        return {rng.randint(0, 1): {mono: rng.choice([-2, -1, 1, 3])}}
    return [[entry() for _ in range(m)] for _ in range(m)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_charpoly_and_adjugate_store_ints(m):
    rng = random.Random(16 + m)
    one = {0: {(0,) * m: 1}}
    for _ in range(3):
        matrix = _integral_curve_matrix(rng, m)
        coeffs = _charpoly(matrix, one)
        assert_ints(coeffs)
        assert_ints(_adjugate_times(matrix, coeffs, _integral_curve_matrix(rng, m)))


# -- (b) results that divide hold exact scalars only ----------------------------------


@pytest.mark.parametrize("m", [3, 4, 5])
def test_geometry_and_series_hold_exact_scalars(m):
    rng = random.Random(100 + m)
    algebra = tpois_linfty(m)
    matched = 0
    for k in range(6):
        h, pi, b, x = gauge_safe_data(rng, m, 2, allow_constant_shear=k % 2 == 0)
        at = TPoisElement(h, pi)
        assert_exact(mc_residual(algebra, at).residual)
        assert_exact(gauge_field(algebra, TPoisElement(b, x), at))
        assert_exact(e_b_pi(b.scale(Fraction(1, 3)), pi))
        curve = flow_curve(b, x, h, pi)
        assert_exact(curve.mv_numerator)
        assert_exact(curve.denominator)
        assert_exact(curve.ode_residual())
        for t in (Fraction(1, 2), 1):
            try:
                assert_exact(curve.at(t))
            except GraphTransformError:
                pass  # the determinant can vanish at the sampled time
        if is_twisted_poisson(h, pi):
            report = generator_match(b, x, h, pi)
            assert_exact((report.gauge, report.generator))
            matched += 1
    assert matched
