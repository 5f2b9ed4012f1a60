"""The closed Maurer-Cartan residuals of the derived-bracket algebras agree
with their series, and algebras derived by replacing the brackets drop them.

small: sum_n (1/n!) m_n(phi, .., phi) = P e^{[., phi]} Delta
big:   sum_n (1/n!) m_n(alpha, .., alpha)
           = (-1/2 [Delta + x, Delta + x][1], P e^{[., phi]} (Delta + x))
"""

import dataclasses
import itertools
import random

import pytest

from derived_brackets.graded import DirectSum
from derived_brackets.linfty import (
    MCError,
    NonTerminatingSeriesError,
    checked_mc_residual,
    mc_residual,
    twist,
)
from derived_brackets.polygeo import PolyMultivector, coiso_vdata
from derived_brackets.qgeom import SuperPoly, standard_courant_vdata
from derived_brackets.sampling import (
    engineered_coiso_mc,
    fixture_mc_big,
    fixture_mc_small,
    fixture_vdata,
    random_coiso_poisson,
    random_fixture_a_element,
    random_fixture_pair,
    random_multivector,
    random_vertical_section,
)
from derived_brackets.vdata import (
    BigElt,
    big_algebra,
    deform_vdata,
    restrict,
    small_algebra,
    twist_vdata,
)


def _typed(e):
    """Every coefficient with its type, so that int 2 and Fraction(2) differ."""
    if isinstance(e, DirectSum):
        return _typed(e.first), _typed(e.second)
    return sorted((repr(k), type(c).__name__, c) for k, c in e.terms.items())


def _fixture_cases(rng):
    v = fixture_vdata()
    deformed = [deform_vdata(v, fixture_mc_small(rng)) for _ in range(3)]
    # off the Maurer-Cartan set P_phi(Delta) survives: curved small algebras
    curved = []
    while len(curved) < 3:
        q = deform_vdata(v, random_fixture_a_element(rng, 0))
        if q.curved:
            curved.append(q)
    assert not any(q.curved for q in deformed)
    for q in [v] + deformed:
        big, small = big_algebra(q), small_algebra(q)
        for _ in range(40):
            yield big, random_fixture_pair(rng, 0)
            yield big, fixture_mc_big(rng)
            yield small, random_fixture_a_element(rng, 0)
            yield small, fixture_mc_small(rng)
    for q in curved:
        small = small_algebra(q)
        for _ in range(20):
            yield small, random_fixture_a_element(rng, 0)
            yield small, fixture_mc_small(rng)


def _coiso_cases(rng):
    for dims in ((1, 2), (2, 2), (1, 3)):
        for _ in range(8):
            pi = random_coiso_poisson(rng, dims, 2)
            q = coiso_vdata(pi)
            small = small_algebra(q)
            for _ in range(4):
                yield small, random_vertical_section(rng, dims, 1)
            if q.curved:
                continue
            big = big_algebra(q)
            for _ in range(3):
                yield big, BigElt(random_multivector(rng, dims, 2, 1),
                                  random_vertical_section(rng, dims, 1))
                yield big, BigElt(*engineered_coiso_mc(rng, pi, 1))
                yield big, BigElt(PolyMultivector.zero(dims), random_vertical_section(rng, dims, 1))


def _super(rng, dim, degree, base_image):
    """A random sum of model monomials of one degree; ``base_image`` keeps to
    the letters x and p of the subalgebra, which has no element of model
    degree 2 but zero at dim 1 (p_1 p_1 = 0)."""
    shapes = []
    for P in itertools.product((0, 1), repeat=dim):
        if base_image and any(P):
            continue
        for np_, nv in itertools.product(range(dim + 1), repeat=2):
            if 2 * sum(P) + np_ + nv == degree and not (base_image and nv):
                shapes.append((P, np_, nv))
    total = SuperPoly.zero(dim)
    for _ in range(rng.randint(0, 3) if shapes else 0):
        P, np_, nv = rng.choice(shapes)
        x = tuple(rng.randint(0, 1) for _ in range(dim))
        p = tuple(sorted(rng.sample(range(dim), np_)))
        v = tuple(sorted(rng.sample(range(dim), nv)))
        total = total + SuperPoly.monomial(dim, rng.randint(-3, 3), x, P, p, v)
    return total


def _courant_cases(rng):
    for dim in (1, 2):
        q = standard_courant_vdata(dim)
        small, big = small_algebra(q), big_algebra(q)
        for _ in range(60):
            # degree 0 in the shifted grading is model degree 2 on the
            # subalgebra and model degree 3 for an L[1] part
            phi = _super(rng, dim, 2, base_image=True)
            yield small, phi
            yield big, BigElt(_super(rng, dim, 3, base_image=False), phi)


def test_closed_residuals_match_the_series_exactly():
    rng = random.Random(23)
    cases = list(itertools.chain(_fixture_cases(rng), _coiso_cases(rng), _courant_cases(rng)))
    nonzero = 0
    for algebra, phi in cases:
        series = mc_residual(algebra, phi).residual
        closed = checked_mc_residual(algebra, phi)
        assert closed == series, (algebra.name, phi)
        assert repr(closed) == repr(series)
        assert _typed(closed) == _typed(series)
        nonzero += not series.is_zero()
    assert len(cases) >= 1000
    # both flat and non-flat inputs are compared
    assert 200 < nonzero < len(cases) - 200


def test_closed_route_raises_what_the_series_raises():
    v = fixture_vdata()
    space = v.zero.space
    cases = [
        # degree check
        (big_algebra(v), BigElt(space.gen("w"), v.zero), ValueError, "degree 0"),
        (small_algebra(v), space.gen("b"), ValueError, "degree 0"),
        # the filtration bound needs Maurer-Cartan inputs in F^1
        (big_algebra(dataclasses.replace(v, filtration=lambda x: 0)),
         BigElt(v.zero, space.gen("a")), ValueError, "filtration degree >= 1"),
        # no depth, no arity bound
        (small_algebra(dataclasses.replace(v, depth=None)), space.gen("a"),
         NonTerminatingSeriesError, "no arity bound"),
    ]
    for algebra, phi, error, message in cases:
        assert algebra.closed_residual is not None
        with pytest.raises(error, match=message):
            mc_residual(algebra, phi)
        with pytest.raises(error, match=message):
            checked_mc_residual(algebra, phi)


def test_exp_ad_certifies_the_closed_route():
    # a depth that claims every chain is empty: the series' certificate term
    # and the exponential's surviving term both expose it
    v = dataclasses.replace(fixture_vdata(), depth=lambda x: 0)
    phi = v.zero.space.gen("a")
    algebra = small_algebra(v)
    with pytest.raises(NonTerminatingSeriesError, match="arity bound 0"):
        mc_residual(algebra, phi)
    with pytest.raises(NonTerminatingSeriesError, match="no depth of"):
        checked_mc_residual(algebra, phi)


def test_a_twisted_algebra_sums_its_own_series():
    rng = random.Random(31)
    v = fixture_vdata()
    big = big_algebra(v)
    twisted = twist(big, fixture_mc_big(rng))
    assert twisted.closed_residual is None
    differs = 0
    for _ in range(10):
        beta = random_fixture_pair(rng, 0)
        residual = checked_mc_residual(twisted, beta)
        assert residual == mc_residual(twisted, beta).residual
        # the parent's closed form answers for the parent, not for the twist
        differs += residual != big.closed_residual(beta)
    assert differs


def test_a_restricted_algebra_checks_its_twisting_element():
    v = fixture_vdata()
    space = v.zero.space
    kernel = ("u", "v", "w")
    restricted = restrict(v, big_algebra(v), lambda x: set(x.terms) <= set(kernel),
                          [space.gen(n) for n in kernel])
    assert restricted.closed_residual is None
    rng = random.Random(5)
    alpha = fixture_mc_big(rng)
    while "b" not in alpha.x.terms:  # outside L' = span(u, v, w)
        alpha = fixture_mc_big(rng)
    with pytest.raises(ValueError, match="argument outside the restricted subspace"):
        twist(restricted, alpha)


def test_twist_vdata_reports_the_closed_residual():
    rng = random.Random(41)
    v = fixture_vdata()
    big = big_algebra(v)
    for _ in range(20):
        alpha = random_fixture_pair(rng, 0)
        series = mc_residual(big, alpha).residual
        if series.is_zero():
            continue
        with pytest.raises(MCError) as info:
            twist_vdata(v, alpha)
        assert info.value.residual == series
        assert _typed(info.value.residual) == _typed(series)


def test_twist_vdata_rejects_a_direction_outside_the_subalgebra_first():
    # alpha = (0, c) with c outside a is no element of L[1] (+) a: the twisted
    # quadruple's projection P_c rejects it before any residual is read (the
    # series, which evaluates any element, gives the nonzero residual 4b)
    v = dataclasses.replace(fixture_vdata(), in_a=lambda x: set(x.terms) <= {"a", "b"})
    alpha = BigElt(v.zero, v.zero.space.gen("c"))
    assert mc_residual(big_algebra(v), alpha).residual.a == v.zero.space.gen("b", 4)
    with pytest.raises(ValueError, match="must lie in the abelian subalgebra"):
        twist_vdata(v, alpha)
