"""Every certified series equals the same series summed to a fixed arity.

``mc_residual``, the brackets of ``twist`` and ``gauge_field`` stop at the
algebra's derived arity bound and check one more term.  Here each is compared
with the plain sum up to arity 12, past every bound in play, on seeded inputs
over the fixture (with its declared filtration and with the depth computed
from its table), coisotropic, Courant-model and twisted-Poisson algebras.
"""

import itertools
import math
import os
import random
from fractions import Fraction

from derived_brackets.cli import load_vdata
from derived_brackets.linfty import gauge_field, mc_residual, twist
from derived_brackets.polygeo import coiso_vdata, mv
from derived_brackets.qgeom import SuperPoly, standard_courant_vdata
from derived_brackets.sampling import (
    fixture_mc_big,
    fixture_mc_small,
    fixture_vdata,
    random_base_poly,
    random_coiso_poisson,
    random_fixture_a_element,
    random_fixture_element,
    random_fixture_pair,
    random_gauge_direction,
    random_multivector,
    random_tpois_element,
    random_twisted_pair,
    random_vertical_section,
)
from derived_brackets.tpois import TPoisElement, tpois_linfty
from derived_brackets.vdata import (
    BigElt,
    big_algebra,
    machine_check,
    small_algebra,
    twist_vdata,
)

ARITY = 12
UNFILTERED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "vdata_gla_unfiltered.json")


def summed(algebra, phi, fixed=(), start=0, fixed_first=False):
    """sum_{j >= start} (1/j!) m(phi^j, fixed) over every total arity <= 12."""
    total = algebra.zero
    for j in range(start, ARITY - len(fixed) + 1):
        args = fixed + (phi,) * j if fixed_first else (phi,) * j + fixed
        value = algebra.m(j + len(fixed), args)
        total = total + value.scale(Fraction(1, math.factorial(j)))
    return total


def assert_series_match(algebra, phi, alpha, arg_lists, z, at):
    """mc_residual at phi, the brackets twisted by alpha on each argument
    tuple, and the gauge field of z at ``at``, each against its plain sum."""
    start = 0 if algebra.curved else 1
    assert mc_residual(algebra, phi).residual == summed(algebra, phi, start=start)
    twisted = twist(algebra, alpha, check=False)
    for args in arg_lists:
        assert twisted.m(len(args), args) == summed(algebra, alpha, tuple(args))
    expected = summed(algebra, at, (z,), fixed_first=True)
    assert gauge_field(algebra, z, at) == expected


def test_fixture_series_match_the_fixed_arity_sum():
    rng = random.Random(71)

    def pairs(n):
        return tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))

    # the fixture with its declared filtration, and its table alone, where
    # every bound comes from the depth computed from the table
    for v, _ in itertools.product((fixture_vdata(), load_vdata(UNFILTERED)[0]), range(6)):
        small, big = small_algebra(v), big_algebra(v)
        phi = random_fixture_a_element(rng, 0)
        a_args = [tuple(random_fixture_a_element(rng, rng.choice([0, 1])) for _ in range(n))
                  for n in (1, 2, 3)]
        assert_series_match(small, phi, fixture_mc_small(rng), a_args, v.zero, phi)

        alpha = fixture_mc_big(rng)
        z, at = random_fixture_pair(rng, -1), random_fixture_pair(rng, 0)
        arg_lists = [pairs(n) for n in (1, 2, 3)]
        assert_series_match(big, random_fixture_pair(rng, 0), alpha, arg_lists, z, at)

        twisted = twist(big, alpha)
        assert_series_match(twisted, random_fixture_pair(rng, 0), random_fixture_pair(rng, 0),
                            [pairs(n) for n in (1, 2)], random_fixture_pair(rng, -1),
                            random_fixture_pair(rng, 0))


def _coiso_pair(rng, dims, degree, zero):
    """Homogeneous pair of L[1] (+) a: x of arity degree + 2, a vertical of
    arity degree + 1 with base coefficients."""
    m, k = dims
    x = random_multivector(rng, dims, degree + 2, 2) if degree + 2 <= m + k else zero
    a = zero
    for wedge in itertools.combinations(range(m, m + k), degree + 1):
        for mono, coef in random_base_poly(rng, dims, 1).items():
            a = a + mv(dims, coef, mono, wedge)
    return BigElt(x, a)


def _base_function(rng, dims, zero):
    out = zero
    for mono, coef in random_base_poly(rng, dims, 2).items():
        out = out + mv(dims, coef, mono, ())
    return out


def test_coisotropic_series_match_the_fixed_arity_sum():
    rng = random.Random(72)
    for dims in ((1, 2), (2, 2)):
        for _ in range(4):
            pi = random_coiso_poisson(rng, dims, 2)
            cv = coiso_vdata(pi)
            zero = cv.zero
            small = small_algebra(cv)
            a_args = [tuple(random_vertical_section(rng, dims, 1) for _ in range(n))
                      for n in (1, 2)]
            assert_series_match(small, random_vertical_section(rng, dims, 2),
                                random_vertical_section(rng, dims, 1), a_args,
                                _base_function(rng, dims, zero),
                                random_vertical_section(rng, dims, 1))

            cv = coiso_vdata(random_coiso_poisson(rng, dims, 2, require_flat=True))
            big = big_algebra(cv)
            arg_lists = [tuple(_coiso_pair(rng, dims, rng.choice([-1, 0, 1]), zero)
                               for _ in range(n)) for n in (1, 2)]
            assert_series_match(big, _coiso_pair(rng, dims, 0, zero),
                                _coiso_pair(rng, dims, 0, zero), arg_lists,
                                _coiso_pair(rng, dims, -1, zero),
                                _coiso_pair(rng, dims, 0, zero))


def test_coisotropic_twist_and_gauge_reach_high_fiber_degree():
    # x = p1^3 p2^2 d_p1 survives five insertions of a constant vertical
    # field, so twisting by alpha = (0, d_p1 + 2 d_p2) reaches m_6 from a
    # unary bracket, and the gauge series of (x, 0) runs to arity 6
    dims = (1, 2)
    cv = coiso_vdata(mv(dims, 1, None, (0, 1)))
    big = big_algebra(cv)
    zero = cv.zero
    alpha = BigElt(zero, mv(dims, 1, None, (1,)) + mv(dims, 2, None, (2,)))
    assert mc_residual(big, alpha).residual.is_zero()
    x = BigElt(mv(dims, 1, (0, 3, 2), (1,)), zero)
    twisted = twist(big, alpha)
    # the projection kills every term short of the sixth insertion
    assert twisted.m(1, (x,)) != big.m(1, (x,))
    assert twisted.m(1, (x,)) == summed(big, alpha, (x,))
    other = BigElt(mv(dims, 1, (1, 2, 1), (0, 2)), zero)
    assert twisted.m(2, (x, other)) == summed(big, alpha, (x, other))
    assert gauge_field(big, x, alpha) == summed(big, alpha, (x,), fixed_first=True)
    assert gauge_field(twisted, x, alpha) == summed(twisted, alpha, (x,), fixed_first=True)


def _qpoly(rng, **letters):
    total = SuperPoly.zero(2)
    for _ in range(rng.randint(1, 2)):
        x = tuple(rng.randint(0, 1) for _ in range(2))
        total = total + SuperPoly.monomial(2, rng.randint(-2, 2), x=x, **letters)
    return total


def test_courant_model_series_match_the_fixed_arity_sum():
    rng = random.Random(73)
    qv = standard_courant_vdata(2)
    small, big = small_algebra(qv), big_algebra(qv)
    for _ in range(4):
        a_args = [(_qpoly(rng, p=(0,)),), (_qpoly(rng, p=(0, 1)), _qpoly(rng, p=(1,)))]
        assert_series_match(small, _qpoly(rng, p=(0, 1)), _qpoly(rng, p=(0, 1)), a_args,
                            _qpoly(rng, p=(rng.randrange(2),)), _qpoly(rng, p=(0, 1)))

        def pair():
            x = _qpoly(rng, P=(1, 0), v=(1,)) + _qpoly(rng, p=(0,), v=(0, 1))
            return BigElt(x, _qpoly(rng, p=(0, 1)))

        z = BigElt(_qpoly(rng, P=(0, 1)) + _qpoly(rng, v=(0, 1)), _qpoly(rng, p=(1,)))
        assert_series_match(big, pair(), pair(), [(pair(),), (pair(), z)], z, pair())


def test_twisted_poisson_series_match_the_fixed_arity_sum():
    rng = random.Random(74)
    for m in (2, 3, 4):
        algebra = tpois_linfty(m)
        for _ in range(3):
            phi = TPoisElement(*random_twisted_pair(rng, m, 1))
            alpha = TPoisElement(*random_twisted_pair(rng, m, 1))
            arg_lists = [tuple(random_tpois_element(rng, m, rng.choice([-1, 0, 1]), 1)
                               for _ in range(n)) for n in (1, 2, 3)]
            z = TPoisElement(*random_gauge_direction(rng, m, 1, constant_field=False))
            assert_series_match(algebra, phi, alpha, arg_lists, z, alpha)


# -- the depth computed from a structure-constant table ---------------------------------


def _chain_oracle_depth(v, x):
    """Largest n with a nonzero chain [..[x, a_1], .., a_n] of subalgebra
    basis elements, by enumerating the chains (the chains of length n span
    all of them by linearity)."""
    layer, n = [x], 0
    while True:
        layer = [y for y in (v.bracket(w, a) for w in layer for a in v.a_basis)
                 if not y.is_zero()]
        if not layer:
            return n
        n += 1


def test_computed_depth_is_exact_and_below_the_declared_one():
    declared = fixture_vdata()
    computed = load_vdata(UNFILTERED)[0]
    rng = random.Random(75)
    elements = list(declared.sample_basis) + [declared.zero]
    elements += [random_fixture_element(rng, rng.choice([0, 1, 2])) for _ in range(150)]
    elements += [random_fixture_pair(rng, rng.choice([-1, 0, 1])).x for _ in range(60)]
    lower = 0
    for x in elements:
        depth = computed.depth(x)
        assert depth == _chain_oracle_depth(computed, x)
        assert depth <= declared.depth(x)
        lower += depth < declared.depth(x)
    assert len(elements) >= 200 and lower > 0
    # a and c: the subalgebra is abelian, so no chain from them survives
    assert [computed.depth(computed.zero.space.gen(n)) for n in "acbuvw"] == [0, 0, 0, 2, 1, 0]


def test_computed_depth_decides_the_series_as_the_filtration_does():
    declared = fixture_vdata()
    computed = load_vdata(UNFILTERED)[0]
    rng = random.Random(76)
    algebras = [(small_algebra(declared), small_algebra(computed)),
                (big_algebra(declared), big_algebra(computed))]
    for k in range(200):
        if k % 2 == 0:
            phi = fixture_mc_small(rng) if k % 4 == 0 else random_fixture_a_element(rng, 0)
            filtered, unfiltered = algebras[0]
        else:
            phi = fixture_mc_big(rng) if k % 4 == 1 else random_fixture_pair(rng, 0)
            filtered, unfiltered = algebras[1]
        assert mc_residual(unfiltered, phi) == mc_residual(filtered, phi)

    big, big_computed = algebras[1]
    for _ in range(60):
        alpha = fixture_mc_big(rng)
        args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1]))
                     for _ in range(rng.randint(1, 3)))
        n = len(args)
        assert twist(big_computed, alpha).m(n, args) == twist(big, alpha).m(n, args)
        lhs, rhs = twist_vdata(computed, alpha), twist_vdata(declared, alpha)
        assert lhs.delta == rhs.delta
        assert [lhs.project(x) for x in lhs.sample_basis] == [
            rhs.project(x) for x in rhs.sample_basis]
        drawn = (fixture_mc_small(rng), random_fixture_element(rng, 1),
                 random_fixture_a_element(rng, 0))
        assert machine_check(computed, *drawn) == machine_check(declared, *drawn)
