"""``multi_sharp`` against the per-monomial definition.

The library contracts each distinct wedge dx_J of the form once and then
multiplies by its polynomial coefficient.  The reference below is the direct
definition: for every monomial of the form and every permutation sigma of
S_n, wedge sign(sigma) * coef * pi_1^sharp(xi_sigma(1)) ^ .. ^
pi_n^sharp(xi_sigma(n)), with n * n! sharps per monomial.
"""

import itertools
import random
from fractions import Fraction

import pytest

from derived_brackets.graded import inversion_parity
from derived_brackets.polygeo import (
    PolyForm,
    PolyMultivector,
    form,
    multi_sharp,
    mv,
    sharp,
    wedge,
)


def reference_multi_sharp(pis, w):
    n = len(pis)
    dims = w.dims
    out = PolyMultivector.zero(dims)
    for (mono, legs), coef in w.terms.items():
        covectors = [form(dims, 1, None, (leg,)) for leg in legs]
        for perm in itertools.permutations(range(n)):
            sign = -1 if inversion_parity(perm) else 1
            product = mv(dims, coef * sign, mono, ())
            for i in range(n):
                product = wedge(product, sharp(pis[i], covectors[perm[i]]))
                if product.is_zero():
                    break
            out = out + product
    return out


def _coef(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.choice([1, 1, 2, 3]))


def _mono(rng, m):
    mono = [0] * m
    for _ in range(rng.randint(0, 2)):
        mono[rng.randrange(m)] += 1
    return tuple(mono)


def _multivector(rng, m, legs):
    """Terms of mixed arity 1..min(3, m) on the given legs."""
    total = PolyMultivector.zero((m, 0))
    for _ in range(rng.randint(2, 4)):
        arity = rng.randint(1, min(3, len(legs)))
        wedge = tuple(sorted(rng.sample(legs, arity)))
        total = total + mv((m, 0), _coef(rng), _mono(rng, m), wedge)
    return total


def _form(rng, m, n):
    """Several wedges, each with several monomials."""
    wedges = list(itertools.combinations(range(m), n))
    total = PolyForm.zero((m, 0))
    for wedge in rng.sample(wedges, min(len(wedges), rng.randint(2, 4))):
        for _ in range(rng.randint(2, 3)):
            total = total + form((m, 0), _coef(rng), _mono(rng, m), wedge)
    return total


CASES = [(m, n) for m in range(2, 6) for n in range(1, 5) if n <= m]


@pytest.mark.parametrize("m,n", CASES)
def test_multi_sharp_equals_per_monomial_definition(m, n):
    rng = random.Random(1000 * m + n)
    nonzero = 0
    for _ in range(6):
        w = _form(rng, m, n)
        pis = [_multivector(rng, m, list(range(m))) for _ in range(n)]
        expected = reference_multi_sharp(pis, w)
        got = multi_sharp(pis, w)
        assert got == expected
        assert repr(got) == repr(expected)
        nonzero += not expected.is_zero()
    assert nonzero >= 3


@pytest.mark.parametrize("m,n", [(m, n) for m, n in CASES if n < m])
def test_multi_sharp_vanishing_draws(m, n):
    """The last multivector avoids every leg of the form (so every product
    dies), or the form is zero: both routes give exactly zero."""
    rng = random.Random(7 * m + n)
    dims = (m, 0)
    for _ in range(3):
        wedge = tuple(range(n))
        w = PolyForm.zero(dims)
        for _ in range(2):
            w = w + form(dims, _coef(rng), _mono(rng, m), wedge)
        pis = [_multivector(rng, m, list(range(m))) for _ in range(n - 1)]
        pis.append(_multivector(rng, m, list(range(n, m))))
        assert reference_multi_sharp(pis, w).is_zero()
        assert multi_sharp(pis, w).is_zero()
        assert multi_sharp(pis, PolyForm.zero(dims)).is_zero()
