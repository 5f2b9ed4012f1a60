import itertools
import random
from fractions import Fraction

import pytest

from derived_brackets import qgeom
from derived_brackets.graded import settle
from derived_brackets.polygeo import form, mv
from derived_brackets.qgeom import (
    DictionaryError,
    SuperPoly,
    canonical_delta,
    eval_on_base,
    form_to_super,
    in_base_image,
    mv_to_super,
    oracle_bracket,
    standard_courant_vdata,
    super_bracket,
    super_to_form,
    super_to_mv,
)
from derived_brackets.vdata import validate_vdata


def rand_super(rng: random.Random, dim: int, terms: int = 3) -> SuperPoly:
    total = SuperPoly.zero(dim)
    for _ in range(terms):
        x = tuple(rng.randint(0, 2) for _ in range(dim))
        P = tuple(rng.randint(0, 1) for _ in range(dim))
        p = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
        v = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
        total = total + SuperPoly.monomial(dim, rng.randint(-3, 3), x, P, p, v)
    return total


def test_base_relations():
    m = 2
    P1 = SuperPoly.monomial(m, 1, P=(1, 0))
    x1 = SuperPoly.monomial(m, 1, x=(1, 0))
    x2 = SuperPoly.monomial(m, 1, x=(0, 1))
    p1 = SuperPoly.monomial(m, 1, p=(0,))
    p2 = SuperPoly.monomial(m, 1, p=(1,))
    v1 = SuperPoly.monomial(m, 1, v=(0,))
    one = SuperPoly.monomial(m, 1)
    assert super_bracket(P1, x1) == one
    assert super_bracket(P1, x2).is_zero()
    assert super_bracket(p1, v1) == one
    assert super_bracket(p1, p2).is_zero()
    assert super_bracket(v1, p1) == one
    assert super_bracket(x1, P1) == -1 * one


def test_degrees():
    m = 3
    assert SuperPoly.monomial(m, 1, x=(2, 0, 0)).degree() == 0
    assert SuperPoly.monomial(m, 1, p=(0,), v=(1,)).degree() == 2
    assert SuperPoly.monomial(m, 1, P=(1, 0, 0), v=(0,)).degree() == 3
    assert canonical_delta(m).degree() == 3


def test_delta_squares_to_zero_up_to_dim_four():
    for m in (1, 2, 3, 4):
        delta = canonical_delta(m)
        assert super_bracket(delta, delta).is_zero()
        assert eval_on_base(delta).is_zero()


def test_graded_antisymmetry_on_random_cubics():
    rng = random.Random(1)
    m = 2
    for _ in range(40):
        f = rand_super(rng, m)
        g = rand_super(rng, m)
        for df, fpart in f.components():
            for dg, gpart in g.components():
                sign = (-1) ** (((df - 2) * (dg - 2)) % 2)
                lhs = super_bracket(fpart, gpart)
                rhs = super_bracket(gpart, fpart).scale(-sign)
                assert lhs == rhs


def test_graded_jacobi_on_random_cubics():
    rng = random.Random(2)
    m = 2
    for _ in range(25):
        f = rand_super(rng, m, 2)
        g = rand_super(rng, m, 2)
        h = rand_super(rng, m, 2)
        for df, fp in f.components():
            for dg, gp in g.components():
                for _dh, hp in h.components():
                    lhs = super_bracket(fp, super_bracket(gp, hp))
                    rhs = super_bracket(super_bracket(fp, gp), hp) + super_bracket(
                        gp, super_bracket(fp, hp)
                    ).scale((-1) ** (((df - 2) * (dg - 2)) % 2))
                    assert lhs == rhs


def test_bracket_is_a_biderivation():
    rng = random.Random(3)
    m = 2
    for _ in range(25):
        f = rand_super(rng, m, 2)
        g = rand_super(rng, m, 2)
        h = rand_super(rng, m, 2)
        for df, fp in f.components():
            for dg, gp in g.components():
                lhs = super_bracket(fp, gp.product(h))
                rhs = super_bracket(fp, gp).product(h)
                for dh, hp in h.components():
                    rhs = rhs + gp.product(super_bracket(fp, hp)).scale(
                        (-1) ** (((df - 2) * dg) % 2)
                    )
                # gp.product over mixed h handled by bilinearity of product
                assert lhs == rhs


def test_eval_on_base_examples_and_idempotence():
    m = 2
    f = SuperPoly.monomial(m, 1, x=(1, 0), p=(0,), P=(0, 1))
    assert eval_on_base(f).is_zero()
    g = SuperPoly.monomial(m, 1, x=(1, 0), p=(0, 1))
    assert eval_on_base(g) == g
    rng = random.Random(4)
    for _ in range(20):
        h = rand_super(rng, m)
        assert eval_on_base(eval_on_base(h)) == eval_on_base(h)


def test_kernel_of_projection_is_bracket_closed():
    rng = random.Random(5)
    m = 2
    for _ in range(30):
        f = rand_super(rng, m)
        g = rand_super(rng, m)
        kf = f - eval_on_base(f)
        kg = g - eval_on_base(g)
        assert eval_on_base(super_bracket(kf, kg)).is_zero()


def test_dictionaries():
    m = 3
    u = mv((m, 0), 1, None, (0, 1))
    assert mv_to_super(u) == SuperPoly.monomial(m, 1, p=(0, 1))
    w = form((m, 0), 1, None, (0, 1, 2))
    assert form_to_super(w) == SuperPoly.monomial(m, 1, v=(0, 1, 2))
    f = mv((m, 0), 2, (1, 0, 2), ())
    assert super_to_mv(mv_to_super(f)) == f
    assert super_to_form(form_to_super(w)) == w


def test_dictionaries_are_algebra_maps():
    rng = random.Random(6)
    m = 2
    from derived_brackets.polygeo import wedge
    from derived_brackets.sampling import random_multivector

    for _ in range(10):
        a = random_multivector(rng, (m, 0), 1, 2)
        b = random_multivector(rng, (m, 0), 1, 2)
        assert mv_to_super(wedge(a, b)) == mv_to_super(a).product(mv_to_super(b))


def test_dictionary_inverse_rejects_stray_letters():
    m = 2
    with pytest.raises(DictionaryError):
        super_to_mv(SuperPoly.monomial(m, 1, v=(0,)))
    with pytest.raises(DictionaryError):
        super_to_form(canonical_delta(m))


def test_form_images_lie_in_the_projection_kernel():
    rng = random.Random(7)
    from derived_brackets.sampling import random_form

    for _ in range(10):
        w = random_form(rng, (3, 0), rng.randint(1, 3), 2)
        assert eval_on_base(form_to_super(w)).is_zero()


def test_model_quadruple_validates():
    for m in (1, 2, 3):
        assert validate_vdata(standard_courant_vdata(m)).ok


def test_oracle_unary_on_multivector_vanishes():
    rng = random.Random(8)
    from derived_brackets.sampling import random_multivector

    for _ in range(8):
        u = random_multivector(rng, (3, 0), rng.randint(1, 3), 2)
        fo, mvp = oracle_bracket(3, [u])
        assert fo.is_zero() and mvp.is_zero()


def test_oracle_binary_on_two_forms_vanishes():
    rng = random.Random(9)
    from derived_brackets.sampling import random_form

    for _ in range(8):
        w1 = random_form(rng, (3, 0), rng.randint(1, 3), 2)
        w2 = random_form(rng, (3, 0), rng.randint(1, 3), 2)
        fo, mvp = oracle_bracket(3, [w1, w2])
        assert fo.is_zero() and mvp.is_zero()


def test_oracle_unary_on_form_is_minus_de_rham():
    from derived_brackets.polygeo import de_rham
    from derived_brackets.sampling import random_form

    rng = random.Random(10)
    for _ in range(8):
        w = random_form(rng, (3, 0), rng.randint(1, 3), 2)
        fo, mvp = oracle_bracket(3, [w])
        assert fo == -1 * de_rham(w)
        assert mvp.is_zero()


def test_filtration_laws_for_the_model():
    # (a) superadditivity of the level, (b) bivector images in level >= 1,
    # (c) evaluation does not decrease the level
    v = standard_courant_vdata(2)
    fdeg = v.filtration
    for x in v.sample_basis:
        for y in v.sample_basis:
            b = v.bracket(x, y)
            if not b.is_zero():
                assert fdeg(b) >= fdeg(x) + fdeg(y)
        px = v.project(x)
        if not px.is_zero():
            assert fdeg(px) >= fdeg(x)
    bivector_image = mv_to_super(mv((2, 0), 1, None, (0, 1)))
    assert fdeg(bivector_image) >= 1


# -- the one-pass bracket against the per-term chained bracket -------------------


def chained_product(dim, left, right):
    """The graded-commutative product as a chain of settled SuperPolys."""
    out = {}
    for (x1, P1, p1, v1), c1 in left.items():
        for (x2, P2, p2, v2), c2 in right.items():
            sign = -1 if (len(p2) * len(v1)) % 2 else 1
            mp = qgeom._merge_odd(p1, p2)
            if mp is None:
                continue
            mv_ = qgeom._merge_odd(v1, v2)
            if mv_ is None:
                continue
            sign *= mp[0] * mv_[0]
            key = (
                tuple(a + b for a, b in zip(x1, x2)),
                tuple(a + b for a, b in zip(P1, P2)),
                mp[1],
                mv_[1],
            )
            out[key] = out.get(key, 0) + c1 * c2 * sign
    return SuperPoly._of(dim, settle(out))


def chained_super_bracket(f, g):
    """The bracket as it was computed before the one-pass version: the
    derivatives of g re-derived for every term of f, and each product added
    to the running total as ``out = out + prod.scale(Fraction(+-1))``."""
    dim = f.dim
    out = SuperPoly.zero(dim)
    for fkey, fcoef in f.terms.items():
        fterm = {fkey: fcoef}
        odd_sign = Fraction(-1) if qgeom._term_degree(fkey) % 2 == 0 else Fraction(1)
        for j in range(dim):
            pairs = [
                (qgeom._diff_even(fterm, "P", j), qgeom._diff_even(g.terms, "x", j), Fraction(1)),
                (qgeom._diff_even(fterm, "x", j), qgeom._diff_even(g.terms, "P", j), Fraction(-1)),
                (qgeom._diff_odd(fterm, "p", j), qgeom._diff_odd(g.terms, "v", j), odd_sign),
                (qgeom._diff_odd(fterm, "v", j), qgeom._diff_odd(g.terms, "p", j), odd_sign),
            ]
            for left, right, outer in pairs:
                if not left or not right:
                    continue
                prod = chained_product(dim, left, right)
                if not prod.is_zero():
                    out = out + prod.scale(outer)
    return out


def mixed_super(rng: random.Random, dim: int) -> SuperPoly:
    """A sum of up to five monomials of mixed degrees, with int and Fraction
    coefficients, even letters x and P and odd letters p and v."""
    total = SuperPoly.zero(dim)
    for _ in range(rng.randint(0, 5)):
        x = tuple(rng.randint(0, 2) for _ in range(dim))
        P = tuple(rng.randint(0, 2) for _ in range(dim))
        p = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
        v = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
        num = rng.randint(-3, 3)
        coef = num if rng.randrange(2) else Fraction(num, rng.randint(1, 4))
        total = total + SuperPoly.monomial(dim, coef, x, P, p, v)
    return total


def test_super_bracket_matches_the_chained_bracket():
    rng = random.Random(40)
    seen = {"pairs": 0, "odd_f": 0, "even_f": 0, "mixed_f": 0, "nonzero": 0, "rational": 0}
    for dim in (2, 3, 4):
        for _ in range(180):
            f, g = mixed_super(rng, dim), mixed_super(rng, dim)
            got = super_bracket(f, g)
            want = chained_super_bracket(f, g)
            assert got == want
            assert repr(got) == repr(want)
            assert {k: type(c) for k, c in got.terms.items()} == {
                k: type(c) for k, c in want.terms.items()
            }
            seen["pairs"] += 1
            degrees = {qgeom._term_degree(k) % 2 for k in f.terms}
            seen["odd_f"] += degrees == {1}
            seen["even_f"] += degrees == {0}
            seen["mixed_f"] += len(degrees) == 2
            seen["nonzero"] += not got.is_zero()
            seen["rational"] += any(type(c) is Fraction for c in got.terms.values())
    assert seen["pairs"] >= 500
    assert all(seen.values()), seen


def test_super_bracket_derives_g_once_per_call(monkeypatch):
    calls = [0]
    for name in ("_diff_even", "_diff_odd"):
        original = getattr(qgeom, name)

        def counted(*args, _original=original):
            calls[0] += 1
            return _original(*args)

        monkeypatch.setattr(qgeom, name, counted)
    rng = random.Random(41)
    for dim in (2, 3, 4):
        for _ in range(30):
            f, g = mixed_super(rng, dim), mixed_super(rng, dim)
            calls[0] = 0
            value = super_bracket(f, g)
            assert 0 < calls[0] <= 4 * dim * (len(f.terms) + 1), (calls[0], len(f.terms))
            assert value == chained_super_bracket(f, g)


# -- input checks ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SuperPoly(2, {((0,), (0, 0), (), ()): 1}), ValueError,
         "exponent tuples do not match dim 2"),
        (lambda: SuperPoly(2, {((0, 0), (0, 0), (1, 0), ()): 1}), ValueError,
         "odd indices must be strictly ascending"),
        (lambda: SuperPoly(2, {((0, 0), (0, 0), (2,), ()): 1}), ValueError,
         "p index out of range"),
        (lambda: SuperPoly(2, {((0, 0), (0, 0), (), (-1,)): 1}), ValueError,
         "v index out of range"),
        (lambda: super_bracket(SuperPoly.zero(1), SuperPoly.zero(2)), ValueError,
         "dimension mismatch in super bracket"),
        (lambda: mv_to_super(mv((1, 1), 1, None, (1,))), ValueError,
         "embeds multivectors on a plain base"),
        (lambda: form_to_super(form((1, 1), 1, None, (1,))), ValueError,
         "embeds forms on a plain base"),
        (lambda: oracle_bracket(2, [form((2, 0), 1)]), ValueError,
         "oracle forms must have degree >= 1"),
        (lambda: oracle_bracket(2, [1]), TypeError,
         "oracle arguments are forms or multivectors"),
    ],
    ids=["exponent-length", "unsorted-odd", "p-index", "v-index", "bracket-dims",
         "mv-fiber", "form-fiber", "zero-form", "foreign-argument"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_the_model_filtration_is_large_on_zero():
    v = standard_courant_vdata(2)
    degrees = [v.filtration(x) for x in v.sample_basis if not x.is_zero()]
    assert v.filtration(v.zero) == 2**30 > max(degrees)
