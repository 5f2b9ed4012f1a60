import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derived_brackets.graded import (
    GradedSpace,
    HomElt,
    Permutation,
    chi_sign,
    decalage_sign,
    inversion_parity,
    koszul_sign,
    unshuffles,
)


def test_koszul_identity_is_plus_one():
    assert koszul_sign(Permutation(range(1, 4)), [4, 1, 7]) == 1


def test_koszul_swap_of_two_odds_is_minus_one():
    assert koszul_sign(Permutation([2, 1]), [1, 1]) == -1


def test_koszul_even_degree_commutes():
    assert koszul_sign(Permutation([2, 1]), [2, 1]) == 1


def test_chi_examples():
    assert chi_sign(Permutation(range(1, 3)), [3, 3]) == 1
    assert chi_sign(Permutation([2, 1]), [1, 1]) == 1
    assert chi_sign(Permutation([2, 1]), [0, 0]) == -1


def test_koszul_size_mismatch():
    with pytest.raises(ValueError):
        koszul_sign(Permutation([2, 1]), [1, 1, 1])


def _adjacent_transposition_signs(images, degrees):
    """Sort by adjacent transpositions, recording the parity of the number of
    swaps and the Koszul sign (-1)^{|u||w|} of each swap of u past w."""
    seq, swaps, koszul = list(images), 0, 1
    for k in range(len(seq)):
        for pos in range(len(seq) - 1 - k):
            if seq[pos] > seq[pos + 1]:
                swaps += 1
                if degrees[seq[pos] - 1] * degrees[seq[pos + 1] - 1] % 2:
                    koszul = -koszul
                seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
    return swaps % 2, koszul


def test_inversion_parity_matches_adjacent_transpositions():
    rng = random.Random(7)
    for n in range(7):
        for images in itertools.permutations(range(1, n + 1)):
            degrees = [rng.randint(-3, 4) for _ in range(n)]
            parity, koszul = _adjacent_transposition_signs(images, degrees)
            sigma = Permutation(images)
            assert inversion_parity(images) == parity
            assert sigma.sign() == (-1) ** parity
            assert koszul_sign(sigma, degrees) == koszul
            assert chi_sign(sigma, degrees) == koszul * (-1) ** parity


perm_and_degrees = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.lists(st.integers(min_value=-3, max_value=4), min_size=n, max_size=n),
    )
)


@given(perm_and_degrees, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_koszul_multiplicative_under_composition(data, rng):
    images, degrees = data
    sigma = Permutation(images)
    tau = Permutation(rng.sample(range(1, len(images) + 1), len(images)))
    composed = sigma.compose(tau)
    # acting first by sigma then by tau on tuples composes signs with the
    # degrees permuted through sigma
    permuted = [degrees[sigma(i) - 1] for i in range(1, len(images) + 1)]
    assert koszul_sign(composed, degrees) == koszul_sign(sigma, degrees) * koszul_sign(
        tau, permuted
    )


@given(perm_and_degrees)
@settings(max_examples=120, deadline=None)
def test_chi_inverse_cancels(data):
    images, degrees = data
    sigma = Permutation(images)
    permuted = [degrees[sigma(i) - 1] for i in range(1, len(images) + 1)]
    assert chi_sign(sigma, degrees) * chi_sign(sigma.inverse(), permuted) == 1


def test_unshuffles_examples():
    assert [p.images for p in unshuffles(1, 2)] == [(1, 2), (2, 1)]
    assert len(unshuffles(2, 3)) == 3
    assert unshuffles(0, 4) == [Permutation(range(1, 5))]


def test_unshuffle_counts_match_binomials():
    import math

    for n in range(0, 8):
        for i in range(0, n + 1):
            shuffles = unshuffles(i, n)
            assert len(shuffles) == math.comb(n, i)
            for sigma in shuffles:
                front = [sigma(t) for t in range(1, i + 1)]
                back = [sigma(t) for t in range(i + 1, n + 1)]
                assert front == sorted(front) and back == sorted(back)


def test_unshuffles_invalid():
    with pytest.raises(ValueError):
        unshuffles(4, 3)


def test_decalage_examples():
    assert decalage_sign([9]) == 1
    assert decalage_sign([1, 5]) == -1
    assert decalage_sign([1, 1, 0]) == -1
    assert decalage_sign([]) == 1


SPACE = GradedSpace.of([("x", 0), ("y", 1), ("z", 1), ("t", 2)])


def test_homelt_basics():
    e = SPACE.element({"x": 2, "y": Fraction(1, 3)})
    assert not e.is_zero()
    assert not e.is_homogeneous()
    assert e.degree() is None
    assert dict(e.components())[0] == SPACE.gen("x", 2)
    assert (e - e).is_zero()
    assert (e + e) == e.scale(2) == 2 * e


def test_homelt_no_zero_coefficients_stored():
    e = SPACE.element({"x": 1}) + SPACE.element({"x": -1})
    assert e.terms == {}


def test_homelt_unknown_monomial_rejected():
    with pytest.raises(KeyError):
        SPACE.element({"nope": 1})


@given(
    st.dictionaries(st.sampled_from(["x", "y", "z", "t"]),
                    st.fractions(min_value=-5, max_value=5), max_size=4),
    st.dictionaries(st.sampled_from(["x", "y", "z", "t"]),
                    st.fractions(min_value=-5, max_value=5), max_size=4),
    st.fractions(min_value=-5, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_homelt_module_axioms(t1, t2, c):
    e1, e2 = SPACE.element(t1), SPACE.element(t2)
    assert e1 + e2 == e2 + e1
    assert (e1 + e2).scale(c) == e1.scale(c) + e2.scale(c)
    assert e1.scale(c) + e1.scale(1 - c) == e1


# -- the sparse-combination contract -------------------------------------------------


def _wedge_key(rng, dims):
    n = dims[0] + dims[1]
    mono = tuple(rng.randint(0, 2) for _ in range(n))
    return mono, tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))


def _super_key(rng, dim):
    return (
        tuple(rng.randint(0, 2) for _ in range(dim)),
        tuple(rng.randint(0, 1) for _ in range(dim)),
        tuple(sorted(rng.sample(range(dim), rng.randint(0, dim)))),
        tuple(sorted(rng.sample(range(dim), rng.randint(0, 1)))),
    )


def _sparse_types():
    from derived_brackets.polygeo import PolyForm, PolyMultivector
    from derived_brackets.qgeom import SuperPoly

    wedge_literal = {
        ((1, 0, 2), (0, 2)): 1, ((0, 0, 0), ()): -1, ((0, 1, 0), (1,)): Fraction(-2, 3)
    }
    # (class, ambient, another ambient, key draw, literal terms, literal repr at 88faae5)
    return {
        "HomElt": (
            HomElt, SPACE, GradedSpace.of([("x", 0), ("y", 1), ("z", 1), ("t", 3)]),
            lambda rng, _: rng.choice(["x", "y", "z", "t"]),
            {"z": Fraction(3, 2), "x": 1, "y": -1}, "x - y + 3/2*z",
        ),
        "PolyMultivector": (
            PolyMultivector, (2, 1), (3, 0), _wedge_key,
            wedge_literal, "-1 - 2/3*x2^@x2 + x1^p1^2^@x1^@p1",
        ),
        "PolyForm": (
            PolyForm, (2, 1), (3, 0), _wedge_key,
            wedge_literal, "-1 - 2/3*x2^dx2 + x1^p1^2^dx1^dp1",
        ),
        "SuperPoly": (
            SuperPoly, 2, 3, _super_key,
            {((1, 0), (0, 1), (0,), (1,)): 1, ((0, 0), (0, 0), (), ()): Fraction(5, 2),
             ((2, 0), (0, 0), (0, 1), ()): -1},
            "5/2*1 + x1 P2 p1 v2 - x1^2 p1 p2",
        ),
    }


def _assert_settled(x):
    for coef in x.terms.values():
        assert coef != 0
        assert type(coef) is int or coef.denominator != 1


@pytest.mark.parametrize("name", ["HomElt", "PolyMultivector", "PolyForm", "SuperPoly"])
def test_sparse_combination_contract(name):
    types = _sparse_types()
    cls, ambient, other_ambient, draw_key, literal, literal_repr = types[name]
    rng = random.Random(sorted(types).index(name))

    def draw():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[draw_key(rng, ambient)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return cls(ambient, terms)

    assert repr(cls(ambient, literal)) == literal_repr
    assert repr(cls(ambient, {})) == "0"
    zero = cls(ambient, {})
    assert zero.degree() is None and zero.components() == [] and zero.is_homogeneous()
    for _ in range(40):
        x, y = draw(), draw()
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        results = [x, x + y, x - y, -x, x - x, x.scale(c), c * x, x * 3, x.scale(0)]
        for r in results:
            assert type(r) is cls
            _assert_settled(r)
        assert (x - x).is_zero() and x.scale(0) == zero
        assert (x + y) - y == x and x + y == y + x
        parts = x.components()
        total = zero
        for d, part in parts:
            assert type(part) is cls and not part.is_zero()
            assert part.degree() == d and part.is_homogeneous()
            _assert_settled(part)
            total = total + part
        assert total == x
        assert [d for d, _ in parts] == sorted({d for d, _ in parts})
        assert x.degree() == (parts[0][0] if len(parts) == 1 else None)
        assert x.is_homogeneous() == (len(parts) <= 1)
        assert hash(x) == hash(cls(ambient, dict(x.terms)))
        elsewhere = cls._of(other_ambient, dict(x.terms))
        assert elsewhere != x
        with pytest.raises(ValueError):
            x + elsewhere
        for other_name, (other_cls, *_rest) in types.items():
            if other_name != name:
                stranger = other_cls._of(ambient, dict(x.terms))
                assert stranger != x and x != stranger
                with pytest.raises(ValueError):
                    x + stranger


# -- input checks ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation([1, 1]), "not a bijection of 1..2"),
        (lambda: Permutation([2, 3]), "not a bijection of 1..2"),
        (lambda: Permutation([2, 1]).compose(Permutation([1])), "size mismatch"),
        (lambda: GradedSpace.of([("x", 0), ("x", 1)]), "duplicate basis names"),
    ],
    ids=["repeated-image", "image-out-of-range", "compose-sizes", "duplicate-names"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_permutation_repr_lists_its_images():
    assert repr(Permutation([3, 1, 2])) == "Permutation(3, 1, 2)"
