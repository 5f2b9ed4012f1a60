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
    identity_permutation,
    inversion_parity,
    koszul_sign,
    unshuffles,
)


def test_koszul_identity_is_plus_one():
    assert koszul_sign(identity_permutation(3), [4, 1, 7]) == 1


def test_koszul_swap_of_two_odds_is_minus_one():
    assert koszul_sign(Permutation([2, 1]), [1, 1]) == -1


def test_koszul_even_degree_commutes():
    assert koszul_sign(Permutation([2, 1]), [2, 1]) == 1


def test_chi_examples():
    assert chi_sign(identity_permutation(2), [3, 3]) == 1
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
    assert unshuffles(0, 4) == [identity_permutation(4)]


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
