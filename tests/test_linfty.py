import random
from fractions import Fraction

import pytest

from derived_brackets.gla import sample_gla
from derived_brackets.graded import GradedSpace, koszul_sign, Permutation
from derived_brackets.linfty import (
    MAX_RELATION_ARITY,
    LInfty,
    LInftyOne,
    MCError,
    NonTerminatingSeriesError,
    add_slot_chains,
    from_antisymmetric,
    gauge_field,
    mc_residual,
    relations_residual,
    to_antisymmetric,
    twist,
)
from derived_brackets.sampling import (
    fixture_mc_big,
    fixture_mc_small,
    fixture_vdata,
    random_fixture_a_element,
    random_fixture_pair,
    random_tpois_element,
)
from derived_brackets.tpois import tpois_linfty
from derived_brackets.vdata import BigElt, big_algebra, small_algebra


def gla_as_linfty(algebra):
    """Wrap a graded Lie algebra as the antisymmetric family (l2 only)."""

    def l(k, args):
        if k == 2:
            return algebra.bracket(args[0], args[1])
        return algebra.zero()

    return LInfty(
        components=lambda x: x.components(),
        l=l,
        zero=algebra.zero(),
        arity_bound=2,
        name="gla",
    )


def test_shift_of_lie_bracket_matches_crochet_sign():
    g = sample_gla()
    shifted = from_antisymmetric(gla_as_linfty(g))
    h, e = g.gen("h"), g.gen("e")
    # m2(x[1], y[1]) = (-1)^{|x|} [x, y][1]
    assert shifted.m(2, (h, e)) == g.bracket(h, e)          # |h| = 0
    assert shifted.m(2, (e, h)) == -1 * g.bracket(e, h)     # |e| = 1
    assert shifted.degree(e) == 0  # degree drops by one


def test_shift_round_trip_is_identity():
    from derived_brackets.sampling import fixture_gla

    g = fixture_gla()
    v_algebra = gla_as_linfty(g)
    round_tripped = to_antisymmetric(from_antisymmetric(v_algebra))
    rng = random.Random(2)
    names = g.space.names()
    for arity in (1, 2, 3):
        for _ in range(15):
            args = []
            for _ in range(arity):
                degree = rng.choice([0, 1, 2])
                eligible = [n for n in names if g.space.degree_of(n) == degree]
                args.append(g.space.element({n: rng.randint(-2, 2) for n in eligible}))
            args = tuple(args)
            assert round_tripped.l(arity, args) == v_algebra.l(arity, args)


def test_zero_structure_shifts_to_zero_structure():
    g = sample_gla()
    silent = LInfty(
        components=lambda x: x.components(),
        l=lambda k, args: g.zero(),
        zero=g.zero(),
        arity_bound=3,
    )
    shifted = from_antisymmetric(silent)
    assert shifted.m(2, (g.gen("h"), g.gen("e"))).is_zero()


def test_shift_reports_degree_violation():
    g = sample_gla()

    def broken(k, args):
        return g.gen("h")  # wrong degree for almost every input

    bad = LInfty(
        components=lambda x: x.components(),
        l=broken,
        zero=g.zero(),
    )
    shifted = from_antisymmetric(bad)
    with pytest.raises(ValueError, match="degree"):
        shifted.m(2, (g.gen("e"), g.gen("e")))


def test_relation_arity_one_is_squared_differential():
    v = fixture_vdata()
    algebra = small_algebra(v)
    arg = random_fixture_a_element(random.Random(0), 0)
    d = algebra.m(1, (arg,))
    assert relations_residual(algebra, 1, (arg,)) == algebra.m(1, (d,))


def test_relations_vanish_on_derived_construction():
    rng = random.Random(3)
    v = fixture_vdata()
    algebra = big_algebra(v)
    for n in range(1, 5):
        for _ in range(10):
            args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            assert relations_residual(algebra, n, args).is_zero()


def test_graded_symmetry_of_derived_brackets():
    rng = random.Random(4)
    v = fixture_vdata()
    algebra = big_algebra(v)
    for n in (2, 3, 4):
        for _ in range(10):
            args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            base = algebra.m(n, args)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma = Permutation(images)
            degrees = [algebra.degree(a) if not a.is_zero() else 0 for a in args]
            permuted = tuple(args[sigma(i) - 1] for i in range(1, n + 1))
            eps = koszul_sign(sigma, degrees)
            assert algebra.m(n, permuted) == base.scale(eps)


def test_corrupted_binary_bracket_breaks_relations():
    v = fixture_vdata()
    algebra = big_algebra(v)

    def corrupted(k, args):
        value = algebra.m(k, args)
        if k == 2:
            # flip one sign: the L[1]-valued (crochet) part of the binary bracket
            return BigElt(value.x.scale(-1), value.a)
        return value

    broken = LInftyOne(
        components=algebra.components,
        m=corrupted,
        zero=algebra.zero,
        curved=False,
        arity_bound=algebra.arity_bound,
    )
    rng = random.Random(5)
    hit = False
    for n in (2, 3):
        for _ in range(50):
            args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
            if not relations_residual(broken, n, args).is_zero():
                hit = True
                break
    assert hit, "a flipped binary sign must violate some higher-Jacobi relation"


def test_mc_residual_trivia():
    v = fixture_vdata()
    algebra = small_algebra(v)
    report = mc_residual(algebra, v.zero)
    assert report.residual.is_zero()
    assert report.terminated_by == "filtration"


def test_mc_residual_degree_and_curved_start():
    v = fixture_vdata()
    space = v.zero.space
    small = small_algebra(v)
    phi = space.element({"a": 1})
    report = mc_residual(small, phi)
    assert report.residual.degree() == 1

    # a curved variant: project Delta onto the subalgebra artificially
    curved = LInftyOne(
        components=small.components,
        m=lambda k, args: space.gen("b") if k == 0 else small.m(k, args),
        zero=small.zero,
        curved=True,
        arity_bound=small.arity_bound,
    )
    report = mc_residual(curved, space.zero())
    assert report.residual == space.gen("b")  # only the curvature survives


def test_mc_without_arity_bound_raises():
    # without a bound no series is summed: there is no cut-off to fall back on
    v = fixture_vdata()
    small = small_algebra(v)
    bare = LInftyOne(
        components=small.components,
        m=small.m,
        zero=small.zero,
        curved=False,
    )
    with pytest.raises(NonTerminatingSeriesError, match="no arity bound"):
        mc_residual(bare, v.zero.space.element({"a": 1}))


def test_mc_degree_requirement():
    v = fixture_vdata()
    small = small_algebra(v)
    with pytest.raises(ValueError, match="degree 0"):
        mc_residual(small, v.zero.space.gen("b"))


def test_twist_by_zero_keeps_brackets():
    rng = random.Random(6)
    v = fixture_vdata()
    algebra = big_algebra(v)
    twisted = twist(algebra, algebra.zero)
    for n in range(1, 4):
        args = tuple(random_fixture_pair(rng, 0) for _ in range(n))
        assert twisted.m(n, args) == algebra.m(n, args)


def test_twist_rejects_non_mc_with_residual():
    v = fixture_vdata()
    algebra = small_algebra(v)
    bad = v.zero.space.element({"a": 1})
    with pytest.raises(MCError) as err:
        twist(algebra, bad)
    assert err.value.residual is not None and not err.value.residual.is_zero()
    # the unsafe path skips the check: the residual r of alpha becomes the
    # curvature m_0 of the twist, and beta is Maurer-Cartan there exactly as
    # alpha + beta is in the algebra, residual for residual
    rng = random.Random(22)
    big = big_algebra(v)
    for algebra, alpha, sample in (
        (algebra, bad, lambda: random_fixture_a_element(rng, 0)),
        (big, BigElt(v.zero, bad), lambda: random_fixture_pair(rng, 0)),
    ):
        r = mc_residual(algebra, alpha).residual
        twisted = twist(algebra, alpha, check=False)
        assert twisted.curved and twisted.m(0, ()) == r
        for beta in [-alpha] + [sample() for _ in range(10)]:
            expected = mc_residual(algebra, alpha + beta).residual
            assert mc_residual(twisted, beta).residual == expected


def test_twisted_mc_correspondence():
    # beta Maurer-Cartan in the twisted algebra iff alpha + beta Maurer-Cartan
    rng = random.Random(7)
    v = fixture_vdata()
    algebra = big_algebra(v)
    for _ in range(15):
        alpha = fixture_mc_big(rng)
        twisted = twist(algebra, alpha)
        beta = random_fixture_pair(rng, 0)
        lhs = mc_residual(twisted, beta).residual.is_zero()
        rhs = mc_residual(algebra, alpha + beta).residual.is_zero()
        assert lhs == rhs


def test_double_twist_is_twist_by_sum():
    rng = random.Random(8)
    v = fixture_vdata()
    algebra = big_algebra(v)
    for _ in range(5):
        alpha = fixture_mc_big(rng)
        once = twist(algebra, alpha)
        beta = fixture_mc_big(rng) - alpha
        # beta is Maurer-Cartan for the twisted algebra by the correspondence
        if not mc_residual(once, beta).residual.is_zero():
            continue
        again = twist(once, beta)
        direct = twist(algebra, alpha + beta)
        for n in range(1, 4):
            args = tuple(random_fixture_pair(rng, rng.choice([-1, 0])) for _ in range(n))
            assert again.m(n, args) == direct.m(n, args)


def test_gauge_field_trivia():
    v = fixture_vdata()
    algebra = small_algebra(v)
    space = v.zero.space
    z = space.zero()  # zero direction
    m = space.element({"a": 2})
    assert gauge_field(algebra, z, m).is_zero()
    # at m = 0 only the unary term survives
    z = space.element({})  # there is no degree -1 element in the fixture
    assert gauge_field(algebra, z, space.zero()).is_zero()


def test_gauge_degree_checks():
    v = fixture_vdata()
    algebra = small_algebra(v)
    space = v.zero.space
    with pytest.raises(ValueError, match="-1"):
        gauge_field(algebra, space.gen("a"), space.gen("a"))


def test_relation_arity_cap():
    v = fixture_vdata()
    algebra = small_algebra(v)
    space = v.zero.space
    args = tuple(space.gen("a") for _ in range(6))
    with pytest.raises(ValueError, match="arity"):
        relations_residual(algebra, 6, args)


@pytest.mark.parametrize("which", ["fixture-big", "twisted-poisson-R3"])
def test_relations_above_the_max_arity_raise(which):
    rng = random.Random(21)
    if which == "fixture-big":
        algebra = big_algebra(fixture_vdata())
        args = tuple(random_fixture_pair(rng, 0) for _ in range(6))
    else:
        algebra = tpois_linfty(3)
        args = tuple(random_tpois_element(rng, 3, -1, 1) for _ in range(6))
    assert MAX_RELATION_ARITY == 5
    relations_residual(algebra, 5, args[:5])
    with pytest.raises(ValueError, match="relation arity 6 exceeds max 5"):
        relations_residual(algebra, 6, args)


def test_antisymmetric_round_trip_of_a_shifted_algebra_is_identity():
    from derived_brackets.sampling import fixture_gla

    g = fixture_gla()
    shifted = from_antisymmetric(gla_as_linfty(g))
    round_tripped = from_antisymmetric(to_antisymmetric(shifted))
    rng = random.Random(3)
    names = g.space.names()
    for arity in (1, 2, 3):
        for _ in range(10):
            args = tuple(
                g.space.element({n: rng.randint(-2, 2) for n in rng.sample(names, 2)})
                for _ in range(arity)
            )
            assert round_tripped.m(arity, args) == shifted.m(arity, args)
            assert round_tripped.degree(args[0]) == shifted.degree(args[0])


# -- the one-head patterns -------------------------------------------------------------

_SLOTS = GradedSpace.of([(name, 0) for name in ("h", "t", "p0", "p1", "p2", "p3")])
_H, _T, _ZERO = _SLOTS.gen("h"), _SLOTS.gen("t"), _SLOTS.zero()


def _slot_chains(combo, degrees, heads, tails):
    """Run add_slot_chains with a chain that records its calls and returns
    the basis element p<pos>, so the sum shows each pattern's sign."""
    calls = []

    def chain(degrees_seen, pos, head, rest):
        assert degrees_seen is degrees and head is heads[pos]
        calls.append((pos, rest))
        return _SLOTS.gen(f"p{pos}")

    acc: dict = {}
    every_tail = add_slot_chains(combo, degrees, heads, tails, chain, acc)
    return acc, calls, every_tail


def test_slot_chains_sign_each_head_by_its_prefix():
    # (-1)^{|e_pos| (|e_1| + .. + |e_{pos-1}|)}: an even degree at an odd
    # prefix (pos 1), an odd one at an odd prefix (pos 2) and at an even
    # prefix (pos 3)
    combo = tuple(object() for _ in range(4))
    tails = [_T.scale(i + 1) for i in range(4)]
    acc, calls, every_tail = _slot_chains(combo, [1, 0, 1, 1], [_H] * 4, tails)
    assert acc == {"p0": 1, "p1": 1, "p2": -1, "p3": 1}
    assert calls == [(pos, tails[:pos] + tails[pos + 1:]) for pos in range(4)]
    assert every_tail is True


def test_slot_chains_skip_zero_heads_and_zero_tails():
    combo = tuple(object() for _ in range(3))
    # a zero head drops its own pattern only
    acc, calls, every_tail = _slot_chains(combo, [1, 1, 1], [_H, _ZERO, _H], [_T] * 3)
    assert acc == {"p0": 1, "p2": 1} and [pos for pos, _ in calls] == [0, 2] and every_tail
    # one zero tail leaves the pattern with the head in that slot, and no
    # all-tails pattern
    acc, calls, every_tail = _slot_chains(combo, [1, 1, 1], [_H] * 3, [_T, _ZERO, _T])
    assert acc == {"p1": -1} and [pos for pos, _ in calls] == [1] and every_tail is False
    # two zero tails leave nothing
    acc, calls, every_tail = _slot_chains(combo, [1, 1, 1], [_H] * 3, [_ZERO, _T, _ZERO])
    assert acc == {} and calls == [] and every_tail is False
    # a chain may report a vanishing pattern as None or as zero
    acc = {"p0": 3}
    assert add_slot_chains(combo[:2], [0, 0], [_H, _H], [_T, _T],
                           lambda d, pos, h, rest: None if pos else _ZERO, acc)
    assert acc == {"p0": 3}


def test_slot_chains_reuse_the_left_neighbour_with_a_new_sign():
    f, e = object(), object()
    # slots 1..3 repeat e: one chain call, signed -, +, - at prefixes 1, 2, 3
    acc, calls, _ = _slot_chains((f, e, e, e), [1, 1, 1, 1], [_H] * 4, [_T] * 4)
    assert [pos for pos, _ in calls] == [0, 1]
    assert acc == {"p0": 1, "p1": -1}
    # two repeated odd slots cancel, as graded antisymmetry demands; even
    # ones add up
    acc, calls, _ = _slot_chains((e, e), [1, 1], [_H] * 2, [_T] * 2)
    assert acc == {} and len(calls) == 1
    acc, calls, _ = _slot_chains((e, e), [0, 0], [_H] * 2, [_T] * 2)
    assert acc == {"p0": 2} and len(calls) == 1
    # a slot holding a different object is evaluated afresh
    acc, calls, _ = _slot_chains((f, object()), [1, 1], [_H] * 2, [_T] * 2)
    assert acc == {"p0": 1, "p1": -1} and len(calls) == 2


# -- input checks ---------------------------------------------------------------------

_SMALL = small_algebra(fixture_vdata())
_A, _B = _SMALL.zero.space.gen("a"), _SMALL.zero.space.gen("b")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: relations_residual(_SMALL, 2, (_A + _B, _A)),
         "relations require homogeneous arguments"),
        (lambda: relations_residual(_SMALL, 2, (_A,)), "expected 2 arguments, got 1"),
        (lambda: relations_residual(_SMALL, -1, ()), "expected -1 arguments, got 0"),
        (lambda: twist(_SMALL, _B), "twisting elements must be homogeneous of degree 0"),
        (lambda: gauge_field(_SMALL, _SMALL.zero, _B),
         "gauge base points must be homogeneous of degree 0"),
    ],
    ids=["inhomogeneous-relation", "too-few-arguments", "negative-arity", "twist-degree",
         "gauge-base-degree"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
