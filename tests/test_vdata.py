import dataclasses
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from derived_brackets.graded import GradedSpace, HomElt
from derived_brackets.linfty import MCError, NonTerminatingSeriesError, mc_residual, twist
from derived_brackets.polygeo import coiso_vdata, mv
from derived_brackets.sampling import (
    fixture_gla,
    fixture_mc_big,
    fixture_mc_small,
    fixture_vdata,
    random_base_poly,
    random_coiso_poisson,
    random_fixture_a_element,
    random_fixture_element,
    random_fixture_pair,
    random_multivector,
    random_vertical_section,
)
from derived_brackets.vdata import (
    BigElt,
    VData,
    big_algebra,
    deform_vdata,
    exp_ad,
    machine_check,
    p_phi,
    restrict,
    small_algebra,
    twist_vdata,
    validate_vdata,
)


def test_fixture_validates():
    report = validate_vdata(fixture_vdata())
    assert report.ok, report.failures


def test_validation_catches_nonabelian_subalgebra():
    v = fixture_vdata()
    bad = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.delta,
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis + (v.zero.space.gen("u"),),  # u brackets nontrivially
    )
    report = validate_vdata(bad)
    assert not report.ok
    assert any("abelian" in kind for kind, _ in report.failures)


def test_validation_catches_non_square_zero_delta():
    v = fixture_vdata()
    bad = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.zero.space.element({"u": 1, "v": 1}),  # [u+v, u+v] = 3w
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
    )
    report = validate_vdata(bad)
    assert not report.ok
    assert any("square" in kind for kind, _ in report.failures)


def test_curvature_is_derived_from_the_data():
    v = fixture_vdata()
    assert not v.curved
    # b lies in the subalgebra, so P(Delta) = b != 0 and the quadruple is curved
    curved = dataclasses.replace(v, delta=v.zero.space.gen("b"))
    assert curved.curved
    assert not dataclasses.replace(curved, delta=v.delta).curved
    # a quadruple is never told whether it is curved
    assert "curved" not in inspect.signature(VData).parameters
    with pytest.raises(ValueError):
        dataclasses.replace(v, curved=True)


def test_deformed_quadruple_is_curved_exactly_off_the_maurer_cartan_set():
    rng = random.Random(19)
    v = fixture_vdata()
    small = small_algebra(v)
    seen = {True: 0, False: 0}
    for _ in range(30):
        for phi in (fixture_mc_small(rng), random_fixture_a_element(rng, 0)):
            deformed = deform_vdata(v, phi)
            residual = mc_residual(small, phi).residual
            assert deformed.curved == (not residual.is_zero())
            assert small_algebra(deformed).curved == deformed.curved
            seen[deformed.curved] += 1
    assert seen[True] and seen[False], seen


# -- deformed projections ----------------------------------------------------------


def test_p_phi_at_zero_is_projection():
    v = fixture_vdata()
    proj = p_phi(v, v.zero)
    for x in v.sample_basis:
        assert proj(x) == v.project(x)


def test_p_phi_is_identity_on_subalgebra():
    rng = random.Random(1)
    v = fixture_vdata()
    for _ in range(10):
        phi = random_fixture_a_element(rng, 0)
        proj = p_phi(v, phi)
        for a in v.a_basis:
            assert proj(a) == a


def test_mc_iff_deformed_projection_kills_delta():
    rng = random.Random(2)
    v = fixture_vdata()
    small = small_algebra(v)
    for _ in range(25):
        phi = (
            fixture_mc_small(rng)
            if rng.randrange(2)
            else random_fixture_a_element(rng, 0)
        )
        proj = p_phi(v, phi)
        is_mc = mc_residual(small, phi).residual.is_zero()
        assert is_mc == proj(v.delta).is_zero()


def test_p_phi_requires_subalgebra_direction():
    v = fixture_vdata()
    with pytest.raises(ValueError):
        p_phi(v, v.zero.space.gen("u"))


def test_exp_ad_reports_non_terminating_series():
    space = GradedSpace.of([("g", 0)])
    from derived_brackets.gla import StructureGLA

    torus = StructureGLA(space, {})

    # a fake bracket that never decays
    def stubborn(x, y):
        return space.gen("g")

    v = VData(
        bracket=stubborn,
        components=lambda x: x.components(),
        project=lambda x: x,
        delta=space.zero(),
        zero=space.zero(),
        in_a=lambda x: True,
    )
    with pytest.raises(NonTerminatingSeriesError, match="g"):
        exp_ad(v, space.gen("g"), space.gen("g"))
    # the depth is asked for only by a surviving term
    abelian = dataclasses.replace(v, bracket=torus.bracket)
    assert exp_ad(abelian, space.gen("g"), space.gen("g")) == space.gen("g")


# -- small and big construction -----------------------------------------------------


def test_small_brackets_vanish_for_zero_delta():
    v = fixture_vdata()
    trivial = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.zero,
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
        filtration=v.filtration,
        depth=v.depth,
    )
    small = small_algebra(trivial)
    space = v.zero.space
    for n in (1, 2, 3):
        assert small.m(n, (space.gen("a"),) * n).is_zero()


def test_big_unary_with_zero_delta_projects():
    v = fixture_vdata()
    trivial = deform_vdata(v, v.zero)  # same projection, same delta
    space = v.zero.space
    no_delta = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.zero,
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
        filtration=v.filtration,
        depth=v.depth,
    )
    big = big_algebra(no_delta)
    x = space.element({"u": 2, "b": 3})
    d = big.m(1, (BigElt(x, space.zero()),))
    assert d.x.is_zero()
    assert d.a == v.project(x)
    del trivial


def test_big_binary_reproduces_bracket_with_shift_sign():
    v = fixture_vdata()
    big = big_algebra(v)
    space = v.zero.space
    x, y = space.gen("u"), space.gen("a")
    value = big.m(2, (BigElt(x, space.zero()), BigElt(y, space.zero())))
    # {x[1], y[1]} = (-1)^{|x|} [x, y][1]
    assert value.x == v.bracket(x, y).scale(-1)  # |u| = 1
    assert value.a.is_zero()


def test_big_unary_brackets_delta_once_per_nonzero_part():
    # m_1(x[1], a) = (-(D x)[1], P(x + D a)): D of a zero part is zero
    # without a bracket, so each argument with one zero part brackets once
    v = fixture_vdata()
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return v.bracket(x, y)

    big = big_algebra(dataclasses.replace(v, bracket=counting))
    space = v.zero.space
    x, a = space.gen("v"), space.gen("a")
    for arg, dx, da in ((BigElt(x, space.zero()), space.gen("w"), space.zero()),
                        (BigElt(space.zero(), a), space.zero(), space.element({"b": 1, "v": 1}))):
        calls.clear()
        value = big.m(1, (arg,))
        assert calls == [(v.delta, x if da.is_zero() else a)]
        assert value == BigElt(-dx, v.project(arg.x + da))


def test_small_is_the_subalgebra_family_of_big():
    rng = random.Random(3)
    v = fixture_vdata()
    small = small_algebra(v)
    big = big_algebra(v)
    for n in range(1, 5):
        for _ in range(10):
            args = tuple(random_fixture_a_element(rng, rng.choice([0, 1])) for _ in range(n))
            pair_args = tuple(BigElt(v.zero, a) for a in args)
            expected = small.m(n, args)
            value = big.m(n, pair_args)
            assert value.x.is_zero()
            assert value.a == expected


def test_big_rejects_curved_quadruple():
    v = fixture_vdata()
    curved = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.zero.space.element({"u": 1, "b": 1}),
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
    )
    with pytest.raises(ValueError):
        big_algebra(curved)


def test_curved_small_algebra_has_curvature():
    v = fixture_vdata()
    space = v.zero.space
    curved = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=space.element({"u": 1, "b": 2}),
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
        filtration=v.filtration,
        depth=v.depth,
    )
    small = small_algebra(curved)
    assert small.m(0, ()) == space.gen("b", 2)
    report = mc_residual(small, space.zero())
    assert report.residual == space.gen("b", 2)


# -- restriction ----------------------------------------------------------------------


def test_restrict_to_kernel_always_valid():
    v = fixture_vdata()
    big = big_algebra(v)
    space = v.zero.space
    kernel_names = ("u", "v", "w")
    member = lambda x: all(n in kernel_names for n in x.terms)  # noqa: E731
    basis = [space.gen(n) for n in kernel_names]
    restricted = restrict(v, big, member, basis)
    value = restricted.m(
        2, (BigElt(space.gen("u"), space.zero()), BigElt(space.gen("v"), space.zero()))
    )
    assert value.x == v.bracket(space.gen("u"), space.gen("v")).scale(-1)


def test_restrict_full_space_is_identity():
    rng = random.Random(4)
    v = fixture_vdata()
    big = big_algebra(v)
    restricted = restrict(v, big, lambda x: True, list(v.sample_basis))
    for n in (1, 2, 3):
        args = tuple(random_fixture_pair(rng, 0) for _ in range(n))
        assert restricted.m(n, args) == big.m(n, args)


def test_restrict_rejects_unstable_subspace():
    v = fixture_vdata()
    big = big_algebra(v)
    space = v.zero.space
    # span(a) is not stable: D(a) = [u, a] = v + b leaves it
    with pytest.raises(ValueError, match="stable"):
        restrict(v, big, lambda x: set(x.terms) <= {"a"}, [space.gen("a")])


# -- twisting and the double check ----------------------------------------------------


def test_twist_vdata_by_zero_keeps_everything():
    v = fixture_vdata()
    twisted = twist_vdata(v, BigElt(v.zero, v.zero))
    assert twisted.delta == v.delta
    for x in v.sample_basis:
        assert twisted.project(x) == v.project(x)


def test_twist_of_zero_delta_recovers_delta():
    v = fixture_vdata()
    no_delta = VData(
        bracket=v.bracket,
        components=v.components,
        project=v.project,
        delta=v.zero,
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
        filtration=v.filtration,
        depth=v.depth,
    )
    twisted = twist_vdata(no_delta, BigElt(v.delta, v.zero))
    assert twisted.delta == v.delta
    for x in v.sample_basis:
        assert twisted.project(x) == v.project(x)
    # and the twisted quadruple's brackets agree with the original fixture's
    lhs, rhs = big_algebra(twisted), big_algebra(v)
    rng = random.Random(5)
    for n in range(1, 4):
        args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
        assert lhs.m(n, args) == rhs.m(n, args)


def test_mc_checks_without_depth_raise():
    # without a depth nothing bounds the series, so no check can certify alpha
    v = dataclasses.replace(fixture_vdata(), depth=None)
    alpha = fixture_mc_big(random.Random(9))
    with pytest.raises(NonTerminatingSeriesError, match="no arity bound"):
        twist_vdata(v, alpha)
    with pytest.raises(NonTerminatingSeriesError, match="no arity bound"):
        twist(big_algebra(v), alpha)
    with pytest.raises(NonTerminatingSeriesError, match="no arity bound"):
        machine_check(v, v.zero, alpha.x, alpha.a)


def test_twist_vdata_requires_mc():
    v = fixture_vdata()
    with pytest.raises(MCError):
        twist_vdata(v, BigElt(v.zero, v.zero.space.gen("a")))


def test_machine_trivial_case():
    v = fixture_vdata()
    rng = random.Random(6)
    phi = fixture_mc_small(rng)
    report = machine_check(v, phi, v.zero, v.zero)
    assert report.left_vanishes and report.right_vanishes and report.agree


def test_machine_requires_mc_base():
    v = fixture_vdata()
    with pytest.raises(MCError):
        machine_check(v, v.zero.space.gen("a"), v.zero, v.zero)


def test_machine_agreement_on_random_samples():
    rng = random.Random(7)
    v = fixture_vdata()
    negatives = 0
    for _ in range(60):
        phi = fixture_mc_small(rng)
        dtilde = random_fixture_element(rng, 1)
        ptilde = random_fixture_a_element(rng, 0)
        report = machine_check(v, phi, dtilde, ptilde)
        assert report.agree
        negatives += not report.left_vanishes
    assert negatives > 0
    # engineered deformations make both sides vanish
    positives = 0
    for _ in range(15):
        alpha = fixture_mc_big(rng)
        report = machine_check(v, v.zero, alpha.x, alpha.a)
        assert report.agree
        assert report.left_vanishes and report.right_vanishes
        positives += 1
    assert positives == 15


def test_curved_coisotropic_relations_and_curvature():
    # exercised separately: the curved relation sums include the i = 0 term
    import itertools as it

    from derived_brackets.linfty import relations_residual
    from derived_brackets.polygeo import PolyMultivector, coiso_vdata, mv
    from derived_brackets.sampling import random_base_poly

    rng = random.Random(21)
    dims = (1, 2)
    pi = mv(dims, 1, (1, 0, 0), (1, 2)) + mv(dims, 2, None, (1, 2))
    cv = coiso_vdata(pi)
    assert cv.curved
    small = small_algebra(cv)
    assert small.curved
    assert small.m(0, ()) == cv.project(pi)

    def rand_a(degw):
        s = degw + 1
        out = PolyMultivector.zero(dims)
        opts = list(it.combinations(range(1, 3), s))
        for _ in range(2):
            w = rng.choice(opts)
            for mono, c in random_base_poly(rng, dims, 2).items():
                out = out + mv(dims, c, mono, w)
        return out

    for n in range(1, 5):
        for _ in range(10):
            args = tuple(rand_a(rng.choice([0, 1])) for _ in range(n))
            assert relations_residual(small, n, args).is_zero()

    report = mc_residual(small, PolyMultivector.zero(dims))
    assert report.residual == cv.project(pi)


# -- big-algebra brackets against the full pattern enumeration ------------------------


def _reference_big_m(v, k, args):
    """m_k of the big algebra by enumerating all 2^k L[1]/a patterns of each
    homogeneous combination, the brackets of the module docstring applied
    to every pattern."""
    big = big_algebra(v)
    zero_pair = BigElt(v.zero, v.zero)

    def chain(x, rest):
        for a in rest:
            x = v.bracket(x, a)
        return v.project(x)

    comps = []
    for arg in args:
        if arg.is_zero():
            return zero_pair
        if big.degree(arg) is not None:
            comps.append([arg])
        else:
            comps.append([part for _, part in big.components(arg)])
    total = zero_pair
    for combo in itertools.product(*comps):
        degs = [big.degree(e) for e in combo]
        options = [
            [(kind, part) for kind, part in (("L", e.x), ("a", e.a)) if not part.is_zero()]
            for e in combo
        ]
        for pattern in itertools.product(*options):
            kinds = [kind for kind, _ in pattern]
            parts = [part for _, part in pattern]
            n_l = kinds.count("L")
            if k == 1:
                if n_l:
                    total = total + BigElt(-v.adjoint_delta(parts[0]), v.project(parts[0]))
                else:
                    total = total + BigElt(v.zero, v.project(v.adjoint_delta(parts[0])))
            elif n_l == 0:
                total = total + BigElt(v.zero, chain(v.adjoint_delta(parts[0]), parts[1:]))
            elif n_l == 1:
                pos = kinds.index("L")
                sign = -1 if degs[pos] % 2 and sum(degs[:pos]) % 2 else 1
                value = chain(parts[pos], parts[:pos] + parts[pos + 1:])
                total = total + BigElt(v.zero, value.scale(sign))
            elif n_l == 2 and k == 2:
                sign = -1 if v.degree(parts[0]) % 2 else 1
                total = total + BigElt(v.bracket(parts[0], parts[1]).scale(sign), v.zero)
    return total


def _oracle_argument_lists(rng, pair, zero):
    """Argument tuples of arity 1..6: inhomogeneous sums, a pair repeated in
    adjacent and in non-adjacent slots, and pairs with a zero component."""
    for k in range(1, 7):
        p, q, odd = pair(0), pair(rng.choice([-1, 0, 1])), pair(-1)
        mixed = pair(0) + pair(1)
        yield tuple(pair(rng.choice([-1, 0, 1])) for _ in range(k))
        yield (mixed,) + tuple(pair(0) for _ in range(k - 1))
        yield (p,) * k
        # adjacent odd slots share a chain but not a sign
        yield (odd,) * min(k, 2) + (p,) * (k - 2)
        yield (p,) * (k - 2) + (odd,) * min(k, 2)
        yield tuple(p if i % 2 == 0 else q for i in range(k))
        yield (p,) * (k - 1) + (BigElt(zero, p.a),)
        yield (BigElt(p.x, zero),) + (p,) * (k - 1)
        yield (q,) + (BigElt(zero, p.a),) * (k - 1)


def _assert_matches_reference(v, args_lists):
    big = big_algebra(v)
    checked = nonzero = 0
    for args in args_lists:
        value = big.m(len(args), args)
        assert value == _reference_big_m(v, len(args), args), args
        checked += 1
        nonzero += not value.is_zero()
    assert nonzero > checked // 4


def test_big_m_matches_full_enumeration_on_fixture():
    rng = random.Random(31)
    v = fixture_vdata()
    _assert_matches_reference(
        v, _oracle_argument_lists(rng, lambda d: random_fixture_pair(rng, d), v.zero)
    )


def test_big_m_matches_full_enumeration_on_deformed_fixture():
    rng = random.Random(32)
    v = fixture_vdata()
    deformed = deform_vdata(v, fixture_mc_small(rng))
    assert not deformed.curved
    _assert_matches_reference(
        deformed,
        _oracle_argument_lists(rng, lambda d: random_fixture_pair(rng, d), v.zero),
    )


def test_big_m_matches_full_enumeration_on_coisotropic():
    rng = random.Random(33)
    dims = (1, 2)
    cv = coiso_vdata(random_coiso_poisson(rng, dims, 2, require_flat=True))

    def pair(d):
        # x[1] of degree d is a (d + 2)-vector field; a is a vertical (d + 1)-vector.
        # Fiber monomials of degree 1..5 keep chains of every length alive.
        x = cv.zero
        if d + 2 <= 3:
            x = random_multivector(rng, dims, d + 2, 1)
            wedge = rng.choice(list(itertools.combinations(range(3), d + 2)))
            for mono in ((0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 2, 2), (0, 3, 2)):
                x = x + mv(dims, 1, mono, wedge)
        a = cv.zero
        for wedge in itertools.combinations(range(1, 3), d + 1):
            a = a + mv(dims, 1, (1, 0, 0), wedge)
            for mono, coef in random_base_poly(rng, dims, 1).items():
                a = a + mv(dims, coef, mono, wedge)
        return BigElt(x, a)

    _assert_matches_reference(cv, _oracle_argument_lists(rng, pair, cv.zero))


def test_big_m_caps_each_summed_part(monkeypatch):
    # every pattern of m_2 has three terms, their sum six: the cap holds on
    # the summed part, as on a sum of parts
    from derived_brackets import polygeo

    dims = (1, 1)
    v = coiso_vdata(mv(dims, 1, None, (0, 1)))
    p_dp = mv(dims, 1, (0, 1), (1,))
    low, high = (sum((mv(dims, 1, (e, 0), (1,)) for e in exps), v.zero)
                 for exps in ((0, 1, 2), (3, 4, 5)))
    args = (BigElt(p_dp, low), BigElt(p_dp, high))
    big = big_algebra(v)
    monkeypatch.setattr(polygeo, "_term_cap", 5)
    assert len(big.m(2, (args[0], BigElt(p_dp, v.zero))).a.terms) == 3
    assert len(big.m(2, (BigElt(p_dp, v.zero), args[1])).a.terms) == 3
    with pytest.raises(polygeo.TermExplosionError):
        big.m(2, args)
    monkeypatch.setattr(polygeo, "_term_cap", 6)
    assert len(big.m(2, args).a.terms) == 6


# -- the derived arity bound of the coisotropic big algebra ---------------------------


def test_coisotropic_big_algebra_attains_its_derived_bound():
    # x = p1^3 p2^2 d_p1 has depth 5 (p-degree 5, no base legs), so the big
    # algebra's bound over it is 6: against d_p1 (three times) and d_p2
    # (twice) it survives at arity 6, and every further insertion kills it
    dims = (1, 2)
    cv = coiso_vdata(mv(dims, 1, None, (0, 1)))
    big = big_algebra(cv)
    zero = cv.zero
    x = mv(dims, 1, (0, 3, 2), (1,))
    assert big.arity_bound((BigElt(x, zero),)) == 6
    d_p1, d_p2 = mv(dims, 1, None, (1,)), mv(dims, 1, None, (2,))
    args = (BigElt(x, zero),) + tuple(BigElt(zero, a) for a in (d_p1,) * 3 + (d_p2,) * 2)
    assert big.m(6, args) == BigElt(zero, mv(dims, -12, None, (1,)))
    for extra in (d_p1, d_p2, mv(dims, 1, (1, 0, 0), (1,)), mv(dims, 1, None, (1, 2))):
        assert big.m(7, args + (BigElt(zero, extra),)).is_zero()


def test_coisotropic_mc_series_attains_its_derived_bound():
    rng = random.Random(34)
    dims = (1, 2)
    cv = coiso_vdata(mv(dims, 1, None, (0, 1)))
    dtilde = mv(dims, 2, (0, 3, 2), (0, 1)) + random_multivector(rng, dims, 2, 1)
    # the x1-dependent d_p2 leg turns the d_x1 leg of dtilde vertical, at the
    # sixth insertion
    ptilde = random_vertical_section(rng, dims, 1) + mv(dims, 1, (1, 0, 0), (2,))
    assert machine_check(cv, cv.zero, dtilde, ptilde).agree

    big = big_algebra(deform_vdata(cv, cv.zero))
    alpha = BigElt(dtilde, ptilde)
    # 2 p1^3 p2^2 d_x1 ^ d_p1 has depth 5 + 1, so the bound is 7
    assert big.arity_bound((alpha,)) == 7
    report = mc_residual(big, alpha)
    assert report.terminated_by == "filtration"
    assert report.terms_evaluated == 8  # m_1 .. m_7 and the certificate m_8
    assert not big.m(7, (alpha,) * 7).is_zero()
    assert big.m(8, (alpha,) * 8).is_zero()
    series = big.zero
    for n in range(1, 13):
        series = series + big.m(n, (alpha,) * n).scale(Fraction(1, math.factorial(n)))
    assert report.residual == series


# -- input checks ---------------------------------------------------------------------


def _fixture_with(images=None, delta="u"):
    """The fixture table with the projection given on basis names (the
    fixture's own by default) and Delta a basis element."""
    from derived_brackets.gla import LinearMap, table_vdata

    g = fixture_gla()
    space = g.space
    images = images or {n: n for n in ("a", "c", "b")}
    project = LinearMap(space, {n: space.gen(image) for n, image in images.items()})
    return table_vdata(g, ("a", "c", "b"), space.gen(delta), project)


@pytest.mark.parametrize(
    "v, kind",
    [
        (_fixture_with({"a": "c", "c": "c", "b": "b", "u": "a"}), "projection not idempotent"),
        (_fixture_with({"a": "a", "c": "c", "b": "b", "v": "v"}),
         "projection image leaves the subalgebra"),
        (_fixture_with({"a": "a", "c": "c", "b": "b", "w": "b"}),
         "kernel not closed under bracket"),
        (_fixture_with(delta="a"), "degree-1 element has wrong degree"),
    ],
    ids=["idempotent", "image", "kernel", "delta-degree"],
)
def test_validate_reports_each_failure_kind(v, kind):
    report = validate_vdata(v).as_dict()
    assert report["ok"] is False
    assert kind in [k for k, _ in report["failures"]]


def test_validate_brackets_each_nonzero_kernel_part_once(monkeypatch):
    # P moves u to a and a to c (not idempotent), keeps v (outside a) and
    # sends w to b, so the kernel parts u - a, a - c and w - b do not close.
    # The failures, witnesses and order are those recorded before kernel
    # parts were formed once per element; then the check formed all 36 pairs
    # of the 6 sample elements, and validation made 43 gla brackets.
    from derived_brackets.gla import StructureGLA

    calls = []
    bracket = StructureGLA.bracket

    def counting(self, x, y):
        calls.append(1)
        return bracket(self, x, y)

    monkeypatch.setattr(StructureGLA, "bracket", counting)
    v = _fixture_with({"a": "c", "c": "c", "b": "b", "u": "a", "v": "v", "w": "b"})
    calls.clear()
    report = validate_vdata(v)
    assert report.failures == (
        ("projection not idempotent", "u"),
        ("projection image leaves the subalgebra", "v"),
        ("kernel not closed under bracket", "[a, u]"),
        ("kernel not closed under bracket", "[u, a]"),
        ("kernel not closed under bracket", "[u, w]"),
        ("kernel not closed under bracket", "[w, u]"),
    )
    # 6 subalgebra pairs, the 3 x 3 nonzero kernel parts and [Delta, Delta]
    assert len(calls) == 6 + 9 + 1 < 43


def _tied_subspace(x):
    # span(a, v + b, w): stable under D = [u, .], yet [a, v + b] = -b
    return set(x.terms) <= {"a", "v", "b", "w"} and x.terms.get("v", 0) == x.terms.get("b", 0)


_FIXTURE = fixture_vdata()
_GEN = _FIXTURE.zero.space.gen


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: p_phi(_FIXTURE, _GEN("b")), "deformation direction must have degree 0"),
        (lambda: small_algebra(_FIXTURE).m(0, ()), "non-curved small algebra has no 0-ary bracket"),
        (lambda: big_algebra(_FIXTURE).m(0, ()), "the big construction is never curved"),
        (lambda: restrict(_FIXTURE, big_algebra(_FIXTURE), _tied_subspace,
                          [_GEN("a"), _GEN("v") + _GEN("b"), _GEN("w")]),
         r"subspace not closed under the bracket: \[a, b \+ v\]"),
        (lambda: restrict(_FIXTURE, big_algebra(_FIXTURE), lambda x: set(x.terms) <= {"w"},
                          [_GEN("w")]).m(1, (BigElt(_GEN("a"), _FIXTURE.zero),)),
         "argument outside the restricted subspace"),
    ],
    ids=["deformation-degree", "small-curvature", "big-curvature", "restrict-closure",
         "restricted-argument"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
