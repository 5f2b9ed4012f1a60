import itertools
import random
from fractions import Fraction

import pytest

from derived_brackets.linfty import gauge_field, mc_residual, relations_residual
from derived_brackets.polygeo import (
    PolyForm,
    PolyMultivector,
    contract_form,
    de_rham,
    form,
    multi_sharp,
    mv,
    schouten,
)
from derived_brackets.qgeom import oracle_bracket
from derived_brackets.sampling import (
    gauge_safe_data,
    random_form,
    random_gauge_direction,
    random_multivector,
    random_tpois_element,
    random_twisted_pair,
)
from derived_brackets.tpois import (
    AffineDiffeo,
    GraphTransformError,
    TPoisElement,
    UnsupportedVectorFieldError,
    action_generator,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    group_act,
    group_mul,
    is_twisted_poisson,
    mc_residual_derivative,
    tpois_bracket,
    tpois_linfty,
    tpois_mc_residual,
    wedge2_tilde,
    wedge3_tilde,
)

D3 = (3, 0)


def T(x):
    if isinstance(x, PolyForm):
        return TPoisElement.of_form(x)
    return TPoisElement.of_mv(x)


# -- the multibrackets -------------------------------------------------------------


def test_unary_is_minus_de_rham():
    h = form(D3, 1, (1, 0, 0), (1, 2))
    value = tpois_bracket(1, (T(h),))
    assert value.form_part == -1 * de_rham(h)
    assert value.mv_part.is_zero()


def test_unary_kills_multivectors():
    pi = mv(D3, 1, (0, 0, 1), (0, 1))
    assert tpois_bracket(1, (T(pi),)).is_zero()


def test_binary_bivectors_flip_schouten_sign():
    rng = random.Random(0)
    p1 = random_multivector(rng, D3, 2, 2)
    p2 = random_multivector(rng, D3, 2, 2)
    value = tpois_bracket(2, (T(p1), T(p2)))
    assert value.mv_part == schouten(p1, p2).scale(-1)  # (-1)^{a1+1}, a1 = 2


def test_binary_vector_keeps_schouten_sign():
    rng = random.Random(1)
    x = random_multivector(rng, D3, 1, 2)
    p2 = random_multivector(rng, D3, 2, 2)
    value = tpois_bracket(2, (T(x), T(p2)))
    assert value.mv_part == schouten(x, p2)


def test_form_with_mismatched_count_vanishes():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    assert tpois_bracket(2, (T(h), T(pi))).is_zero()


def test_two_forms_vanish():
    h1 = form(D3, 1, None, (0, 1))
    h2 = form(D3, 1, (1, 0, 0), (0, 2))
    assert tpois_bracket(2, (T(h1), T(h2))).is_zero()
    pi = mv(D3, 1, None, (0, 1))
    assert tpois_bracket(3, (T(h1), T(h2), T(pi))).is_zero()


def test_all_multivector_triples_vanish():
    rng = random.Random(2)
    args = tuple(T(random_multivector(rng, D3, rng.randint(1, 2), 2)) for _ in range(3))
    assert tpois_bracket(3, args).is_zero()


def test_family_c_against_hand_value():
    h = form(D3, 1, None, (0, 1, 2))
    x = mv(D3, 1, None, (0,))
    pi = mv(D3, 1, None, (1, 2))
    value = tpois_bracket(4, (T(h), T(x), T(pi), T(pi)))
    assert value.mv_part == mv(D3, 2, None, (1, 2))


def test_brackets_match_oracle_on_random_tuples():
    rng = random.Random(3)
    for m in (2, 3):
        dims = (m, 0)
        for _ in range(15):
            n_mv = rng.randint(1, min(3, m))
            h = random_form(rng, dims, n_mv, 2)
            pis = [random_multivector(rng, dims, rng.randint(1, 2), 2) for _ in range(n_mv)]
            args = [h] + pis
            direct = tpois_bracket(len(args), tuple(T(a) for a in args))
            o_form, o_mv = oracle_bracket(m, args)
            assert direct.form_part == o_form
            assert direct.mv_part == o_mv


def test_relations_hold():
    rng = random.Random(4)
    algebra = tpois_linfty(3)
    for n in range(1, 5):
        for _ in range(8):
            args = tuple(
                random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 2)
                for _ in range(n)
            )
            assert relations_residual(algebra, n, args).is_zero()


# -- the live patterns against the full (form, multivector) enumeration ----------------


def _reference_degree(e):
    degs = {q - 3 for q in e.form_part.form_degrees()}
    degs |= {s - 2 for s in e.mv_part.arities()}
    return degs.pop() if len(degs) == 1 else None


def _reference_components(e):
    m = e.dims[0]
    by = {}
    for q, part in e.form_part.components():
        prev = by.get(q - 3, TPoisElement.zero(m))
        by[q - 3] = TPoisElement(prev.form_part + part, prev.mv_part)
    for s, part in e.mv_part.components():
        prev = by.get(s - 1, TPoisElement.zero(m))  # components() reports arity - 1
        by[s - 1] = TPoisElement(prev.form_part, prev.mv_part + part)
    return sorted(by.items())


def _reference_family_c(h, pis):
    n = len(pis)
    out = PolyMultivector.zero(h.dims)
    h_part = h.degree_part(n)
    if h_part.is_zero():
        return out
    for arities in itertools.product(*[sorted(pi.arities()) for pi in pis]):
        if any(a < 1 for a in arities):
            continue  # functions contract to zero
        parts = [pi.arity_part(a) for pi, a in zip(pis, arities)]
        exponent = sum(a * (n - i) for i, a in enumerate(arities, start=1))
        out = out + multi_sharp(parts, h_part).scale(-1 if exponent % 2 else 1)
    return out


def _reference_family_b(p1, p2):
    out = PolyMultivector.zero(p1.dims)
    for arity in sorted(p1.arities()):
        out = out + schouten(p1.arity_part(arity), p2).scale(1 if arity % 2 else -1)
    return out


def _reference_bracket(n, args):
    """tpois_bracket by expanding every argument into homogeneous parts and
    every slot into its form or its multivector: all 2^k patterns."""
    m = args[0].dims[0]
    if n == 1:
        return TPoisElement.of_form(-de_rham(args[0].form_part))
    total = TPoisElement.zero(m)
    if any(a.is_zero() for a in args):
        return total
    expanded = [
        [a] if _reference_degree(a) is not None else [p for _, p in _reference_components(a)]
        for a in args
    ]
    for combo in itertools.product(*expanded):
        degrees = [_reference_degree(e) for e in combo]
        options = [
            [(kind, part) for kind, part in (("form", e.form_part), ("mv", e.mv_part))
             if not part.is_zero()]
            for e in combo
        ]
        for pattern in itertools.product(*options):
            kinds = [kind for kind, _ in pattern]
            if kinds.count("form") == 0 and n == 2:
                total = total + T(_reference_family_b(pattern[0][1], pattern[1][1]))
            elif kinds.count("form") == 1:
                pos = kinds.index("form")
                pis = [p for kind, p in pattern if kind == "mv"]
                sign = -1 if degrees[pos] % 2 and sum(degrees[:pos]) % 2 else 1
                total = total + T(_reference_family_c(pattern[pos][1], pis).scale(sign))
    return total


def _pattern_argument_lists(rng, m, n):
    """Tuples of n arguments on R^m: inhomogeneous sums, a form of degree n - 1
    beside multivectors, slots with a zero form or multivector part,
    arguments repeated in adjacent slots, and functions (arity-0 parts)."""
    dims = (m, 0)

    def element(w=None):
        return random_tpois_element(rng, m, rng.choice([-1, -1, 0, 1]) if w is None else w, 1)

    def mixed():
        return element(-1) + element(0) + T(random_multivector(rng, dims, 0, 1))

    def with_form(args):
        args = list(args)
        if 1 <= n - 1 <= m:
            pos = rng.randrange(n)
            args[pos] = args[pos] + T(random_form(rng, dims, n - 1, 1))
        return tuple(args)

    p, f = mixed(), T(random_multivector(rng, dims, 0, 2))
    yield tuple(element() for _ in range(n))
    yield with_form(element() + element() for _ in range(n))
    yield with_form(mixed() for _ in range(n))
    yield with_form(T(e.mv_part) if rng.random() < 0.5 else e for e in (mixed() for _ in range(n)))
    yield with_form((p,) * n)
    yield with_form((p,) * (n - 1) + (T(p.form_part),))
    yield with_form((f,) + tuple(element(-1) for _ in range(n - 1)))
    yield with_form(tuple(element(-1) for _ in range(n - 1)) + (f + element(-1),))


def test_bracket_matches_full_pattern_enumeration():
    rng = random.Random(41)
    checked = nonzero = 0
    for m in (2, 3, 4):
        for n in range(1, 6):
            for args in _pattern_argument_lists(rng, m, n):
                value = tpois_bracket(n, args)
                assert value == _reference_bracket(n, args), (m, args)
                checked += 1
                nonzero += not value.is_zero()
    assert nonzero > checked // 3


# -- the two-part element type ----------------------------------------------------------


def test_element_rejects_zero_forms_and_mismatched_dims():
    with pytest.raises(ValueError):
        TPoisElement(form(D3, 1, (1, 0, 0), ()), PolyMultivector.zero(D3))
    with pytest.raises(ValueError):
        TPoisElement(PolyForm.zero((2, 0)), PolyMultivector.zero(D3))
    with pytest.raises(ValueError):
        TPoisElement(PolyForm.zero((3, 1)), PolyMultivector.zero((3, 1)))


def test_element_arithmetic_stays_in_the_type():
    rng = random.Random(42)
    e = random_tpois_element(rng, 3, 0, 2)
    g = random_tpois_element(rng, 3, -1, 2)
    for value in (e + g, e - g, -e, e.scale(Fraction(2, 3)), 3 * e):
        assert type(value) is TPoisElement
    assert (e + g).form_part == e.form_part + g.form_part
    assert (e + g).mv_part == e.mv_part + g.mv_part
    assert e.scale(0).is_zero() and e.scale(0) == TPoisElement.zero(3)
    assert e - e == TPoisElement.zero(3) and hash(e + g) == hash(g + e)


def test_element_is_not_equal_to_a_big_algebra_pair():
    from derived_brackets.vdata import BigElt

    h, u = form(D3, 1, None, (0, 1)), mv(D3, 1, None, (2,))
    assert TPoisElement(h, u) != BigElt(h, u)
    assert BigElt(h, u) != TPoisElement(h, u)
    assert BigElt(h, u) == BigElt(h, u)


# -- Maurer-Cartan ------------------------------------------------------------------


def test_mc_constant_bivector():
    pi = mv(D3, 1, None, (0, 1))
    dh, res = tpois_mc_residual(PolyForm.zero(D3), pi)
    assert dh.is_zero() and res.is_zero()


def test_mc_rank_two_positive_example():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    assert is_twisted_poisson(h, pi)


def test_mc_fails_for_full_rank_on_r4():
    d4 = (4, 0)
    h = form(d4, 1, None, (0, 1, 2))
    pi = mv(d4, 1, None, (0, 1)) + mv(d4, 1, None, (2, 3))
    dh, res = tpois_mc_residual(h, pi)
    assert dh.is_zero()
    assert not res.is_zero()


def test_mc_series_matches_closed_form_normalization():
    rng = random.Random(5)
    algebra = tpois_linfty(3)
    for _ in range(10):
        h, pi = random_twisted_pair(rng, 3, 2, flavor="mixed")
        report = mc_residual(algebra, TPoisElement(h, pi))
        dh, res = tpois_mc_residual(h, pi)
        assert report.residual.form_part == -1 * dh
        assert report.residual.mv_part == res.scale(Fraction(-1, 2))
        assert report.terminated_by == "bound"


def test_mc_equivalence_booleans():
    rng = random.Random(6)
    algebra = tpois_linfty(3)
    seen = {True: 0, False: 0}
    for _ in range(20):
        h, pi = random_twisted_pair(rng, 3, 2, flavor="mixed")
        series_flat = mc_residual(algebra, TPoisElement(h, pi)).residual.is_zero()
        dh, res = tpois_mc_residual(h, pi)
        closed_flat = dh.is_zero() and res.is_zero()
        assert series_flat == closed_flat
        seen[closed_flat] += 1
    assert seen[True] and seen[False]


# -- gauge fields --------------------------------------------------------------------


def test_gauge_trivial_cases():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    zf, zm = gauge_Y(PolyForm.zero(D3), PolyMultivector.zero(D3), h, pi)
    assert zf.is_zero() and zm.is_zero()
    b = form(D3, 1, (0, 0, 1), (0, 1))
    gf, gm = gauge_Y(b, PolyMultivector.zero(D3), PolyForm.zero(D3), pi)
    assert gf == -1 * de_rham(b)
    assert gm == wedge2_tilde(pi, b)
    x = mv(D3, 2, None, (2,))
    gf, gm = gauge_Y(PolyForm.zero(D3), x, PolyForm.zero(D3), pi)
    assert gf.is_zero()
    assert gm == schouten(x, pi)


def test_gauge_series_equals_closed_form():
    rng = random.Random(7)
    algebra = tpois_linfty(3)
    for _ in range(10):
        h, pi = random_twisted_pair(rng, 3, 2, flavor="positive")
        b, x = random_gauge_direction(rng, 3, 2, constant_field=False)
        gf, gm = gauge_Y(b, x, h, pi)
        series = gauge_field(algebra, TPoisElement(b, x), TPoisElement(h, pi))
        assert series.form_part == gf and series.mv_part == gm


def test_gauge_field_sharps_each_distinct_pair_once(monkeypatch):
    # m_4(alpha, alpha, alpha, z) contracts alpha's 3-form with the same
    # multivectors (pi, pi, X) in each of its first three slots: the slots
    # that repeat their left neighbour reuse its multi_sharp value
    import derived_brackets.tpois as tpois_module

    calls = []

    def counted(pis, w):
        calls.append((tuple(pis), w))
        return multi_sharp(pis, w)

    monkeypatch.setattr(tpois_module, "multi_sharp", counted)
    rng = random.Random(8)
    algebra = tpois_linfty(3)
    reused = 0
    for _ in range(10):
        h, pi = random_twisted_pair(rng, 3, 2, flavor="positive")
        b, x = random_gauge_direction(rng, 3, 2, constant_field=False)
        z, at = TPoisElement(b, x), TPoisElement(h, pi)
        calls.clear()
        gauge_field(algebra, z, at)
        assert len(calls) == len(set(calls))
        calls.clear()
        tpois_bracket(4, (at, at, at, z))
        assert len(calls) == (not h.is_zero() and not x.is_zero() and not pi.is_zero())
        reused += len(calls)
    assert reused >= 8


def test_gauge_tangency():
    rng = random.Random(8)
    for _ in range(10):
        h, pi = random_twisted_pair(rng, 3, 2, flavor="positive")
        b, x = random_gauge_direction(rng, 3, 2)
        gf, gm = gauge_Y(b, x, h, pi)
        d_form, d_mv = mc_residual_derivative(h, pi, gf, gm)
        assert d_form.is_zero() and d_mv.is_zero()


def test_non_gauge_directions_are_generically_not_tangent():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    stray = mv(D3, 1, (1, 0, 0), (0, 2))
    d_form, d_mv = mc_residual_derivative(h, pi, PolyForm.zero(D3), stray)
    assert not (d_form.is_zero() and d_mv.is_zero())


# -- graph transform --------------------------------------------------------------------


def test_e_b_pi_zero_b():
    pi = mv(D3, 1, (0, 0, 1), (0, 1))
    assert e_b_pi(PolyForm.zero(D3), pi) == pi


def test_e_b_pi_constant_rescale():
    pi = mv((2, 0), 1, None, (0, 1))
    b = form((2, 0), Fraction(1, 2), None, (0, 1))
    assert e_b_pi(b, pi) == pi.scale(2)


def test_e_b_pi_disjoint_supports():
    d4 = (4, 0)
    pi = mv(d4, 1, None, (0, 1))
    b = form(d4, 1, None, (2, 3))
    assert e_b_pi(b, pi) == pi


def test_e_b_pi_not_a_graph():
    pi = mv((2, 0), 1, None, (0, 1))
    b = form((2, 0), 1, None, (0, 1))  # det(1 + B^flat pi^sharp) = (1 - 1)^2 = 0
    with pytest.raises(GraphTransformError, match="not a graph"):
        e_b_pi(b, pi)


def test_e_b_pi_leaves_polynomial_category():
    pi = mv((2, 0), 1, None, (0, 1))
    b = form((2, 0), 1, (1, 0), (0, 1))  # x-dependent determinant
    with pytest.raises(GraphTransformError, match="polynomial"):
        e_b_pi(b, pi)


def test_e_b_pi_group_property_for_commuting_shears():
    pi = mv((2, 0), 1, None, (0, 1))
    b1 = form((2, 0), Fraction(1, 3), None, (0, 1))
    b2 = form((2, 0), Fraction(1, 5), None, (0, 1))
    assert e_b_pi(b1, e_b_pi(b2, pi)) == e_b_pi(b1 + b2, pi)


# -- group action -------------------------------------------------------------------------


def test_group_identity_action():
    h = form(D3, 2, (1, 0, 0), (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    nh, np_ = group_act(PolyForm.zero(D3), AffineDiffeo.identity(3), h, pi)
    assert nh == h and np_ == pi


def test_pure_shear_action():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    b = form(D3, 1, None, (1, 2))
    nh, np_ = group_act(b, AffineDiffeo.identity(3), h, pi)
    assert nh == h - de_rham(b)
    assert np_ == e_b_pi(b, pi)


def test_action_composition_law():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    phi1 = AffineDiffeo([[1, 2, 0], [0, 1, 0], [1, 0, 1]], [1, 0, 2])
    phi2 = AffineDiffeo([[0, 1, 0], [1, 0, 0], [0, 0, 3]], [0, 1, 0])
    b1 = form(D3, 1, None, (0, 2))
    b2 = form(D3, 2, None, (1, 2))
    one_by_one = group_act(b1, phi1, *group_act(b2, phi2, h, pi))
    combined = group_act(*group_mul(b1, phi1, b2, phi2), h, pi)
    assert one_by_one == combined


def test_action_preserves_mc():
    rng = random.Random(9)
    for _ in range(8):
        h, pi = random_twisted_pair(rng, 3, 1, flavor="positive")
        phi = AffineDiffeo([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [0, 1, 0])
        b = form(D3, rng.randint(-2, 2), None, (0, 2))
        try:
            nh, np_ = group_act(b, phi, h, pi)
        except GraphTransformError:
            continue
        assert is_twisted_poisson(nh, np_)


def test_group_act_fixed_value():
    # recorded with separate static and t-dependent transport code; the
    # translation, the shear and the polynomial coefficients all contribute
    h = (
        form(D3, 1, None, (0, 1, 2))
        + form(D3, 2, (0, 1, 0), (0, 1, 2))
        + form(D3, 1, (0, 0, 2), (0, 1, 2))
    )
    pi = mv(D3, 1, None, (0, 1)) + mv(D3, 3, (1, 0, 0), (1, 2))
    b = (
        form(D3, Fraction(1, 2), None, (0, 1))
        + form(D3, 1, (0, 1, 0), (0, 2))
        - form(D3, 1, (0, 1, 0), (1, 2))
    )
    phi = AffineDiffeo([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [0, 0, 1])
    nh, np_ = group_act(b, phi, h, pi)
    assert nh == (
        form(D3, Fraction(13, 8), None, (0, 1, 2))
        + form(D3, Fraction(-1, 4), (0, 0, 1), (0, 1, 2))
        + form(D3, Fraction(1, 8), (0, 0, 2), (0, 1, 2))
        + form(D3, 1, (0, 1, 0), (0, 1, 2))
    )
    assert np_ == (
        mv(D3, 2, None, (0, 1))
        + mv(D3, -12, (0, 1, 0), (0, 2))
        + mv(D3, -12, (0, 1, 0), (1, 2))
        + mv(D3, 12, (1, 0, 0), (0, 2))
        + mv(D3, 12, (1, 0, 0), (1, 2))
    )


def test_affine_diffeo_push_pull_inverse():
    rng = random.Random(10)
    phi = AffineDiffeo([[2, 1, 0], [0, 1, 0], [0, 1, 1]], [3, 0, 1])
    for _ in range(5):
        w = random_form(rng, D3, 2, 2)
        assert phi.inverse().pullback_form(phi.pullback_form(w)) == w
        u = random_multivector(rng, D3, 2, 2)
        assert phi.inverse().pushforward_mv(phi.pushforward_mv(u)) == u


# -- flow curves --------------------------------------------------------------------------


def test_flow_rejects_quadratic_fields():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    bad = mv(D3, 1, (2, 0, 0), (0,))
    with pytest.raises(UnsupportedVectorFieldError):
        flow_curve(PolyForm.zero(D3), bad, h, pi)


def test_flow_rejects_non_nilpotent_linear_fields():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    euler = mv(D3, 1, (1, 0, 0), (0,))  # x1 d1: matrix part not nilpotent
    with pytest.raises(UnsupportedVectorFieldError):
        flow_curve(PolyForm.zero(D3), euler, h, pi)


def test_flow_zero_direction_closed_form():
    rng = random.Random(11)
    for _ in range(6):
        h, pi, b, _ = gauge_safe_data(rng, 3, 2)
        curve = flow_curve(b, PolyMultivector.zero(D3), h, pi)
        assert curve.at(Fraction(0)) == (h, pi)
        t0 = Fraction(rng.randint(1, 4), 3)
        try:
            ft, mt = curve.at(t0)
            assert ft == h - de_rham(b).scale(t0)
            assert mt == e_b_pi(b.scale(t0), pi)
        except GraphTransformError:
            pass
        assert curve.ode_residual() == {}


def test_flow_constant_direction():
    rng = random.Random(12)
    for _ in range(6):
        h, pi, b, x = gauge_safe_data(rng, 3, 2)
        curve = flow_curve(b, x, h, pi)
        assert curve.at(Fraction(0)) == (h, pi)
        assert curve.ode_residual() == {}
        assert curve.derivative_at_zero() == gauge_Y(b, x, h, pi)


def test_flow_nilpotent_linear_direction():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 2, None, (0, 1))
    b = form(D3, 1, (0, 0, 1), (1, 2))
    x = mv(D3, 1, (0, 0, 1), (0,)) + mv(D3, 3, None, (1,))  # x3 d1 + 3 d2
    curve = flow_curve(b, x, h, pi)
    assert curve.at(Fraction(0)) == (h, pi)
    assert curve.ode_residual() == {}
    assert curve.derivative_at_zero() == gauge_Y(b, x, h, pi)


def test_flow_emission_shape():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1))
    b = form(D3, 1, None, (0, 1))
    curve = flow_curve(b, PolyMultivector.zero(D3), h, pi)
    payload = curve.emit()
    assert set(payload) == {"form", "mv_numerator", "denominator"}
    assert all(isinstance(p, int) for p, _ in payload["form"])


# -- generators ---------------------------------------------------------------------------


def test_generator_requires_mc():
    h = form(D3, 1, None, (0, 1, 2))
    pi = mv(D3, 1, None, (0, 1)) + mv(D3, 1, (0, 1, 0), (1, 2))
    assert not is_twisted_poisson(h, pi)
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        generator_match(form(D3, 0, None, ()), PolyMultivector.zero(D3), h, pi)


def test_generator_zero_field_matches_gauge_directly():
    rng = random.Random(13)
    h, pi, b, _ = gauge_safe_data(rng, 3, 2)
    rep = generator_match(b, PolyMultivector.zero(D3), h, pi)
    assert rep.identity_holds and rep.symbolic_matches_closed_form
    assert rep.gauge == rep.generator  # i_X H = 0 and X = -X = 0


def test_generator_h_zero_relation():
    # with H = 0 the correspondence reads Z^{(B, -X)} = Y^{(B, X)}
    rng = random.Random(14)
    _, pi, b, x = gauge_safe_data(rng, 3, 2)
    h0 = PolyForm.zero(D3)
    rep = generator_match(b, x, h0, pi)
    assert rep.identity_holds
    assert action_generator(b, -1 * x, h0, pi) == rep.gauge


def test_generator_match_random():
    rng = random.Random(15)
    for _ in range(6):
        h, pi, b, x = gauge_safe_data(rng, 3, 2)
        rep = generator_match(b, x, h, pi)
        assert rep.identity_holds and rep.symbolic_matches_closed_form


def test_graded_symmetry_of_the_brackets():
    from derived_brackets.graded import Permutation, koszul_sign

    rng = random.Random(16)
    algebra = tpois_linfty(3)
    for n in (2, 3, 4):
        for _ in range(8):
            args = tuple(
                random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 2)
                for _ in range(n)
            )
            base = algebra.m(n, args)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma = Permutation(images)
            degrees = [algebra.degree(a) if not a.is_zero() else 0 for a in args]
            permuted = tuple(args[sigma(i) - 1] for i in range(1, n + 1))
            eps = koszul_sign(sigma, degrees)
            assert algebra.m(n, permuted) == base.scale(eps)


# -- input checks ---------------------------------------------------------------------

_H3 = form(D3, 1, None, (0, 1, 2))
_PI3 = mv(D3, 1, None, (0, 1))
_B3 = form(D3, 1, None, (1, 2))
_X3 = mv(D3, 1, None, (0,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tpois_bracket(2, (TPoisElement.zero(3),)), ValueError,
         "expected 2 >= 1 arguments"),
        (lambda: tpois_bracket(2, (TPoisElement.zero(2), TPoisElement.zero(3))), ValueError,
         "ambient space mismatch"),
        (lambda: tpois_linfty(2).m(0, ()), ValueError, "the twisted-Poisson algebra is not curved"),
        (lambda: tpois_mc_residual(_B3, _PI3), ValueError, "expected a 3-form"),
        (lambda: tpois_mc_residual(_H3, _X3), ValueError, "expected a bivector"),
        (lambda: e_b_pi(form(D3, 1, None, (0,)), _PI3), ValueError,
         "graph transforms apply to bivectors and 2-forms"),
        (lambda: AffineDiffeo([[1, 0]], [0]), ValueError, "inconsistent affine data"),
        (lambda: AffineDiffeo([[1, 2], [2, 4]], [0, 0]), ValueError,
         "affine map must be invertible"),
        (lambda: AffineDiffeo([[2]], [1]).compose(AffineDiffeo.identity(2)), ValueError,
         "dimension mismatch"),
        (lambda: group_mul(PolyForm.zero((1, 0)), AffineDiffeo([[2]], [1]),
                           PolyForm.zero((1, 0)), AffineDiffeo.identity(2)), ValueError,
         "dimension mismatch"),
        (lambda: flow_curve(_B3, _PI3, _H3, _PI3), UnsupportedVectorFieldError,
         "flow directions must be vector fields"),
        (lambda: flow_curve(_B3, _X3, _B3, _PI3), ValueError,
         "flow starts at a 3-form / bivector pair"),
        (lambda: flow_curve(_B3, _X3, _H3, _X3), ValueError,
         "flow starts at a 3-form / bivector pair"),
    ],
    ids=["too-few-arguments", "mixed-dims", "curvature", "mc-not-3-form", "mc-not-bivector",
         "shear-by-1-form", "affine-shapes", "affine-singular", "compose-dims",
         "group-mul-dims", "flow-by-bivector", "flow-from-2-form",
         "flow-from-vector"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
