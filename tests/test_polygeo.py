import itertools
import random
from fractions import Fraction
from operator import add

import pytest

from derived_brackets.graded import add_terms, as_fraction, inversion_parity, scale_terms, settle
from derived_brackets.polygeo import (
    Mono,
    PolyForm,
    PolyMultivector,
    _check_size,
    _sort_wedge,
    coiso_projection,
    coiso_vdata,
    contract_form,
    coordinate_vector,
    de_rham,
    element_to_json,
    fiber_translate,
    form,
    form_from_json,
    is_vertical_section,
    mv,
    mv_from_json,
    multi_sharp,
    schouten,
    sharp,
    wedge,
)
from derived_brackets.sampling import (
    random_base_poly,
    random_coiso_poisson,
    random_form,
    random_multivector,
    random_vertical_section,
)

D2 = (2, 0)
D3 = (3, 0)
DC = (1, 2)  # the bundle R^1 x R^2


def rand_mv(rng, dims=D3, arity=None, degree=2):
    if arity is None:
        arity = rng.randint(0, dims[0] + dims[1])
    return random_multivector(rng, dims, arity, degree)


# -- Schouten bracket ------------------------------------------------------------------


def test_schouten_constant_fields_commute():
    assert schouten(coordinate_vector(D2, 0), coordinate_vector(D2, 1)).is_zero()


def test_schouten_lie_bracket_example():
    x1d2 = mv(D2, 1, (1, 0), (1,))
    assert schouten(x1d2, coordinate_vector(D2, 0)) == mv(D2, -1, (0, 0), (1,))


def test_schouten_on_functions_is_directional_derivative():
    f = mv(D2, 1, (2, 0), ())  # x1^2
    x = coordinate_vector(D2, 0)
    assert schouten(x, f) == mv(D2, 2, (1, 0), ())
    assert schouten(f, x) == mv(D2, -2, (1, 0), ())


def test_small_bivector_is_poisson():
    pi = mv(D2, 1, (1, 0), (0, 1))  # x1 d1^d2 on the plane
    assert schouten(pi, pi).is_zero()


def test_schouten_graded_antisymmetry():
    rng = random.Random(1)
    for _ in range(25):
        a1, a2 = rng.randint(0, 3), rng.randint(0, 3)
        u = rand_mv(rng, arity=a1)
        v = rand_mv(rng, arity=a2)
        sign = (-1) ** (((a1 - 1) * (a2 - 1)) % 2)
        assert schouten(u, v) == schouten(v, u).scale(-sign)


def test_schouten_graded_jacobi():
    rng = random.Random(2)
    for _ in range(15):
        arities = [rng.randint(0, 2) for _ in range(3)]
        u, v, w = (rand_mv(rng, arity=a, degree=1) for a in arities)
        du, dv = arities[0] - 1, arities[1] - 1
        lhs = schouten(u, schouten(v, w))
        rhs = schouten(schouten(u, v), w) + schouten(v, schouten(u, w)).scale(
            (-1) ** ((du * dv) % 2)
        )
        assert lhs == rhs


def test_schouten_leibniz_over_wedge():
    rng = random.Random(3)
    for _ in range(15):
        a_u, a_v, a_w = rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2)
        u = rand_mv(rng, arity=a_u, degree=1)
        v = rand_mv(rng, arity=a_v, degree=1)
        w = rand_mv(rng, arity=a_w, degree=1)
        lhs = schouten(u, wedge(v, w))
        rhs = wedge(schouten(u, v), w) + wedge(v, schouten(u, w)).scale(
            (-1) ** (((a_u - 1) * a_v) % 2)
        )
        assert lhs == rhs


def test_schouten_preserves_polynomial_degree():
    rng = random.Random(4)
    for _ in range(20):
        u = random_multivector(rng, DC, rng.randint(1, 2), 2)
        v = random_multivector(rng, DC, rng.randint(1, 2), 2)
        w = schouten(u, v)
        if w.is_zero() or u.is_zero() or v.is_zero():
            continue
        assert w.pol_degree() <= u.pol_degree() + v.pol_degree()


# -- de Rham ----------------------------------------------------------------------------


def test_de_rham_examples():
    w = form(D2, 1, (1, 0), (1,))  # x1 dx2
    assert de_rham(w) == form(D2, 1, (0, 0), (0, 1))
    assert de_rham(form(D3, 1, None, (0, 1, 2))).is_zero()


def test_de_rham_squares_to_zero():
    rng = random.Random(5)
    for _ in range(20):
        w = random_form(rng, D3, rng.randint(0, 2), 3)
        assert de_rham(de_rham(w)).is_zero()


def test_de_rham_is_a_degree_one_derivation():
    rng = random.Random(6)
    for _ in range(15):
        qa = rng.randint(0, 2)
        a = random_form(rng, D3, qa, 2)
        b = random_form(rng, D3, rng.randint(0, 2), 2)
        lhs = de_rham(wedge(a, b))
        rhs = wedge(de_rham(a), b) + wedge(a, de_rham(b)).scale((-1) ** (qa % 2))
        assert lhs == rhs


# -- contractions -------------------------------------------------------------------------


def test_sharp_examples():
    p12 = mv(D3, 1, None, (0, 1))
    assert sharp(p12, form(D3, 1, None, (0,))) == mv(D3, 1, None, (1,))
    assert sharp(p12, form(D3, 1, None, (2,))).is_zero()
    f = mv(D3, 7, (1, 1, 0), ())
    assert sharp(f, form(D3, 1, None, (0,))).is_zero()


def test_sharp_rejects_higher_forms():
    with pytest.raises(ValueError):
        sharp(mv(D3, 1, None, (0, 1)), form(D3, 1, None, (0, 1)))


def test_multi_sharp_singleton_is_sharp():
    rng = random.Random(7)
    for _ in range(10):
        pi = rand_mv(rng, arity=rng.randint(1, 3))
        xi = random_form(rng, D3, 1, 2)
        assert multi_sharp([pi], xi) == sharp(pi, xi)


def test_multi_sharp_rank_two_kills_three_forms():
    pi = mv(D3, 1, None, (0, 1))
    h = form(D3, 5, (1, 1, 1), (0, 1, 2))
    assert multi_sharp([pi, pi, pi], h).is_zero()


def test_multi_sharp_constant_example():
    pi = mv(D2, 1, None, (0, 1))
    assert multi_sharp([pi, pi], form(D2, 1, None, (0, 1))) == mv(D2, 2, None, (0, 1))


def test_multi_sharp_linear_in_every_slot():
    rng = random.Random(8)
    for _ in range(8):
        p1 = rand_mv(rng, arity=1, degree=1)
        p1b = rand_mv(rng, arity=1, degree=1)
        p2 = rand_mv(rng, arity=2, degree=1)
        w = random_form(rng, D3, 2, 1)
        lhs = multi_sharp([p1 + p1b, p2], w)
        rhs = multi_sharp([p1, p2], w) + multi_sharp([p1b, p2], w)
        assert lhs == rhs
        lhs = multi_sharp([p1, p2], w.scale(3))
        assert lhs == multi_sharp([p1, p2], w).scale(3)


def test_multi_sharp_koszul_swap_rule():
    # swapping adjacent slots of arities a, b costs (-1)^{(a-1)(b-1)+1}
    rng = random.Random(9)
    for _ in range(8):
        a1, a2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = rand_mv(rng, arity=a1, degree=1)
        p2 = rand_mv(rng, arity=a2, degree=1)
        w = random_form(rng, D3, 2, 1)
        sign = (-1) ** (((a1 - 1) * (a2 - 1) + 1) % 2)
        assert multi_sharp([p2, p1], w) == multi_sharp([p1, p2], w).scale(sign)


def test_sort_wedge_matches_inversion_parity():
    # two legs take a single comparison; every other length counts inversions
    for length in (2, 3):
        for legs in itertools.product(range(6), repeat=length):
            if len(set(legs)) < length:
                assert _sort_wedge(legs) is None
            else:
                sign = -1 if inversion_parity(legs) else 1
                assert _sort_wedge(legs) == (sign, tuple(sorted(legs)))


def test_contract_form_first_slot():
    h = form(D3, 1, None, (0, 1, 2))
    x = coordinate_vector(D3, 0)
    assert contract_form(x, h) == form(D3, 1, None, (1, 2))
    y = coordinate_vector(D3, 1)
    assert contract_form(y, h) == form(D3, -1, None, (0, 2))


# -- coisotropic model ---------------------------------------------------------------------


def test_coiso_projection_examples():
    assert coiso_projection(mv(DC, 1, None, (0, 1))).is_zero()
    vertical = mv(DC, 1, None, (1, 2))
    assert coiso_projection(vertical) == vertical
    assert coiso_projection(mv(DC, 1, (0, 1, 0), (1, 2))).is_zero()
    # base-coefficient vertical terms survive with their x dependence
    survivor = mv(DC, 3, (2, 0, 0), (1,))
    assert coiso_projection(survivor) == survivor


def test_coiso_vdata_flags():
    flat = mv(DC, 1, None, (0, 1))
    assert not coiso_vdata(flat).curved
    vertical = mv(DC, 1, None, (1, 2))
    assert coiso_vdata(vertical).curved


def test_coiso_vdata_rejects_non_poisson():
    bad = mv(DC, 1, (0, 1, 0), (0, 1)) + mv(DC, 1, None, (1, 2))
    if schouten(bad, bad).is_zero():
        pytest.skip("sampled bivector accidentally Poisson")
    with pytest.raises(ValueError, match="Poisson"):
        coiso_vdata(bad)


def test_fiber_translate_constant_example():
    u = mv(DC, 1, (0, 1, 0), (0,))  # p1 dx
    phi = mv(DC, 3, None, (1,))  # constant section 3 dp1
    assert fiber_translate(u, phi) == u + mv(DC, -3, None, (0,))


def test_fiber_translate_zero_is_identity():
    rng = random.Random(10)
    for _ in range(5):
        u = random_multivector(rng, DC, rng.randint(0, 2), 2)
        assert fiber_translate(u, PolyMultivector.zero(DC)) == u


def test_fiber_translate_needs_vertical_sections():
    u = mv(DC, 1, None, (0,))
    with pytest.raises(ValueError):
        fiber_translate(u, mv(DC, 1, None, (0,)))  # base direction
    with pytest.raises(ValueError):
        fiber_translate(u, mv(DC, 1, (0, 1, 0), (1,)))  # fiber coefficient


def test_fiber_translate_matches_adjoint_exponential():
    from derived_brackets.vdata import exp_ad

    rng = random.Random(11)
    for _ in range(12):
        pi = random_coiso_poisson(rng, DC, 3)
        phi = random_vertical_section(rng, DC, 3)
        assert fiber_translate(pi, phi) == exp_ad(coiso_vdata(pi), phi, pi)


# -- the substitution oracle -------------------------------------------------------------
#
# The former fiber_translate, which substituted p_j -> p_j - phi_j(x) one
# variable at a time through scalar polynomial helpers and rebuilt every term
# with mv() and wedge(), kept here with those helpers only as an exact oracle
# for the fiber translation through polygeo.transport.


def poly_add(a: dict[Mono, Fraction], b: dict[Mono, Fraction]) -> dict[Mono, Fraction]:
    return add_terms(dict(a), b)


def poly_scale(a: dict[Mono, Fraction], c) -> dict[Mono, Fraction]:
    c = as_fraction(c)
    if c == 0:
        return {}
    return scale_terms(a, c)


def poly_mul(a: dict[Mono, Fraction], b: dict[Mono, Fraction]) -> dict[Mono, Fraction]:
    out: dict[Mono, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return _check_size(settle(out))


def poly_diff(a: dict[Mono, Fraction], var: int) -> dict[Mono, Fraction]:
    out: dict[Mono, Fraction] = {}
    for mono, coef in a.items():
        e = mono[var]
        if e:
            out[mono[:var] + (e - 1,) + mono[var + 1 :]] = coef * e
    return settle(out)


def _subst_mono(
    mono: Mono, coef: Fraction, var: int, repl: dict[Mono, Fraction], nvars: int
) -> dict[Mono, Fraction]:
    """Substitute variable ``var`` by the polynomial ``repl`` in one term."""
    e = mono[var]
    base = {mono[:var] + (0,) + mono[var + 1 :]: coef}
    if e == 0:
        return base
    power = {(0,) * nvars: 1}
    for _ in range(e):
        power = poly_mul(power, repl)
    return poly_mul(base, power)


def substituting_fiber_translate(u: PolyMultivector, phi: PolyMultivector) -> PolyMultivector:
    """Pushforward of u along the time-1 flow of the vertical section phi
    (the fiber translation (x, p) -> (x, p + phi(x))).

    Coefficients undergo p_j -> p_j - phi_j(x); each base wedge leg @x_i picks
    up sum_j (d phi_j / d x_i) @p_j from the differential of the translation.
    Equals e^{[., phi]} u exactly (the adjoint series terminates).
    """
    if u.dims != phi.dims:
        raise ValueError("ambient space mismatch in fiber_translate")
    if not is_vertical_section(phi):
        raise ValueError("fiber_translate expects a vertical, base-coefficient section")
    m, k = u.dims
    nvars = m + k
    comp: dict[int, dict[Mono, Fraction]] = {}
    for (mono, dirs), coef in phi.terms.items():
        comp[dirs[0] - m] = poly_add(comp.get(dirs[0] - m, {}), {mono: coef})

    out = PolyMultivector.zero(u.dims)
    for (mono, dirs), coef in u.terms.items():
        # substitute p_j -> p_j - phi_j(x) in the coefficient
        poly = {mono: coef}
        for j, phi_j in comp.items():
            var = m + j
            repl = poly_add(
                {tuple(1 if t == var else 0 for t in range(nvars)): 1},
                poly_scale(phi_j, -1),
            )
            new_poly: dict[Mono, Fraction] = {}
            for mono2, coef2 in poly.items():
                new_poly = poly_add(new_poly, _subst_mono(mono2, coef2, var, repl, nvars))
            poly = new_poly
        # transport each wedge leg through the differential of the translation
        legs: list[PolyMultivector] = []
        for w in dirs:
            leg = coordinate_vector(u.dims, w)
            if w < m:
                for j, phi_j in comp.items():
                    d = poly_diff(phi_j, w)
                    for mono3, coef3 in d.items():
                        leg = leg + mv(u.dims, coef3, mono3, (m + j,))
            legs.append(leg)
        for mono2, coef2 in poly.items():
            term = mv(u.dims, coef2, mono2, ())
            for leg in legs:
                term = wedge(term, leg)
                if term.is_zero():
                    break
            out = out + term
    return out


def test_fiber_translate_matches_the_substitution_oracle():
    rng = random.Random(14)
    seen = {"zero_u": 0, "zero_phi": 0, "rational": 0, "base_legs_moved": 0, "arity_3": 0}
    cases = 0
    for dims in [(1, 2), (2, 2), (1, 3), (2, 1)]:
        m, k = dims
        for case in range(130):
            u = PolyMultivector.zero(dims)
            if case % 13:
                for _ in range(rng.randint(1, 2)):
                    arity = rng.randint(0, min(3, m + k))
                    u = u + random_multivector(rng, dims, arity, rng.randint(0, 3))
                    seen["arity_3"] += arity == 3
                u = u.scale(Fraction(rng.randint(1, 5), rng.randint(1, 4)))
            phi = PolyMultivector.zero(dims)
            if case % 11:
                phi = random_vertical_section(rng, dims, rng.randint(0, 3))
                phi = phi.scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
            expected = substituting_fiber_translate(u, phi)
            got = fiber_translate(u, phi)
            assert got == expected and repr(got) == repr(expected), (u, phi)
            assert {key: type(c) for key, c in got.terms.items()} == {
                key: type(c) for key, c in expected.terms.items()
            }
            cases += 1
            seen["zero_u"] += u.is_zero()
            seen["zero_phi"] += phi.is_zero()
            seen["rational"] += any(type(c) is Fraction for c in got.terms.values())
            seen["base_legs_moved"] += any(
                w < m for _, wedge in u.terms for w in wedge
            ) and any(mono[:m] != (0,) * m for mono, _ in phi.terms)
    assert cases >= 500
    assert min(seen.values()) >= 20, seen


def test_filtration_laws_on_samples():
    # (a) bracket superadditive, (b) vertical sections land in level >= 1,
    # (c) the projection does not decrease the level
    rng = random.Random(12)
    pi = random_coiso_poisson(rng, DC, 2)
    v = coiso_vdata(pi)
    fdeg = v.filtration
    for x in v.sample_basis:
        for y in v.sample_basis:
            b = v.bracket(x, y)
            if not b.is_zero():
                assert fdeg(b) >= fdeg(x) + fdeg(y)
        px = v.project(x)
        if not px.is_zero():
            assert fdeg(px) >= fdeg(x)
    for a in v.a_basis:
        if not a.is_zero() and a.arities() == {1}:
            assert fdeg(a) >= 1


def test_pol_degree_examples():
    assert mv(DC, 1, (0, 2, 0), (0,)).pol_degree() == 2  # F(p) grad x-leg
    assert mv(DC, 1, (0, 2, 0), (1,)).pol_degree() == 1  # F(p) with a fiber leg
    assert mv(DC, 1, (1, 0, 0), (1,)).pol_degree() == -1  # f(x) dp
    assert mv(DC, 1, None, (1, 2)).pol_degree() == -2
    assert PolyMultivector.zero(DC).pol_degree() is None


# -- JSON literals ----------------------------------------------------------------------


def test_element_json_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        u = random_multivector(rng, DC, rng.randint(0, 3), 2)
        assert mv_from_json(element_to_json(u)) == u
        w = random_form(rng, D3, rng.randint(0, 3), 2)
        assert form_from_json(element_to_json(w)) == w


def test_json_literal_shape():
    data = {
        "dims": {"base": 1, "fiber": 2},
        "terms": [{"coef": "1/2", "monomial": {"x1": 1, "p2": 3}, "wedge": [1, 3]}],
    }
    u = mv_from_json(data)
    assert u == mv(DC, Fraction(1, 2), (1, 0, 3), (0, 2))


def test_term_cap_guard(monkeypatch):
    # DB_MAX_TERMS is read once per process; set the cap it was read into
    from derived_brackets import polygeo
    from derived_brackets.polygeo import TermExplosionError, _mul

    monkeypatch.setattr(polygeo, "_term_cap", 4)

    big_curve = {0: {(i, 0, 0): Fraction(1) for i in range(4)}}
    with pytest.raises(TermExplosionError):
        _mul(big_curve, {0: {(0, i, 0): Fraction(1) for i in range(4)}})


# -- input checks ---------------------------------------------------------------------

_P2 = mv((2, 0), 1, None, (0, 1))
_ONE_FORM = form((2, 0), 1, None, (0,))


def _transport_of(curve):
    from derived_brackets.polygeo import transport

    unit = {0: {(0, 0): 1}}
    images = [{0: {(1, 0): 1}}, {0: {(0, 1): 1}}]
    return transport(curve, images, [[unit, {}], [{}, unit]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PolyMultivector((1, 0), {((0, 0), (0,)): 1}),
         r"monomial \(0, 0\) does not match dims"),
        (lambda: PolyMultivector((1, 0), {((-1,), (0,)): 1}), "negative exponent"),
        (lambda: PolyForm((2, 0), {((0, 0), (1, 0)): 1}), "not strictly increasing in range"),
        (lambda: PolyForm((2, 0), {((0, 0), (0, 2)): 1}), "not strictly increasing in range"),
        (lambda: contract_form(mv((1, 0), 1, None, (0,)), _ONE_FORM),
         "ambient space mismatch in contraction"),
        (lambda: contract_form(_P2, _ONE_FORM), r"expects a vector field \(arity 1\)"),
        (lambda: sharp(_P2, form((1, 0), 1, None, (0,))), "ambient space mismatch in sharp"),
        (lambda: multi_sharp([], _ONE_FORM), "needs at least one multivector"),
        (lambda: multi_sharp([_P2, mv((3, 0), 1, None, (0, 1))], _ONE_FORM),
         "ambient space mismatch in multi_sharp"),
        (lambda: multi_sharp([mv((2, 0), 1)], _ONE_FORM), "arguments must have arity >= 1"),
        (lambda: multi_sharp([_P2], form((3, 0), 1, None, (0,))),
         "ambient space mismatch in multi_sharp"),
        (lambda: multi_sharp([_P2], form((2, 0), 1, None, (0, 1))),
         "multi_sharp of 1 multivectors expects a 1-form"),
        (lambda: fiber_translate(mv((1, 1), 1, None, (1,)), mv((1, 2), 1, None, (1,))),
         "ambient space mismatch in fiber_translate"),
        (lambda: coiso_vdata(mv((1, 1), 1, None, (1,))),
         "the structure element must be a bivector"),
        (lambda: coiso_vdata(_P2), "the coisotropic model needs a positive fiber dimension"),
        (lambda: _transport_of({0: mv((1, 0), 1, None, (0,))}), "dimension mismatch"),
        (lambda: _transport_of({0: _P2, 1: mv((1, 1), 1, None, (0,))}), "dimension mismatch"),
    ],
    ids=["mono-length", "negative-exponent", "unsorted-wedge", "wedge-out-of-range",
         "contract-dims", "contract-arity", "sharp-dims", "multi-sharp-empty",
         "multi-sharp-dims", "multi-sharp-arity", "multi-sharp-form-dims",
         "multi-sharp-form-degree", "fiber-translate-dims", "coiso-not-bivector",
         "coiso-no-fiber", "transport-dims", "transport-mixed-dims"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_transport_of_an_empty_curve_is_empty():
    assert _transport_of({}) == {}


def test_malformed_term_cap_is_an_input_error(monkeypatch):
    from derived_brackets import polygeo

    monkeypatch.setattr(polygeo, "_term_cap", None)  # as in a new process
    monkeypatch.setenv("DB_MAX_TERMS", "many")
    with pytest.raises(ValueError, match="DB_MAX_TERMS must be an integer, got 'many'"):
        mv((1, 0), 1)


def test_flat_coisotropic_samples_are_nonzero_poisson_bivectors():
    # seeds 10 and 16 draw all-zero fiber coefficients, which the sampler
    # replaces by a unit one
    for seed in range(20):
        pi = random_coiso_poisson(random.Random(seed), DC, 2, require_flat=True)
        assert not pi.is_zero() and pi.arities() == {2}
        assert schouten(pi, pi).is_zero() and coiso_projection(pi).is_zero()
