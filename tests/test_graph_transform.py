"""The e^B graph transform: the sparse Curve-matrix kernel, the Berkowitz
determinant, the Cayley-Hamilton adjugate, the support block, the affine
transport and the flow curves' tangency check.

The dense Curve arithmetic and the Leibniz expansion below are the former
implementation (a copying sum and product per entry, m! products for the
determinant, m^2 minors for the adjugate), kept here only as an exact oracle,
with the scalar polynomial helpers they were built on;
so are the graph transform on the full m x m matrix, the transport that
substitutes term by term, the tangency check that contracts once per
ordered pair of powers of t, and the affine maps that wrote out their
translation by hand (the flow's as an integral of the field).
"""

import itertools
import math
import os
import random
from dataclasses import replace
from fractions import Fraction
from operator import add

import pytest

from derived_brackets import polygeo, tpois
from derived_brackets.graded import add_terms, as_fraction, scale_terms, settle
from derived_brackets.linfty import relations_residual
from derived_brackets.polygeo import (
    Mono,
    PolyForm,
    PolyMultivector,
    TermExplosionError,
    _check_size,
    _mul,
    _neg,
    contract_form,
    de_rham,
    form,
    multi_sharp,
    mv,
    schouten,
    transport,
)
from derived_brackets.sampling import (
    gauge_safe_data,
    random_form,
    random_multivector,
    random_tpois_element,
)
from derived_brackets.tpois import (
    AffineDiffeo,
    GraphTransformError,
    UnsupportedVectorFieldError,
    _adjugate_times,
    _bivector_from_sharp,
    _charpoly,
    _coordinate_images,
    _flow,
    _graph_transform,
    _mat_mul,
    _rational_inverse,
    _reversed,
    _t_ddt,
    _t_mac,
    _t_settled,
    _wedge2_matrix,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    group_mul,
    is_twisted_poisson,
    tpois_linfty,
)

# -- the dense oracle ---------------------------------------------------------------------


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


def c_add(a, b):
    out = {k: dict(v) for k, v in a.items()}
    for power, poly in b.items():
        merged = poly_add(out.get(power, {}), poly)
        if merged:
            out[power] = merged
        else:
            out.pop(power, None)
    return out


def c_mul(a, b):
    out = {}
    for pa, qa in a.items():
        for pb, qb in b.items():
            out = c_add(out, {pa + pb: poly_mul(qa, qb)})
    return out


def c_scale(a, s):
    return {p: poly_scale(q, s) for p, q in a.items()} if s else {}


def leibniz_det(matrix):
    n = len(matrix)
    total = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = None
        for i in range(n):
            entry = matrix[i][perm[i]]
            prod = entry if prod is None else c_mul(prod, entry)
            if not prod:
                break
        if prod:
            total = c_add(total, c_scale(prod, Fraction(sign)))
    return total


def leibniz_adjugate(matrix, one):
    n = len(matrix)
    if n == 1:
        return [[one]]
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = leibniz_det(minor)
            if (i + j) % 2:
                cof = c_scale(cof, Fraction(-1))
            out[j][i] = cof  # adj = transpose of cofactors
    return out


def plain_mat_mul(a, b):
    """The dense product of a p x q and a q x n matrix, q >= 1."""
    out = [[{} for _ in b[0]] for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            for k, x in enumerate(row):
                out[i][j] = c_add(out[i][j], c_mul(x, b[k][j]))
    return out


# -- random matrices over Q[x_1..x_m][t] ---------------------------------------------------


def random_entry(rng, m, density, t_power, x_degree):
    """A one-term Curve, or zero with probability 1 - density."""
    if rng.random() >= density:
        return {}
    mono = [0] * m
    for _ in range(rng.randint(0, x_degree)):
        mono[rng.randrange(m)] += 1
    coef = as_fraction(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2])))
    return {rng.randint(0, t_power): {tuple(mono): coef}}


def random_matrix(rng, m, kind):
    """kind: "sparse", "t" (t-dependent constants), "x" (spatially varying
    entries, so the determinant generally depends on x), or "singular" (one row
    a multiple of another, or a zero row)."""
    density, t_power, x_degree = {
        "sparse": (0.3, 1, 1),
        "t": (0.7, 2, 0),
        "x": (0.6, 0, 1),
        "singular": (0.6, 1, 1),
    }[kind]
    mat = [[random_entry(rng, m, density, t_power, x_degree) for _ in range(m)]
           for _ in range(m)]
    if kind == "singular":
        i = rng.randrange(m)
        if m == 1:
            mat[i] = [{}]
        else:
            j = rng.choice([r for r in range(m) if r != i])
            factor = random_entry(rng, m, 1.0, 1, 1)
            mat[i] = [c_mul(factor, entry) for entry in mat[j]]
    return mat


def unit(m):
    return {0: {(0,) * m: 1}}


# -- the sparse kernel ----------------------------------------------------------------------


def assert_settled(matrix):
    """Every entry is a settled Curve: no empty polynomial, no zero
    coefficient and no integral Fraction."""
    for row in matrix:
        for entry in row:
            for poly in entry.values():
                assert poly
                for coef in poly.values():
                    assert type(coef) is int or (
                        type(coef) is Fraction and coef.denominator != 1
                    ), coef
                    assert coef != 0


def kernel_entry(rng, m):
    """Zero (one draw in five) or a sum of up to three terms over few
    monomials, with halves and twos, so that products cancel and integral
    Fractions appear."""
    entry = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        mono = tuple(rng.randint(0, 1) for _ in range(m))
        coef = rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)])
        entry = c_add(entry, {rng.randint(0, 1): {mono: coef}})
    return entry


def kernel_matrix(rng, rows, cols, m=2):
    """A random matrix with, where the shape allows, one empty row and one
    empty column."""
    mat = [[kernel_entry(rng, m) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        mat[rng.randrange(rows)] = [{} for _ in range(cols)]
    if cols > 1:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = {}
    return mat


def test_sparse_mat_mul_matches_the_dense_product():
    rng = random.Random(52)
    seen = {"cancelled": 0, "fraction_to_int": 0}
    # square products, and the slices _charpoly multiplies: row R (1 x s) by
    # column C (s x 1), rest A (s x s) by C, and the Toeplitz part (s+1 x s)
    shapes = [(n, n, n) for n in (1, 2, 3, 4)]
    shapes += [shape for s in (1, 2, 3, 4) for shape in [(1, s, 1), (s, s, 1), (s + 1, s, 1)]]
    for rows, inner, cols in shapes * 10:
        a = kernel_matrix(rng, rows, inner)
        b = kernel_matrix(rng, inner, cols)
        expected = plain_mat_mul(a, b)
        got = _mat_mul(a, b)
        assert got == expected
        assert_settled(got)
        # with the + c R addend
        c = kernel_entry(rng, 2) or unit(2)
        r = kernel_matrix(rng, rows, cols)
        with_addend = [
            [c_add(x, c_mul(c, y)) for x, y in zip(row, r_row)]
            for row, r_row in zip(expected, r)
        ]
        got = _mat_mul(a, b, c, r)
        assert got == with_addend
        assert_settled(got)
        for i, row in enumerate(a):
            for j in range(cols):
                terms = {(p, mono) for k, x in enumerate(row) if x and b[k][j]
                         for p, q in c_mul(x, b[k][j]).items() for mono in q}
                entry = expected[i][j]
                seen["cancelled"] += any(mono not in entry.get(p, {}) for p, mono in terms)
                seen["fraction_to_int"] += any(
                    type(v) is int for q in entry.values() for v in q.values()
                ) and any(type(v) is Fraction for k, x in enumerate(row)
                          for q in x.values() for v in q.values())
    # the draw really cancels terms and turns Fraction products into ints
    assert min(seen.values()) >= 3, seen
    # a whole entry cancels; empty factors give empty products
    e, f = unit(2), kernel_entry(random.Random(1), 2) or unit(2)
    minus_f = c_scale(f, -1)
    assert _mat_mul([[e, e]], [[f], [minus_f]]) == [[{}]]
    assert _mat_mul([[e]], [[f]], e, [[minus_f]]) == [[{}]]
    assert _mat_mul([], [[f]]) == []
    assert _mat_mul([[{}]], [[f]]) == [[{}]]


def test_berkowitz_and_cayley_hamilton_match_leibniz():
    rng = random.Random(41)
    seen = {"zero": 0, "x": 0, "t": 0}
    kinds = ["sparse", "t", "x", "singular"]
    # at m = 6 only sparse matrices keep both expansions cheap
    for m, draws in [(1, kinds * 2), (2, kinds * 2), (3, kinds * 2), (4, kinds * 2),
                     (5, kinds), (6, ["sparse", "sparse"])]:
        for kind in draws:
            n_mat = random_matrix(rng, m, kind)
            rhs = random_matrix(rng, m, "sparse")
            coeffs = _charpoly(n_mat, unit(m))
            assert len(coeffs) == m + 1 and coeffs[0] == unit(m)
            assert_settled([coeffs])
            det = c_scale(coeffs[m], Fraction((-1) ** m))
            assert det == leibniz_det(n_mat)
            expected = plain_mat_mul(leibniz_adjugate(n_mat, unit(m)), rhs)
            adjugate = _adjugate_times(n_mat, coeffs, rhs)
            assert adjugate == expected
            assert_settled(adjugate)
            seen["zero"] += not det
            seen["x"] += any(set(p) - {(0,) * m} for p in det.values())
            seen["t"] += any(power > 0 for power in det)
    # the draw really covers singular, spatially varying and t-dependent cases
    assert min(seen.values()) >= 3, seen


def test_empty_matrix_has_unit_determinant():
    # on R^0 the determinant of the empty matrix is 1, so e^B pi is defined
    assert _charpoly([], unit(0)) == [unit(0)]
    assert _adjugate_times([], [unit(0)], []) == []
    zero_form, zero_mv = PolyForm.zero((0, 0)), PolyMultivector.zero((0, 0))
    assert _graph_transform({0: zero_form}, {0: zero_mv}, 0) == ({}, {0: Fraction(1)})
    assert e_b_pi(zero_form, zero_mv) == zero_mv


# -- the support block ----------------------------------------------------------------------


def full_matrix_graph_transform(b_curve, pi_curve, m):
    """The graph transform on the full m x m matrix N = 1 + pi^sharp B^flat,
    with the same checks and messages; the oracle for the support block."""
    sharp = _wedge2_matrix(pi_curve, m)
    unit_mono = (0,) * m
    one = {0: {unit_mono: 1}}
    identity = [[one if i == j else {} for j in range(m)] for i in range(m)]
    augmented = [i_row + s_row for i_row, s_row in zip(identity, sharp)]
    n_mat = _mat_mul(augmented, identity + _wedge2_matrix(b_curve, m))
    coeffs = _charpoly(n_mat, one)
    det = _neg(coeffs[m]) if m % 2 else coeffs[m]
    if not det:
        raise GraphTransformError("sheared graph is not a graph (determinant vanishes)")
    if any(set(poly) - {unit_mono} for poly in det.values()):
        raise GraphTransformError(
            "graph transform leaves the polynomial category "
            "(determinant depends on the spatial variables)"
        )
    rho = _adjugate_times(n_mat, coeffs, sharp)
    return _bivector_from_sharp(rho, m), {p: poly[unit_mono] for p, poly in det.items()}


def outcome(transform, b_curve, pi_curve, m):
    try:
        numerator, det = transform(b_curve, pi_curve, m)
    except GraphTransformError as exc:
        return str(exc)
    return numerator, det, [type(s) for s in det.values()]


def random_wedge_curve(rng, make, m, pairs, t_power, x_degree, terms):
    """A curve of bivectors or 2-forms (make is mv or form) with up to
    ``terms`` terms on the given pairs of legs."""
    dims = (m, 0)
    out = {}
    for _ in range(terms):
        mono = [0] * m
        for _ in range(rng.randint(0, x_degree)):
            mono[rng.randrange(m)] += 1
        coef = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        power = rng.randint(0, t_power)
        term = make(dims, coef, mono, rng.choice(pairs))
        out[power] = out[power] + term if power in out else term
    return {p: e for p, e in out.items() if not e.is_zero()}


def support_pi(rng, m, support, t_power, x_degree):
    """A bivector curve on the support: constant d_a ^ d_b on consecutive
    pairs of it at t^0, of rank 2 floor(r / 2), plus up to three random terms
    within it at t^1 and above, which keep that rank."""
    dims = (m, 0)
    pi = PolyMultivector.zero(dims)
    for a, b in zip(support[::2], support[1::2]):
        pi = pi + mv(dims, rng.choice([-2, -1, 1, 3]), None, (a, b))
    curve = {0: pi} if pi.terms else {}
    pairs = list(itertools.combinations(support, 2))
    if pairs and (t_power or x_degree):
        extra = random_wedge_curve(rng, mv, m, pairs, t_power, x_degree, rng.randint(1, 3))
        curve.update((p + 1, e) for p, e in extra.items())
    return curve


def supports(rng, m):
    out = [[], sorted(rng.sample(range(m), 2)), list(range(m))]
    if m >= 4:
        out.append(sorted(rng.sample(range(m), 4)))
    if m == 5:
        out.append([1, 3])
    return out


def test_support_block_matches_the_full_matrix():
    rng = random.Random(54)
    seen = {"empty": 0, "gap": 0, "rank4": 0, "full": 0, "t": 0, "x": 0, "x_raise": 0}
    all_pairs = {m: list(itertools.combinations(range(m), 2)) for m in range(2, 8)}
    for m in range(2, 8):
        for support in supports(rng, m):
            for t_power, x_degree in [(0, 0), (2, 0), (0, 1), (1, 1)]:
                pi = support_pi(rng, m, support, t_power, x_degree)
                b = random_wedge_curve(rng, form, m, all_pairs[m], t_power, x_degree, 2 * m)
                expected = outcome(full_matrix_graph_transform, b, pi, m)
                assert outcome(_graph_transform, b, pi, m) == expected
                r = len(support)
                seen["empty"] += r == 0
                seen["gap"] += r > 0 and support[-1] - support[0] >= r
                seen["rank4"] += r == 4 and m > 4
                seen["full"] += r == m and m % 2 == 0
                if isinstance(expected, str):
                    seen["x_raise"] += "spatial" in expected
                else:
                    seen["t"] += len(expected[1]) > 1
                    seen["x"] += x_degree and any(
                        any(mono) for e in expected[0].values() for mono, _ in e.terms
                    )
    assert min(seen.values()) >= 3, seen


def test_support_block_keeps_the_determinant_errors():
    dims = (5, 0)
    # det (1 + pi^sharp B^flat) = (1 - 2 * 1/2)^2 on the block {1, 3}
    pi, b = mv(dims, 2, None, (1, 3)), form(dims, Fraction(1, 2), None, (1, 3))
    b = b + form(dims, 7, None, (0, 2))  # off the block: enters no product
    singular = ({0: b}, {0: pi}, 5)
    # det = (1 - 2 x1)^2
    spatial = ({0: form(dims, 1, (1, 0, 0, 0, 0), (1, 3))}, {0: pi}, 5)
    for args, message in [(singular, "determinant vanishes"), (spatial, "spatial variables")]:
        expected = outcome(full_matrix_graph_transform, *args)
        assert message in expected
        with pytest.raises(GraphTransformError) as info:
            _graph_transform(*args)
        assert str(info.value) == expected
    # spatially varying pi and B whose block product is nilpotent: det 1
    dims = (4, 0)
    pi = {0: mv(dims, 1, None, (0, 1)) + mv(dims, 1, None, (2, 3))}
    b = {0: form(dims, 1, (0, 0, 0, 1), (0, 2)), 1: form(dims, 2, (1, 0, 0, 0), (0, 3))}
    numerator, det = _graph_transform(b, pi, 4)
    assert (numerator, det) == full_matrix_graph_transform(b, pi, 4)
    assert det == {0: 1} and any(any(mono) for e in numerator.values() for mono, _ in e.terms)


# -- the affine transport -------------------------------------------------------------------


def per_term_transport(curve, phi, legs):
    """The transport that substitutes each term from scratch: the coefficient
    as a one-term curve, times each coordinate image once per exponent, times
    each chosen leg; the oracle for the memoized transport."""
    m = len(legs)
    images = _coordinate_images(phi)
    raw = {}
    for power, u in curve.items():
        kind = type(u)
        for (mono, wedge), coef in u.terms.items():
            value = {power: {(0,) * m: coef}}
            for var, e in enumerate(mono):
                for _ in range(e):
                    value = _mul(value, images[var])
            choices = [
                [(j, entry) for j, entry in enumerate(legs[leg]) if entry] for leg in wedge
            ]
            for choice in itertools.product(*choices):
                product = value
                for _, entry in choice:
                    product = _mul(product, entry)
                new_wedge = tuple(j for j, _ in choice)
                for p, poly in product.items():
                    raw.setdefault(p, []).extend((c, mo, new_wedge) for mo, c in poly.items())
    moved = {p: kind._from_raw((m, 0), terms) for p, terms in raw.items()}
    return {p: e for p, e in moved.items() if not e.is_zero()}


def random_element_curve(rng, m):
    """A curve of forms of one degree or of multivectors of one arity, at
    t^0 .. t^2, with coefficients of degree <= 2."""
    dims = (m, 0)
    if rng.randrange(2):
        q = rng.randint(1, min(3, m))
        return {p: random_form(rng, dims, q, 2) for p in range(rng.randint(1, 3))}
    arity = rng.randint(1, 2)
    return {p: random_multivector(rng, dims, arity, 2) for p in range(rng.randint(1, 3))}


def random_field(rng, m, linear):
    """A constant vector field, or one with a strictly upper-triangular, hence
    nilpotent, linear part."""
    dims = (m, 0)
    x = PolyMultivector.zero(dims)
    for i in range(m):
        x = x + mv(dims, rng.randint(-2, 2), None, (i,))
        for j in range(i + 1, m):
            if linear and rng.randrange(2):
                x_j = tuple(int(v == j) for v in range(m))
                x = x + mv(dims, rng.choice([-2, -1, 1, 2]), x_j, (i,))
    return x


def test_transport_matches_the_per_term_substitution():
    rng = random.Random(55)
    seen = {"identity_legs": 0, "nontrivial_legs": 0}
    for m in (2, 3, 4, 5):
        for linear in (False, True):
            for _ in range(4):
                x = random_field(rng, m, linear)
                minus, plus = _flow(x, -1), _flow(x, +1)
                assert _reversed(minus) == plus
                matrix = [[rng.randint(-2, 2) + 3 * (i == j) for j in range(m)] for i in range(m)]
                try:
                    phi = AffineDiffeo(matrix, [rng.randint(-2, 2) for _ in range(m)])
                except ValueError:
                    phi = AffineDiffeo.identity(m)
                static, inverse = phi._at_t0(), phi.inverse()._at_t0()
                curve = random_element_curve(rng, m)
                # pull-backs pass the map and its matrix, push-forwards the
                # inverse map and the transposed matrix
                for affine, legs in [(minus, minus.matrix), (plus, minus.transposed()),
                                     (static, static.matrix), (inverse, static.transposed())]:
                    expected = per_term_transport(curve, affine, legs)
                    got = transport(curve, _coordinate_images(affine), legs)
                    assert got == expected and list(got) == list(expected)
                seen["identity_legs"] += not linear
                seen["nontrivial_legs"] += any(
                    entry and i != j for i, row in enumerate(minus.matrix)
                    for j, entry in enumerate(row)
                )
    assert min(seen.values()) >= 3, seen


# -- affine maps in homogeneous coordinates ---------------------------------------------------


def parent_flow(x_field, time_sign):
    """The former _flow, as (matrix, translation) of Curves: the powers of A
    on rational lists, exp(sign t A) with 1/k! built per entry, and the
    translation as the integral of exp(sign u A) b from 0 to sign t."""
    m = x_field.dims[0]
    a_mat = [[0] * m for _ in range(m)]
    const = [0] * m
    for (mono, wedge), coef in x_field.terms.items():
        if len(wedge) != 1:
            raise UnsupportedVectorFieldError("flow directions must be vector fields")
        i = wedge[0]
        total = sum(mono)
        if total == 0:
            const[i] += coef
        elif total == 1:
            j = next(v for v, e in enumerate(mono) if e)
            a_mat[i][j] += coef
        else:
            raise UnsupportedVectorFieldError(
                "flow directions must be constant or linear with nilpotent matrix part"
            )
    powers = [[[int(i == j) for j in range(m)] for i in range(m)]]
    while True:
        last = powers[-1]
        power = [
            [sum(last[i][r] * a_mat[r][j] for r in range(m)) for j in range(m)]
            for i in range(m)
        ]
        if all(e == 0 for row in power for e in row):
            break
        if len(powers) == m:
            raise UnsupportedVectorFieldError("matrix part of the flow is not nilpotent")
        powers.append(power)
    unit = (0,) * m
    matrix = [
        [
            {
                k: {unit: as_fraction(Fraction(time_sign**k, math.factorial(k)) * a_k[i][j])}
                for k, a_k in enumerate(powers)
                if a_k[i][j]
            }
            for j in range(m)
        ]
        for i in range(m)
    ]
    translation = [{} for _ in range(m)]
    for k, a_k in enumerate(powers):
        for i in range(m):
            value = sum(a_k[i][r] * const[r] for r in range(m))
            if value:
                coef = Fraction(time_sign ** (k + 1), math.factorial(k + 1))
                translation[i][k + 1] = {unit: as_fraction(coef * value)}
    return matrix, translation


class ParentAffine:
    """The former AffineDiffeo's data, inverse and composition: a rational
    (matrix, translation) pair with the translation written out by hand."""

    def __init__(self, matrix, translation):
        self.matrix = tuple(tuple(as_fraction(e) for e in row) for row in matrix)
        self.translation = tuple(as_fraction(e) for e in translation)

    def inverse(self):
        inv = _rational_inverse(self.matrix)
        n = len(self.matrix)
        trans = tuple(
            -sum(inv[i][j] * self.translation[j] for j in range(n)) for i in range(n)
        )
        return ParentAffine(inv, trans)

    def compose(self, other):
        n = len(self.matrix)
        matrix = [
            [sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trans = [
            sum(self.matrix[i][k] * other.translation[k] for k in range(n))
            + self.translation[i]
            for i in range(n)
        ]
        return ParentAffine(matrix, trans)

    def homogeneous(self):
        n = len(self.matrix)
        return ((1,) + (0,) * n,) + tuple(
            (c, *row) for c, row in zip(self.translation, self.matrix)
        )


def oracle_field(rng, m, kind):
    """The zero field, a constant one, or one whose linear part is strictly
    triangular in a shuffled basis (nilpotent, of varying index), with
    fractional coefficients."""
    dims = (m, 0)
    x = PolyMultivector.zero(dims)
    if kind == "zero":
        return x
    for i in range(m):
        if rng.randrange(4):
            x = x + mv(dims, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), None, (i,))
    if kind == "linear":
        order = rng.sample(range(m), m)
        density = rng.choice([0.15, 0.4, 1.0])
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < density:
                    x_b = tuple(int(v == order[b]) for v in range(m))
                    coef = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
                    x = x + mv(dims, coef, x_b, (order[a],))
    return x


def test_flow_matches_the_translation_integral():
    rng = random.Random(59)
    indices = set()
    fields = 0
    for m in range(1, 9):
        for kind in ("zero", "constant", "linear", "linear"):
            for _ in range(10):
                x = oracle_field(rng, m, kind)
                for sign in (-1, 1):
                    matrix, translation = parent_flow(x, sign)
                    phi = _flow(x, sign)
                    got = (phi.matrix, [row[0] for row in phi.rows[1:]])
                    assert got == (matrix, translation)
                    assert repr(got) == repr((matrix, translation))
                    assert repr(phi.rows[0]) == repr([{0: {(0,) * m: 1}}] + [{}] * m)
                    assert phi.transposed() == [list(c) for c in zip(*matrix)]
                # the nilpotency index of A: one more than the top power of t
                indices.add(1 + max((max(e) for row in matrix for e in row if e), default=0))
                fields += 1
    assert fields >= 300 and {1, 2, 3, 4} <= indices, (fields, indices)
    # both reject a matrix part that is not nilpotent, and a field beyond affine
    for m in (1, 2, 4):
        dims = (m, 0)
        x_0 = (1,) + (0,) * (m - 1)
        rejected = [mv(dims, 1, x_0, (0,)), mv(dims, 2, (2,) + (0,) * (m - 1), (0,))]
        if m > 1:  # a rotation
            rejected.append(mv(dims, 1, x_0, (m - 1,)) + mv(dims, -1, x_0[::-1], (0,)))
        for x in rejected:
            with pytest.raises(UnsupportedVectorFieldError) as expected:
                parent_flow(x, -1)
            with pytest.raises(UnsupportedVectorFieldError) as got:
                _flow(x, -1)
            assert str(got.value) == str(expected.value)


def test_affine_maps_match_the_translation_formulas():
    rng = random.Random(60)
    maps = 0
    fractional = 0
    for m in range(1, 6):
        dims = (m, 0)
        for _ in range(25):
            pair = []
            while len(pair) < 2:
                matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                          for _ in range(m)]
                translation = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
                try:
                    pair.append((AffineDiffeo(matrix, translation),
                                 ParentAffine(matrix, translation)))
                except ValueError:
                    continue
            (p, p_old), (q, q_old) = pair
            for got, expected in [(p.inverse(), p_old.inverse()),
                                  (p.compose(q), p_old.compose(q_old)),
                                  (q.inverse().compose(p), q_old.inverse().compose(p_old))]:
                assert got.rows == expected.homogeneous()
                assert repr(got.rows) == repr(expected.homogeneous())
                assert got == AffineDiffeo(expected.matrix, expected.translation)
            assert p.compose(p.inverse()) == AffineDiffeo.identity(m)
            b1 = random_form(rng, dims, min(2, m), 1)
            b2 = random_form(rng, dims, min(2, m), 1)
            b, phi = group_mul(b1, p, b2, q)
            inverse = p_old.inverse()
            expected = b1 + AffineDiffeo(inverse.matrix, inverse.translation).pullback_form(b2)
            assert b == expected and repr(b) == repr(expected)
            assert repr(phi.rows) == repr(p_old.compose(q_old).homogeneous())
            maps += 2
            fractional += any(type(c) is Fraction for c in p_old.inverse().translation)
    assert maps >= 200 and fractional >= 60, (maps, fractional)


# -- the tangency check -----------------------------------------------------------------------


def copying_t_add(a, b):
    """The former sum of two curves of forms or multivectors: a copy of the
    curve per addend."""
    out = dict(a)
    for p, v in b.items():
        merged = out[p] + v if p in out else v
        if merged.is_zero():
            out.pop(p, None)
        else:
            out[p] = merged
    return out


def copying_t_scale(curve, scalar):
    """The former product with a scalar curve: one copying sum per piece."""
    out = {}
    for p, v in curve.items():
        for q, s in scalar.items():
            out = copying_t_add(out, {p + q: v.scale(s)})
    return out


def ordered_pair_ode_residual(curve):
    """The former FlowCurve.ode_residual: multi_sharp once per ordered pair of
    numerator powers and per power of E_t, every piece added by copying."""
    n_curve = curve.mv_numerator
    minus_d = {p: -s for p, s in curve.denominator.items()}
    residual = copying_t_add(
        copying_t_scale(_t_ddt(n_curve), curve.denominator),
        copying_t_scale(n_curve, _t_ddt(minus_d)),
    )
    bracket = {p: schouten(curve.x_field, e) for p, e in n_curve.items()}
    residual = copying_t_add(residual, copying_t_scale(bracket, minus_d))
    x, h, b = curve.x_field, curve.h_form, curve.b_form
    e_curve = copying_t_add({0: b + contract_form(x, h)}, {1: -contract_form(x, de_rham(b))})
    for p1, e1 in n_curve.items():
        for p2, e2 in n_curve.items():
            for p3, ef in e_curve.items():
                piece = multi_sharp([e1, e2], ef).scale(Fraction(-1, 2))
                residual = copying_t_add(residual, {p1 + p2 + p3: piece})
    return residual


def test_t_mac_matches_the_copy_per_piece_scaling():
    rng = random.Random(57)
    seen = {"single": 0, "cancelled": 0, "fractional": 0}
    for m in (2, 3, 4):
        for _ in range(12):
            curve = random_element_curve(rng, m)
            kind = type(next(iter(curve.values())))
            s1 = {q: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for q in range(rng.randint(1, 3))}
            expected = copying_t_scale(curve, s1)
            acc = _t_mac({}, curve, s1)
            assert _t_settled(acc, kind, (m, 0)) == expected
            seen["single"] += bool(expected)
            seen["fractional"] += any(
                type(c) is Fraction for e in expected.values() for c in e.terms.values()
            )
            # a second product into the same accumulator, at times its negative
            s2 = {q: -s for q, s in s1.items()} if rng.randrange(2) else {1: 1, 2: -2}
            expected = copying_t_add(expected, copying_t_scale(curve, s2))
            assert _t_settled(_t_mac(acc, curve, s2), kind, (m, 0)) == expected
            seen["cancelled"] += not expected
    assert min(seen.values()) >= 3, seen


def field_in_the_shear_plane(rng, m, linear):
    """A vector field in span(d1, d2), constant or with a strictly
    upper-triangular, hence nilpotent, linear part.  Along it, the flow of
    gauge_safe_data's pi = f d1^d2, or of a constant pi with a constant
    dx1^dx2 shear, keeps every determinant free of x."""
    dims = (m, 0)
    x = mv(dims, rng.randint(1, 3), None, (0,)) + mv(dims, rng.randint(-2, 2), None, (1,))
    for i in (0, 1):
        for j in range(i + 1, m):
            if linear and rng.randrange(2):
                x_j = tuple(int(v == j) for v in range(m))
                x = x + mv(dims, rng.choice([-2, -1, 1, 2]), x_j, (i,))
    return x


def test_ode_residual_matches_the_ordered_pair_loop():
    rng = random.Random(58)
    seen = dict.fromkeys(
        ["constant", "linear", "unsheared", "sheared", "t_determinant", "zero", "nonzero"], 0
    )
    curves = 0
    for m in range(2, 8):
        dims = (m, 0)
        for linear in (False, True):
            for sheared in (False, True):
                for _ in range(5):
                    h, pi, b, _ = gauge_safe_data(
                        rng, m, 2, constant_field=False, allow_constant_shear=False
                    )
                    if sheared:
                        pi = mv(dims, 3, None, (0, 1))
                        b = b + form(dims, rng.choice([-2, -1, 1, 2]), None, (0, 1))
                    curve = flow_curve(b, field_in_the_shear_plane(rng, m, linear), h, pi)
                    # a bivector added at some power of t: the residual no longer vanishes
                    numerator = dict(curve.mv_numerator)
                    power = rng.randint(0, 2)
                    numerator[power] = numerator.get(power, PolyMultivector.zero(dims)) + (
                        random_multivector(rng, dims, 2, 1)
                    )
                    numerator = {p: e for p, e in numerator.items() if not e.is_zero()}
                    for each in (curve, replace(curve, mv_numerator=numerator)):
                        expected = ordered_pair_ode_residual(each)
                        assert each.ode_residual() == expected
                        seen["nonzero" if expected else "zero"] += 1
                        curves += 1
                    seen["linear" if linear else "constant"] += 1
                    seen["sheared" if sheared else "unsheared"] += 1
                    seen["t_determinant"] += len(curve.denominator) > 1
    assert curves >= 200 and min(seen.values()) >= 10, (curves, seen)


def test_flow_curve_builds_its_gauge_form_once(monkeypatch):
    """E_t = B + i_X H - t i_X dB is built once, by flow_curve, and the
    tangency check reads it back: one dB and the two contractions in all
    (three and four when flow_curve took dB twice and ode_residual rebuilt
    E_t)."""
    calls = {"de_rham": 0, "contract_form": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(tpois, name, wrapper)

    counted("de_rham", tpois.de_rham)
    counted("contract_form", tpois.contract_form)
    h, pi, b, x = spatial_point(4)
    curve = flow_curve(b, x, h, pi)
    assert curve.ode_residual() == {}
    assert calls == {"de_rham": 1, "contract_form": 2}
    assert curve.e_curve == {0: b + contract_form(x, h), 1: -contract_form(x, de_rham(b))}


# -- wider verified dimensions ---------------------------------------------------------------


def safe_and_sheared(rng, m):
    """A draw of gauge_safe_data, where e^B pi = pi because B has no dx1^dx2
    part, and the same (H, B, X) with a constant shear along constant
    pi = 3 d1^d2, where the transform and its t-determinant are nontrivial."""
    dims = (m, 0)
    h, pi, b, x = gauge_safe_data(rng, m, 2, allow_constant_shear=False)
    shear = b + form(dims, 2, None, (0, 1))
    return [(h, pi, b, x), (h, mv(dims, 3, None, (0, 1)), shear, x)]


def test_shear_round_trip_at_m7_m8():
    rng = random.Random(47)
    for m in (7, 8):
        safe, sheared = safe_and_sheared(rng, m)
        for _, pi, b, _ in (safe, sheared):
            assert e_b_pi(b.scale(-1), e_b_pi(b, pi)) == pi
        # on span(dx1, dx2), 1 + B^flat pi^sharp = 1 - 2 * 3
        _, pi, b, _ = sheared
        assert e_b_pi(b, pi) == pi.scale(Fraction(-1, 5))


def test_flow_curve_at_m7_m8():
    rng = random.Random(48)
    for m in (7, 8):
        for h, pi, b, x in safe_and_sheared(rng, m):
            curve = flow_curve(b, x, h, pi)
            assert curve.at(Fraction(0)) == (h, pi)
            assert curve.ode_residual() == {}
            assert curve.derivative_at_zero() == gauge_Y(b, x, h, pi)
        assert len(curve.denominator) > 1


def test_generator_match_at_m5():
    # at m >= 4 the sampled 3-form need not be closed: keep Maurer-Cartan draws
    rng = random.Random(49)
    matched = 0
    while matched < 2:
        h, pi, b, x = gauge_safe_data(rng, 5, 2, allow_constant_shear=False)
        if not is_twisted_poisson(h, pi):
            continue
        rep = generator_match(b, x, h, pi)
        assert rep.identity_holds and rep.symbolic_matches_closed_form
        matched += 1


# -- complexity guard ------------------------------------------------------------------------


def test_graph_transform_cost_is_polynomial(monkeypatch):
    """A transform at m = 8 with a dense B and pi supported on r coordinates
    stays within 2 r^4 ring products, each one multiply-accumulate of two
    Curves; the Leibniz determinant alone needs at least 8! = 40320, and the
    full 8 x 8 matrix more than 2 r^4 at r = 2 and r = 4."""
    m = 8
    dims = (m, 0)
    calls = [0]
    mac = tpois._mac

    def counting_mac(acc, x, y):
        calls[0] += 1
        return mac(acc, x, y)

    monkeypatch.setattr(tpois, "_mac", counting_mac)
    for support in (range(m), (0, 1), (1, 3, 4, 6)):
        rng = random.Random(50)
        pi = PolyMultivector.zero(dims)
        b = PolyForm.zero(dims)
        for legs in itertools.combinations(range(m), 2):
            if set(legs) <= set(support):
                pi = pi + mv(dims, rng.randint(1, 5), None, legs)
            b = b + form(dims, rng.randint(1, 5), None, legs)
        calls[0] = 0
        numerator, det = _graph_transform({0: b}, {0: pi}, m)
        assert det[0] != 0 and numerator
        assert 0 < calls[0] <= 2 * len(support) ** 4, (support, calls[0])


# -- the term cap -----------------------------------------------------------------------------


def spatial_point(m):
    """(H, pi, B, X) on R^m with a spatially varying pi and B, and a
    determinant of 1, so every transform is defined and has many terms."""
    dims = (m, 0)
    pi = mv(dims, 1, None, (0, 1)) + mv(dims, 2, (0, 0, 1) + (0,) * (m - 3), (0, 1))
    b = form(dims, 1, (1,) + (0,) * (m - 1), (2, 3)) + form(dims, 3, None, (1, 2))
    return PolyForm.zero(dims), pi, b, mv(dims, 1, None, (0,))


def test_graph_transform_respects_the_term_cap(monkeypatch):
    h, pi, b, x = spatial_point(4)
    assert len(e_b_pi(b, pi).terms) > 1 and flow_curve(b, x, h, pi).mv_numerator
    monkeypatch.setattr(polygeo, "_term_cap", 1)
    with pytest.raises(TermExplosionError):
        e_b_pi(b, pi)
    with pytest.raises(TermExplosionError):
        flow_curve(b, x, h, pi)


def test_term_cap_is_read_from_the_environment_once(monkeypatch):
    """A flow curve at m = 6 and a higher-Jacobi residual read DB_MAX_TERMS
    once between them, at the first check; the process then keeps it."""
    reads = []
    environ_type = type(os.environ)
    getitem = environ_type.__getitem__

    def counting_getitem(self, key):
        if key == "DB_MAX_TERMS":
            reads.append(key)
        return getitem(self, key)

    rng = random.Random(53)
    h, pi, b, x = spatial_point(6)
    args = tuple(random_tpois_element(rng, 3, 0, 1) for _ in range(3))
    monkeypatch.setattr(environ_type, "__getitem__", counting_getitem)
    monkeypatch.setattr(polygeo, "_term_cap", None)  # as in a new process
    curve = flow_curve(b, x, h, pi)
    relations_residual(tpois_linfty(3), 3, args)
    assert curve.ode_residual() == {}
    assert len(reads) == 1
