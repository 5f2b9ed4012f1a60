"""The e^B graph transform, the affine maps and the flows, checked by sympy.

sympy, exact over Q, is the oracle.  The sparse Curve-matrix product, the
Berkowitz characteristic polynomial and the Cayley-Hamilton adjugate are
compared with ``DomainMatrix`` products, ``charpoly`` and ``adjugate`` over
Q[x_1..x_m, t]; the support-block and joint-block transform and ``e_b_pi`` with
pi^sharp (1 + B^flat pi^sharp)^{-1} over the rational-function field;
``transport`` with substitution into the coefficients and the minors of the
leg matrix; the affine maps with sympy's rational inverse and product; the
flows with their defining ODE dPhi/dt = +-G Phi, Phi(0) = 1; and the flow
curves' tangency check with its matrix form over Q[x, t].  Each check runs on
seeded draws whose coverage the test asserts.
"""

import functools
import itertools
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from sympy import symbols
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from derived_brackets import polygeo, tpois
from derived_brackets.graded import as_fraction
from derived_brackets.linfty import relations_residual
from derived_brackets.polygeo import (
    PolyForm,
    PolyMultivector,
    TermExplosionError,
    _mul,
    _neg,
    _settled,
    contract_form,
    de_rham,
    form,
    mv,
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
    _charpoly,
    _coordinate_images,
    _flow,
    _graph_transform,
    _mat_mul,
    _reversed,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    group_mul,
    is_twisted_poisson,
    tpois_linfty,
)

# -- exact data as sympy ring elements ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def ring(m):
    """Q[x_1, .., x_m, t] as a sympy domain; t is the last generator."""
    return QQ[symbols(f"x1:{m + 1}") + symbols("t,")]


def to_qq(c):
    """An int or Fraction as an element of sympy's QQ."""
    return QQ(*c.as_integer_ratio())


def poly_of(curve, K):
    """A Curve {t_power: {mono: coef}} as an element of K = Q[x, t]."""
    return K.ring({mono + (p,): to_qq(c) for p, poly in curve.items() for mono, c in poly.items()})


def scalar_poly(curve, K):
    """A scalar curve {t_power: coef}, such as a determinant, in Q[x, t]."""
    m = K.ngens - 1
    return poly_of({p: {(0,) * m: s} for p, s in curve.items()}, K)


def dm(matrix, K):
    """A matrix of Curves as a DomainMatrix over K."""
    rows = [[poly_of(entry, K) for entry in row] for row in matrix]
    return DomainMatrix(rows, (len(rows), len(rows[0])), K)


def element_polys(curve, K):
    """A curve of forms or multivectors as {wedge: coefficient in Q[x, t]}."""
    out = {}
    for p, element in curve.items():
        for (mono, wedge), c in element.terms.items():
            out.setdefault(wedge, {})[mono + (p,)] = to_qq(c)
    return {wedge: K.ring(terms) for wedge, terms in out.items()}


def wedge2_matrix(curve, K):
    """The antisymmetric matrix over Q[x, t] of a curve of bivectors or
    2-forms: entry (a, c) is the coefficient of e_a ^ e_c."""
    m = K.ngens - 1
    out = {}
    for (a, c), f in element_polys(curve, K).items():
        out.setdefault(a, {})[c] = f
        out.setdefault(c, {})[a] = -f
    return DomainMatrix(out, (m, m), K)


def settled(coefs):
    """Every coefficient nonzero, an int or a non-integral Fraction."""
    return all(c and (type(c) is int or c.denominator != 1) for c in coefs)


def is_settled_element(element):
    return bool(element.terms) and settled(element.terms.values())


def assert_settled(matrix):
    """Every entry is a settled Curve: no empty polynomial and settled
    coefficients."""
    for row in matrix:
        for entry in row:
            for poly in entry.values():
                assert poly and settled(poly.values()), poly


def unit(m):
    return {0: {(0,) * m: 1}}


# -- the sparse kernel ----------------------------------------------------------------------


def kernel_entry(rng, m):
    """Zero (one draw in five) or a sum of up to three terms over few
    monomials, with halves and twos, so that products cancel and integral
    Fractions appear."""
    acc = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        mono = tuple(rng.randint(0, 1) for _ in range(m))
        coef = rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)])
        poly = acc.setdefault(rng.randint(0, 1), {})
        poly[mono] = poly.get(mono, 0) + coef
    return _settled(acc)


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
    K = ring(2)
    seen = {"cancelled": 0, "fraction_to_int": 0}
    # square products, and the slices _charpoly multiplies: row R (1 x s) by
    # column C (s x 1), rest A (s x s) by C, and the Toeplitz part (s+1 x s)
    shapes = [(n, n, n) for n in (1, 2, 3, 4)]
    shapes += [shape for s in (1, 2, 3, 4) for shape in [(1, s, 1), (s, s, 1), (s + 1, s, 1)]]
    for rows, inner, cols in shapes * 10:
        a = kernel_matrix(rng, rows, inner)
        b = kernel_matrix(rng, inner, cols)
        product = dm(a, K) * dm(b, K)
        got = _mat_mul(a, b)
        assert dm(got, K) == product
        assert_settled(got)
        # with the + c R addend
        c = kernel_entry(rng, 2) or unit(2)
        r = kernel_matrix(rng, rows, cols)
        with_addend = _mat_mul(a, b, c, r)
        assert dm(with_addend, K) == product + dm(r, K) * poly_of(c, K)
        assert_settled(with_addend)
        for i, row in enumerate(a):
            for j in range(cols):
                terms = set().union(*(
                    (poly_of(x, K) * poly_of(b[k][j], K)).keys() for k, x in enumerate(row)
                ))
                seen["cancelled"] += bool(terms - product[i, j].element.keys())
                seen["fraction_to_int"] += any(
                    type(v) is int for q in got[i][j].values() for v in q.values()
                ) and any(type(v) is Fraction for x in row for q in x.values() for v in q.values())
    # the draw really cancels terms and turns Fraction products into ints
    assert min(seen.values()) >= 3, seen
    # a whole entry cancels; empty factors give empty products
    e, f = unit(2), kernel_entry(random.Random(1), 2) or unit(2)
    minus_f = _neg(f)
    assert _mat_mul([[e, e]], [[f], [minus_f]]) == [[{}]]
    assert _mat_mul([[e]], [[f]], e, [[minus_f]]) == [[{}]]
    assert _mat_mul([], [[f]]) == []
    assert _mat_mul([[{}]], [[f]]) == [[{}]]


# -- random matrices over Q[x_1..x_m][t] ---------------------------------------------------


def random_entry(rng, m, density, t_power, x_degree):
    """A one-term Curve, or zero with probability 1 - density."""
    if rng.random() >= density:
        return {}
    mono = [0] * m
    for _ in range(rng.randint(0, x_degree)):
        mono[rng.randrange(m)] += 1
    coef = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    return _settled({rng.randint(0, t_power): {tuple(mono): coef}})


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
            mat[i] = [_mul(factor, entry) for entry in mat[j]]
    return mat


def sympy_adjugate(matrix):
    """adj(N) by cofactors, each minor's determinant from sympy.  (In sympy
    1.14 ``DomainMatrix.adjugate`` over a polynomial ring fails when a
    characteristic coefficient vanishes: it multiplies the zero polynomial by
    a matrix and gets a polynomial.)"""
    n = matrix.shape[0]
    rest = [[r for r in range(n) if r != k] for k in range(n)]
    entries = [[matrix.extract(rest[j], rest[i]).det() * (-1) ** (i + j) for j in range(n)]
               for i in range(n)]
    return DomainMatrix(entries, (n, n), matrix.domain)


def test_berkowitz_and_cayley_hamilton_match_sympy():
    rng = random.Random(41)
    seen = {"zero": 0, "x": 0, "t": 0}
    kinds = ["sparse", "t", "x", "singular"]
    for m, draws in [(1, kinds * 2), (2, kinds * 2), (3, kinds * 2), (4, kinds * 2),
                     (5, kinds), (6, ["sparse", "sparse"])]:
        K = ring(m)
        for kind in draws:
            n_mat = random_matrix(rng, m, kind)
            rhs = random_matrix(rng, m, "sparse")
            coeffs = _charpoly(n_mat, unit(m))
            assert_settled([coeffs])
            expected = dm(n_mat, K)
            assert [poly_of(c, K) for c in coeffs] == expected.charpoly()
            adjugate = _adjugate_times(n_mat, coeffs, rhs)
            assert dm(adjugate, K) == sympy_adjugate(expected) * dm(rhs, K)
            assert_settled(adjugate)
            det = expected.det()
            seen["zero"] += not det
            seen["x"] += any(any(mono[:-1]) for mono in det.keys())
            seen["t"] += any(mono[-1] for mono in det.keys())
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


def sympy_transform(b_curve, pi_curve, m):
    """What sympy gives for e^{B_t} pi_t on R^m: the error message the
    library states, or (det, S, 1 + F S) for the sharp matrix S of pi, the
    flat matrix F of B and det = det(1 + S F); then
    rho = S (1 + F S)^{-1}, that is pi^sharp (1 + B^flat pi^sharp)^{-1}, is
    the one matrix over the rational-function field with rho (1 + F S) = S.
    (sympy's characteristic polynomial gives det: its Bareiss ``det`` costs
    three times as much on these draws.)"""
    K = ring(m)
    sharp, flat = wedge2_matrix(pi_curve, K), wedge2_matrix(b_curve, K)
    one = DomainMatrix.eye(m, K)
    coeffs = (one + sharp * flat).charpoly()
    det = -coeffs[m] if m % 2 else coeffs[m]
    if not det:
        return "sheared graph is not a graph (determinant vanishes)"
    if any(any(mono[:-1]) for mono in det.keys()):
        return ("graph transform leaves the polynomial category "
                "(determinant depends on the spatial variables)")
    return det, sharp, one + flat * sharp


def checked_transform(b_curve, pi_curve, m):
    """_graph_transform's outcome, its error message or (numerator, det),
    once it matches sympy's: the same det, and numerator / det = rho."""
    expected = sympy_transform(b_curve, pi_curve, m)
    try:
        numerator, det = _graph_transform(b_curve, pi_curve, m)
    except GraphTransformError as exc:
        assert str(exc) == expected
        return expected
    assert not isinstance(expected, str), expected
    sympy_det, sharp, shear = expected
    K = ring(m)
    assert settled(det.values())
    assert scalar_poly(det, K) == sympy_det
    assert wedge2_matrix(numerator, K) * shear == sharp * sympy_det
    return numerator, det


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
    seen = {"empty": 0, "gap": 0, "rank4": 0, "full": 0, "t": 0, "x": 0, "x_raise": 0,
            "static": 0}
    all_pairs = {m: list(itertools.combinations(range(m), 2)) for m in range(2, 8)}
    for m in range(2, 8):
        dims = (m, 0)
        for support in supports(rng, m):
            for t_power, x_degree in [(0, 0), (2, 0), (0, 1), (1, 1)]:
                pi = support_pi(rng, m, support, t_power, x_degree)
                b = random_wedge_curve(rng, form, m, all_pairs[m], t_power, x_degree, 2 * m)
                got = checked_transform(b, pi, m)
                if set(b) | set(pi) <= {0} and not isinstance(got, str):
                    # the static transform e^B pi is the t^0 numerator over det
                    zero_b, zero_pi = PolyForm.zero(dims), PolyMultivector.zero(dims)
                    static = e_b_pi(b.get(0, zero_b), pi.get(0, zero_pi))
                    _, sharp, shear = sympy_transform(b, pi, m)
                    assert wedge2_matrix({0: static}, ring(m)) * shear == sharp
                    seen["static"] += 1
                r = len(support)
                seen["empty"] += r == 0
                seen["gap"] += r > 0 and support[-1] - support[0] >= r
                seen["rank4"] += r == 4 and m > 4
                seen["full"] += r == m and m % 2 == 0
                if isinstance(got, str):
                    seen["x_raise"] += "spatial" in got
                else:
                    seen["t"] += len(got[1]) > 1
                    seen["x"] += x_degree and any(
                        any(mono) for e in got[0].values() for mono, _ in e.terms
                    )
    assert min(seen.values()) >= 3, seen


def joint_draw(rng, m, support, overlap, t_power, x_degree):
    """pi on the support I, a constant chain c_k d_k ^ d_{k+1} along it plus
    random terms within it; B with terms on I only on legs J within I, and
    random terms with a leg off I.  J is empty, a strict subset of I or all
    of I, or, for ``singular``, the first pair (a, b) of the chain with
    B_ab = 1/c the only term there and no other term of pi on (a, b), so that
    det = (1 - c B_ab)^2 = 0."""
    chain = list(zip(support, support[1:]))
    pi = {0: PolyMultivector.zero((m, 0))}
    for pair in chain:
        pi[0] = pi[0] + mv((m, 0), rng.choice([-2, -1, 1, 3]), None, pair)
    inner = [pair for pair in itertools.combinations(support, 2) if pair != chain[0]]
    if inner:
        for p, e in random_wedge_curve(rng, mv, m, inner, t_power, x_degree,
                                       rng.randint(0, 3)).items():
            pi[p] = pi[p] + e if p in pi else e
    if overlap == "singular":
        c = pi[0].terms[((0,) * m, chain[0])]
        b = {0: form((m, 0), Fraction(1) / c, None, chain[0])}
    else:
        if overlap == "part":
            joint = sorted(rng.sample(support, rng.randint(2, len(support) - 1)))
        else:
            joint = support if overlap == "full" else []
        pairs = list(itertools.combinations(joint, 2))
        b = (random_wedge_curve(rng, form, m, pairs, t_power, x_degree, 2 * len(joint))
             if pairs else {})
    off = [pair for pair in itertools.combinations(range(m), 2) if not set(pair) <= set(support)]
    if off:
        for p, e in random_wedge_curve(rng, form, m, off, t_power, 1, rng.randint(1, 3)).items():
            b[p] = b[p] + e if p in b else e
    return b, {p: e for p, e in pi.items() if not e.is_zero()}


def test_joint_block_matches_the_full_matrix():
    """B meets the support I of pi on legs J, so the columns of N = 1 + S F
    off J are unit columns and only N_JJ enters Berkowitz; the transform
    still matches the full m x m matrix, with J empty, a strict subset of I
    or all of it."""
    rng = random.Random(55)
    seen = {"empty": 0, "part": 0, "full": 0, "static": 0, "t": 0, "x": 0, "vanishes": 0,
            "spatial": 0}
    for m in range(2, 8):
        for _ in range(2):
            support = sorted(rng.sample(range(m), rng.randint(3 if m > 2 else 2, m)))
            overlaps = ["empty", "full", "singular"] + ["part"] * (len(support) > 2)
            for overlap in overlaps:
                for t_power, x_degree in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                    b, pi = joint_draw(rng, m, support, overlap, t_power, x_degree)
                    got = checked_transform(b, pi, m)
                    if isinstance(got, str):
                        seen["vanishes" if "vanishes" in got else "spatial"] += 1
                        continue
                    seen[overlap] += 1
                    seen["t"] += len(got[1]) > 1
                    seen["x"] += any(any(mono) for e in got[0].values() for mono, _ in e.terms)
                    if set(b) | set(pi) <= {0}:
                        static = e_b_pi(b.get(0, PolyForm.zero((m, 0))), pi[0])
                        _, sharp, shear = sympy_transform(b, pi, m)
                        assert wedge2_matrix({0: static}, ring(m)) * shear == sharp
                        seen["static"] += 1
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
        expected = sympy_transform(*args)
        assert message in expected
        with pytest.raises(GraphTransformError) as info:
            _graph_transform(*args)
        assert str(info.value) == expected
    # spatially varying pi and B whose block product is nilpotent: det 1
    dims = (4, 0)
    pi = {0: mv(dims, 1, None, (0, 1)) + mv(dims, 1, None, (2, 3))}
    b = {0: form(dims, 1, (0, 0, 0, 1), (0, 2)), 1: form(dims, 2, (1, 0, 0, 0), (0, 3))}
    numerator, det = checked_transform(b, pi, 4)
    assert det == {0: 1} and any(any(mono) for e in numerator.values() for mono, _ in e.terms)


# -- the affine transport -------------------------------------------------------------------


def images_of(rows, K):
    """x_i -> c_i + sum_j M_ij x_j from the homogeneous rows [[1, 0], [c, M]],
    entries in K."""
    xs = K.gens[:-1]
    return [row[0] + sum((a * x for a, x in zip(row[1:], xs)), K.zero) for row in rows[1:]]


def transported(curve, images, legs, K):
    """transport by sympy: each coefficient f(x) t^p becomes f(images) t^p,
    and each wedge e_I becomes sum_J det(legs[I, J]) e_J over increasing J."""
    xs = K.gens[:-1]
    minors = {}
    out = {}
    for wedge, f in element_polys(curve, K).items():
        if wedge not in minors:
            k = len(wedge)
            minors[wedge] = [
                (J, DomainMatrix([[legs[i][j] for j in J] for i in wedge], (k, k), K).det())
                for J in itertools.combinations(range(len(xs)), k)
            ]
        value = f.compose(list(zip(xs, images)))
        for target, minor in minors[wedge]:
            if minor:
                out[target] = out.get(target, K.zero) + value * minor
    return {wedge: f for wedge, f in out.items() if f}


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
        K = ring(m)
        for linear in (False, True):
            for _ in range(4):
                x = random_field(rng, m, linear)
                minus, plus = _flow(x), _reversed(_flow(x))
                assert _reversed(minus) == plus
                matrix = [[rng.randint(-2, 2) + 3 * (i == j) for j in range(m)] for i in range(m)]
                try:
                    phi = AffineDiffeo(matrix, [rng.randint(-2, 2) for _ in range(m)])
                except ValueError:
                    phi = AffineDiffeo.identity(m)
                curve = random_element_curve(rng, m)
                # pull-backs pass the map and its matrix, push-forwards the
                # inverse map and the transposed matrix
                for affine, legs in [(minus, minus.matrix), (plus, minus.transposed()),
                                     (phi, phi.matrix), (phi.inverse(), phi.transposed())]:
                    rows = [[poly_of(e, K) for e in row] for row in affine.rows]
                    legs_k = [[poly_of(e, K) for e in row] for row in legs]
                    got = transport(curve, _coordinate_images(affine), legs)
                    assert element_polys(got, K) == transported(
                        curve, images_of(rows, K), legs_k, K)
                    assert all(is_settled_element(e) for e in got.values())
                seen["identity_legs"] += not linear
                seen["nontrivial_legs"] += any(
                    entry and i != j for i, row in enumerate(minus.matrix)
                    for j, entry in enumerate(row)
                )
    assert min(seen.values()) >= 3, seen


# -- affine maps in homogeneous coordinates ---------------------------------------------------


def coefficient_matrices(phi):
    """[Phi_0, .., Phi_top] over Q for a map Phi = sum_k Phi_k t^k whose
    entries are free of the spatial variables."""
    n = len(phi.rows)
    unit = (0,) * (n - 1)
    top = max((p for row in phi.rows for entry in row for p in entry), default=0)
    out = [[[QQ.zero] * n for _ in range(n)] for _ in range(top + 1)]
    for i, row in enumerate(phi.rows):
        for j, entry in enumerate(row):
            for p, poly in entry.items():
                assert set(poly) == {unit}
                out[p][i][j] = to_qq(poly[unit])
    return [DomainMatrix(c, (n, n), QQ).to_sparse() for c in out]


def generator(x_field):
    """G = [[0, 0], [b, A]] over Q for the field X = A x + b, with b = X(0)
    and A_ij = dX_i / dx_j."""
    m = x_field.dims[0]
    K = ring(m)
    g = {}
    for (i,), f in element_polys({0: x_field}, K).items():
        g[i + 1] = {0: f.const()}
        for j in range(m):
            slope = f.diff(K.gens[j])
            assert slope.is_ground
            g[i + 1][j + 1] = slope.const()
    return DomainMatrix({i: {j: c for j, c in row.items() if c} for i, row in g.items()},
                        (m + 1, m + 1), QQ)


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


def test_flow_solves_its_defining_ode():
    """Phi = sum_k Phi_k t^k solves dPhi/dt = sign G Phi with Phi(0) = 1
    exactly when Phi_0 = 1, (k + 1) Phi_{k+1} = sign G Phi_k and
    sign G Phi_top = 0: one product over Q per power of t."""
    rng = random.Random(59)
    indices = set()
    fields = inverted = 0
    for m in range(1, 9):
        one = DomainMatrix.eye(m + 1, QQ)
        zero = DomainMatrix.zeros((m + 1, m + 1), QQ).to_sparse()
        for kind, invert in (("zero", False), ("constant", True), ("linear", True),
                             ("linear", False)):
            for _ in range(10):
                x = oracle_field(rng, m, kind)
                g = generator(x)
                flows = {}
                for sign in (-1, 1):
                    phi = flows[sign] = _flow(x) if sign < 0 else _reversed(_flow(x))
                    assert_settled(phi.rows)
                    powers = coefficient_matrices(phi) + [zero]
                    assert powers[0] == one
                    slope = g if sign > 0 else -g
                    for k in range(len(powers) - 1):
                        assert slope * powers[k] == powers[k + 1] * QQ(k + 1)
                # the one inverse on t-polynomial maps
                if invert:
                    assert flows[-1].inverse() == flows[1] == _reversed(flows[-1])
                    inverted += 1
                # the nilpotency index of A: one more than the top power of t
                matrix = flows[1].matrix
                indices.add(1 + max((max(e) for row in matrix for e in row if e), default=0))
                fields += 1
    assert fields >= 300 and inverted == 160 and {1, 2, 3, 4} <= indices, (fields, indices)
    # a matrix part that is not nilpotent, and a field beyond affine
    for m in (1, 2, 4):
        dims = (m, 0)
        x_0 = (1,) + (0,) * (m - 1)
        rejected = [(mv(dims, 1, x_0, (0,)), "not nilpotent"),
                    (mv(dims, 2, (2,) + (0,) * (m - 1), (0,)), "constant or linear")]
        if m > 1:  # a rotation
            rejected.append(
                (mv(dims, 1, x_0, (m - 1,)) + mv(dims, -1, x_0[::-1], (0,)), "not nilpotent"))
        for x, message in rejected:
            with pytest.raises(UnsupportedVectorFieldError, match=message):
                _flow(x)


def curve_rows(matrix):
    """A DomainMatrix over Q as homogeneous rows of constant Curves."""
    m = matrix.shape[0] - 1
    return [[{0: {(0,) * m: as_fraction(Fraction(e.numerator, e.denominator))}} if e else {}
             for e in row] for row in matrix.to_list()]


def test_affine_maps_match_sympy_inverse_and_product():
    rng = random.Random(60)
    maps = 0
    fractional = 0
    for m in range(1, 6):
        dims = (m, 0)
        K = ring(m)
        for _ in range(25):
            pair = []
            while len(pair) < 2:
                matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                          for _ in range(m)]
                translation = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
                rows = [[1] + [0] * m] + [[c, *row] for c, row in zip(translation, matrix)]
                homogeneous = DomainMatrix([[to_qq(e) for e in row] for row in rows],
                                           (m + 1, m + 1), QQ)
                try:
                    phi = AffineDiffeo(matrix, translation)
                except ValueError as exc:
                    assert str(exc) == "affine map must be invertible"
                    assert not homogeneous.det()
                    continue
                assert phi.rows == curve_rows(homogeneous)
                pair.append((phi, homogeneous))
            (p, p_sym), (q, q_sym) = pair
            p_inverse, p_inv = p.inverse(), p_sym.inv()
            for got, expected in [(p_inverse, p_inv), (p.compose(q), p_sym * q_sym),
                                  (q.inverse().compose(p), q_sym.inv() * p_sym)]:
                assert got.rows == curve_rows(expected)
                assert_settled(got.rows)
            assert p.compose(p_inverse) == AffineDiffeo.identity(m)
            b1 = random_form(rng, dims, min(2, m), 1)
            b2 = random_form(rng, dims, min(2, m), 1)
            b, phi = group_mul(b1, p, b2, q)
            # (B1 + (p^{-1})^* B2, p o q)
            inv_rows = [[K.convert_from(e, QQ) for e in row] for row in p_inv.to_list()]
            pulled = transported({0: b2}, images_of(inv_rows, K), [r[1:] for r in inv_rows[1:]], K)
            expected = element_polys({0: b1}, K)
            for wedge, f in pulled.items():
                expected[wedge] = expected.get(wedge, K.zero) + f
            assert element_polys({0: b}, K) == {w: f for w, f in expected.items() if f}
            assert settled(b.terms.values())
            assert phi.rows == curve_rows(p_sym * q_sym)
            maps += 2
            fractional += any(row[0].denominator != 1 for row in p_inv.to_list())
    assert maps >= 200 and fractional >= 60, (maps, fractional)


def test_each_affine_map_runs_its_characteristic_polynomial_once(monkeypatch):
    # the constructor's Berkowitz coefficients serve inverse(); a map built
    # from rows (a flow, a product) computes them on its first inverse
    calls = []
    charpoly = tpois._charpoly

    def counting(*args):
        calls.append(len(args[0]))
        return charpoly(*args)

    monkeypatch.setattr(tpois, "_charpoly", counting)
    phi = AffineDiffeo([[2, 1, 0], [0, 1, 0], [0, 1, 1]], [3, 0, 1])
    assert calls == [4]
    inverse = phi.inverse()
    assert phi.inverse() == inverse and calls == [4]
    assert phi.compose(inverse) == AffineDiffeo.identity(3)
    del calls[:]
    x = mv((3, 0), 1, (0, 1, 0), (0,)) + mv((3, 0), 2, (0, 0, 0), (2,))
    flow = _flow(x)
    assert calls == []
    assert flow.inverse() == _reversed(_flow(x)) and calls == [4]
    flow.inverse()
    product = phi.compose(flow)
    product.inverse()
    product.inverse()
    assert calls == [4, 4]
    with pytest.raises(ValueError, match="affine map must be invertible"):
        AffineDiffeo([[1, 2], [2, 4]], [0, 0])


# -- the tangency check -----------------------------------------------------------------------


def sympy_ode_residual(curve):
    """The tangency residual N' d - N d' - d L_X N + N E N as a matrix over
    Q[x, t], for the sharp matrices N of the numerator curve and E of the
    gauge form E_t, the determinant curve d, and the Lie derivative
    (L_X N)_cd = X^k d_k N_cd - N_kd d_k X^c - N_ck d_k X^d; the last term is
    -1/2 (N^sharp ^ N^sharp)(E_t) in matrix form."""
    m = curve.dims[0]
    K = ring(m)
    xs, t = K.gens[:-1], K.gens[-1]
    numerator = wedge2_matrix(curve.mv_numerator, K)
    gauge_form = wedge2_matrix(curve.e_curve, K)
    d = scalar_poly(curve.denominator, K)
    field = [K.zero] * m
    for (i,), f in element_polys({0: curve.x_field}, K).items():
        field[i] = f
    jacobian = DomainMatrix([[f.diff(x) for x in xs] for f in field], (m, m), K).to_sparse()
    along = numerator.applyfunc(lambda e: sum((f * e.diff(x) for f, x in zip(field, xs)), K.zero))
    lie = along - jacobian * numerator - numerator * jacobian.transpose()
    return (numerator.applyfunc(lambda e: e.diff(t)) * d - numerator * d.diff(t) - lie * d
            + numerator * gauge_form * numerator)


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


def test_ode_residual_matches_sympy():
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
                        residual = each.ode_residual()
                        expected = sympy_ode_residual(each)
                        assert wedge2_matrix(residual, ring(m)) == expected
                        assert all(is_settled_element(e) for e in residual.values())
                        seen["nonzero" if residual else "zero"] += 1
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
    full 8 x 8 matrix more than 2 r^4 at r = 2 and r = 4.

    The transform and the tangency check of the flow curve through (0, pi)
    along B and a constant X on the support pass the Curve-matrix product no
    operand with more than 2 r rows or columns: neither builds an 8 x 8
    matrix.  Counting products would not show one, since the product skips
    zero entries.

    Berkowitz gets the block of N on the legs where B meets the support: the
    r x r block for the dense B, a 2 x 2 one when B's terms on the support lie
    on two legs of it, and a 0 x 0 one when every term of B has a leg off the
    support."""
    m = 8
    dims = (m, 0)
    calls = [0]
    widths = []
    sizes = []
    mac, mat_mul, charpoly = tpois._mac, tpois._mat_mul, tpois._charpoly

    def counting_mac(acc, x, y):
        calls[0] += 1
        return mac(acc, x, y)

    def recording_mat_mul(a, b, c=None, r=None):
        widths.extend(n for x in (a, b, r) if x for n in (len(x), len(x[0])))
        return mat_mul(a, b, c, r)

    def recording_charpoly(matrix, one):
        sizes.append(len(matrix))
        return charpoly(matrix, one)

    for support in (range(m), (0, 1), (1, 3, 4, 6)):
        rng = random.Random(50)
        r = len(support)
        pi = PolyMultivector.zero(dims)
        b = off = PolyForm.zero(dims)
        for legs in itertools.combinations(range(m), 2):
            if set(legs) <= set(support):
                pi = pi + mv(dims, rng.randint(1, 5), None, legs)
            term = form(dims, rng.randint(1, 5), None, legs)
            if not set(legs) <= set(support):
                off = off + term
            b = b + term
        curve = flow_curve(b, mv(dims, 1, None, (support[0],)), PolyForm.zero(dims), pi)
        calls[0] = 0
        widths.clear()
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(tpois, "_mac", counting_mac)
            patch.setattr(tpois, "_mat_mul", recording_mat_mul)
            patch.setattr(tpois, "_charpoly", recording_charpoly)
            numerator, det = _graph_transform({0: b}, {0: pi}, m)
            assert det[0] != 0 and numerator
            assert 0 < calls[0] <= 2 * r ** 4, (support, calls[0])
            assert sizes == [r], (support, sizes)
            assert curve.ode_residual() == {} and len(curve.denominator) > 1
            two = off + form(dims, 3, None, (support[0], support[1]))
            for b_part, size in ((two, 2), (off, 0)):
                sizes.clear()
                assert _graph_transform({0: b_part}, {0: pi}, m)[1][0] != 0
                assert sizes == [size], (support, size, sizes)
        assert 0 < max(widths) <= 2 * r, (support, max(widths))


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
