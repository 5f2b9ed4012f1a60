"""The e^B graph transform: Berkowitz determinant and Cayley-Hamilton adjugate.

The Leibniz expansion below is the former implementation (m! products for the
determinant, m^2 minors for the adjugate), kept here only as an exact oracle.
"""

import itertools
import random
from fractions import Fraction

from derived_brackets import tpois
from derived_brackets.polygeo import PolyForm, PolyMultivector, form, mv
from derived_brackets.sampling import gauge_safe_data
from derived_brackets.tpois import (
    _adjugate_times,
    _c_add,
    _c_mul,
    _c_scale,
    _charpoly,
    _graph_transform,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    is_twisted_poisson,
)

# -- the Leibniz oracle ---------------------------------------------------------------


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
            prod = entry if prod is None else _c_mul(prod, entry)
            if not prod:
                break
        if prod:
            total = _c_add(total, _c_scale(prod, Fraction(sign)))
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
                cof = _c_scale(cof, Fraction(-1))
            out[j][i] = cof  # adj = transpose of cofactors
    return out


def plain_mat_mul(a, b):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = _c_add(out[i][j], _c_mul(a[i][k], b[k][j]))
    return out


# -- random matrices over Q[x_1..x_m][t] ---------------------------------------------------


def random_entry(rng, m, density, t_power, x_degree):
    """A one-term Curve, or zero with probability 1 - density."""
    if rng.random() >= density:
        return {}
    mono = [0] * m
    for _ in range(rng.randint(0, x_degree)):
        mono[rng.randrange(m)] += 1
    coef = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
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
            mat[i] = [_c_mul(factor, entry) for entry in mat[j]]
    return mat


def unit(m):
    return {0: {(0,) * m: Fraction(1)}}


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
            det = _c_scale(coeffs[m], Fraction((-1) ** m))
            assert det == leibniz_det(n_mat)
            expected = plain_mat_mul(leibniz_adjugate(n_mat, unit(m)), rhs)
            assert _adjugate_times(n_mat, coeffs, rhs) == expected
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
    """A dense transform at m = 8 stays within 2 m^4 ring products; the Leibniz
    determinant alone needs at least 8! = 40320."""
    m = 8
    dims = (m, 0)
    rng = random.Random(50)
    pi = PolyMultivector.zero(dims)
    b = PolyForm.zero(dims)
    for legs in itertools.combinations(range(m), 2):
        pi = pi + mv(dims, rng.randint(1, 5), None, legs)
        b = b + form(dims, rng.randint(1, 5), None, legs)
    calls = [0]

    def counting_mul(x, y):
        calls[0] += 1
        return _c_mul(x, y)

    monkeypatch.setattr(tpois, "_c_mul", counting_mul)
    numerator, det = _graph_transform({0: b}, {0: pi}, m)
    assert det[0] != 0 and numerator
    assert 0 < calls[0] <= 2 * m**4
