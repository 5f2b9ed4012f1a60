"""The twisted-Poisson homotopy algebra on R^m and its gauge geometry.

Carrier: pairs (form part in Omega^{>=1}[3], multivector part in X^*[2]), so a
q-form sits in degree q-3 and an arity-s multivector in degree s-2.  A pair is
a :class:`TPoisElement`, the two-part direct sum of graded that also carries
the big derived-bracket algebra's L[1] (+) a; the coordinate-model oracle
evaluates these brackets on exactly that carrier, as BigElt(form image,
multivector image).  The only non-vanishing multibrackets are

  a) unary: (H, pi) -> (-dH, 0),
  b) binary on multivectors: {pi1, pi2} = [pi1, pi2] (-1)^{a1+1},
  c) one q-form H with exactly q multivectors (arities a_i >= 1):
     {H, pi_1, .., pi_n} = (-1)^{sum a_i (n-i)} (pi_1^sharp ^..^ pi_n^sharp) H,

every other pattern is zero.  These closed formulas are cross-validated
against the coordinate-model oracle (see qgeom), which is the authority for
all signs.

Maurer-Cartan points are the pairs with dH = 0 and [pi, pi] = 2 wedge3(pi)(H);
the gauge field of a degree -1 direction (B, X) evaluates, by summing the
series over the brackets above, to

    Y^{(B,X)}|_{(H,pi)} = (-dB, [X, pi] + wedge2(pi)(B + i_X H)),

and the infinitesimal generator of the 2-form/affine-diffeomorphism action is
Z^{(B,X)}|_{(H,pi)} = (-d(i_X H + B), wedge2(pi)(B) - [X, pi]) with the exact
correspondence Z^{(B + i_X H, -X)} = Y^{(B,X)} on Maurer-Cartan points.

The group acts through B-fields and affine diffeomorphisms (Severa-Weinstein,
math/0107133).  Every affine map x -> M x + c, rational (AffineDiffeo) or
polynomial in the flow time t (TimeAffine), is its homogeneous matrix
[[1, 0], [c, M]] acting on the column (1, x): maps compose by a matrix product
and invert by a matrix inverse, and the flow of a field A x + b is exp(t G)
for the nilpotent generator G = [[0, 0], [b, A]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .graded import DirectSum, as_fraction, direct_sum_grading, settle
from .linfty import LInftyOne, homogeneous_combinations
from .polygeo import (
    Curve,
    Matrix,
    PolyForm,
    PolyMultivector,
    _check_size,
    _mac,
    _neg,
    _settled,
    _without_leg,
    contract_form,
    de_rham,
    multi_sharp,
    schouten,
    transport,
)

ONE_HALF = Fraction(1, 2)


class TPoisElement(DirectSum):
    """Pair (form part, multivector part); forms must have degree >= 1."""

    __slots__ = ()
    form_part = DirectSum.first
    mv_part = DirectSum.second

    def __init__(self, form_part: PolyForm, mv_part: PolyMultivector):
        if form_part.dims != mv_part.dims or form_part.dims[1] != 0:
            raise ValueError("both parts must live on the same plain base R^m")
        if 0 in form_part.form_degrees():
            raise ValueError("the form part lives in degrees >= 1")
        super().__init__(form_part, mv_part)

    @staticmethod
    def zero(m: int) -> "TPoisElement":
        return TPoisElement(PolyForm.zero((m, 0)), PolyMultivector.zero((m, 0)))

    @staticmethod
    def of_form(h: PolyForm) -> "TPoisElement":
        return TPoisElement(h, PolyMultivector.zero(h.dims))

    @staticmethod
    def of_mv(u: PolyMultivector) -> "TPoisElement":
        return TPoisElement(PolyForm.zero(u.dims), u)

    @property
    def dims(self):
        return self.form_part.dims

    def __repr__(self) -> str:
        return f"({self.form_part!r} ; {self.mv_part!r})"


# a q-form sits in degree q - 3; an arity-s multivector, graded s - 1 by the
# Schouten bracket, sits in degree s - 2
_components = direct_sum_grading(
    TPoisElement, (PolyForm.components, -3), (PolyMultivector.components, -1)
)


# -- the direct multibrackets -----------------------------------------------------


def tpois_bracket(n: int, args: tuple[TPoisElement, ...]) -> TPoisElement:
    """Multibracket of the twisted-Poisson algebra on a tuple of n elements.

    Arguments may be inhomogeneous; the value is computed multilinearly.
    Vanishing patterns (two or more forms at arity >= 3, three or more
    multivectors with no form, form-degree mismatches) return zero rather
    than raising.
    """
    if len(args) != n or n < 1:
        raise ValueError(f"expected {n} >= 1 arguments")
    m = args[0].dims[0]
    zero = TPoisElement.zero(m)
    for arg in args:
        if arg.dims != (m, 0):
            raise ValueError("ambient space mismatch")
    if n == 1:
        return TPoisElement.of_form(-de_rham(args[0].form_part))
    total = zero
    for combo, degrees in homogeneous_combinations(args, _components):
        total = total + _bracket_homogeneous(combo, degrees)
    return total


def _bracket_homogeneous(combo: tuple[TPoisElement, ...], degrees: list[int]) -> TPoisElement:
    """Bracket of n >= 2 homogeneous elements of the given degrees; each slot
    may still hold both a form and a multivector of that degree, so a
    nonzero form part has form degree d + 3 and a nonzero multivector part
    arity d + 2.

    Only the live patterns are built, in the order of the full (form,
    multivector) enumeration: the form of slot ``pos`` with the multivectors
    of every other slot (family c), for each pos, then at n = 2 the two
    multivectors (family b).  Every other pattern has two forms, or three or
    more multivectors and no form, and vanishes.
    """
    n = len(combo)
    total = TPoisElement.zero(combo[0].dims[0])
    mvs = [e.mv_part for e in combo]
    mv_zero = [u.is_zero() for u in mvs]
    n_zero = sum(mv_zero)
    for pos, e in enumerate(combo):
        h = e.form_part
        # c) {H, pi_1, .., pi_{n-1}} needs a form of degree n - 1 at pos,
        # multivectors of arity >= 1 elsewhere (functions contract to zero)
        if h.is_zero() or n_zero > mv_zero[pos] or degrees[pos] + 3 != n - 1:
            continue
        arities = [d + 2 for d in degrees[:pos] + degrees[pos + 1:]]
        if 0 in arities:
            continue
        pis = mvs[:pos] + mvs[pos + 1:]
        exponent = sum(a * (n - 1 - i) for i, a in enumerate(arities, start=1))
        # and the Koszul sign for moving the form to the front of the tuple
        exponent += degrees[pos] % 2 * sum(degrees[:pos])
        value = multi_sharp(pis, h)
        if not value.is_zero():
            total = total + TPoisElement.of_mv(value.scale(-1 if exponent % 2 else 1))
    if n == 2 and not n_zero:
        # b) {pi1, pi2} = [pi1, pi2] (-1)^{a1 + 1}
        sign = 1 if degrees[0] % 2 == 1 else -1
        total = total + TPoisElement.of_mv(schouten(mvs[0], mvs[1]).scale(sign))
    return total


def tpois_linfty(m: int) -> LInftyOne:
    """Handle for the twisted-Poisson algebra on R^m.  Forms on R^m die above
    degree m, so brackets of arity > m+1 vanish and every series is finite."""
    zero = TPoisElement.zero(m)

    def m_eval(k: int, args: tuple) -> TPoisElement:
        if k == 0:
            raise ValueError("the twisted-Poisson algebra is not curved")
        return tpois_bracket(k, args)

    return LInftyOne(
        components=_components,
        m=m_eval,
        zero=zero,
        curved=False,
        arity_bound=m + 1,
        name=f"twisted-poisson-R{m}",
    )


# -- closed forms: MC residual and gauge field --------------------------------------


def wedge2_tilde(pi: PolyMultivector, b: PolyForm) -> PolyMultivector:
    """(1/2) (pi^sharp ^ pi^sharp) applied to a 2-form."""
    return multi_sharp([pi, pi], b).scale(ONE_HALF)


def wedge3_tilde(pi: PolyMultivector, h: PolyForm) -> PolyMultivector:
    """(1/6) (pi^sharp ^ pi^sharp ^ pi^sharp) applied to a 3-form."""
    return multi_sharp([pi, pi, pi], h).scale(Fraction(1, 6))


def tpois_mc_residual(h: PolyForm, pi: PolyMultivector) -> tuple[PolyForm, PolyMultivector]:
    """Closed-form Maurer-Cartan test for a 3-form and a bivector:
    returns (dH, [pi,pi] - 2 wedge3(pi)(H)); the pair (H[3], pi[2]) is
    Maurer-Cartan exactly when both components vanish.

    The series over the multibrackets evaluates to (-dH, -(1/2) of the second
    component); the normalization is pinned by the oracle-equality tests.
    """
    if not h.is_zero() and h.form_degrees() != {3}:
        raise ValueError("expected a 3-form")
    if not pi.is_zero() and pi.arities() != {2}:
        raise ValueError("expected a bivector")
    jac = schouten(pi, pi)
    twist_term = wedge3_tilde(pi, h).scale(2)
    return de_rham(h), jac - twist_term


def is_twisted_poisson(h: PolyForm, pi: PolyMultivector) -> bool:
    dh, residual = tpois_mc_residual(h, pi)
    return dh.is_zero() and residual.is_zero()


def gauge_Y(
    b: PolyForm, x: PolyMultivector, h: PolyForm, pi: PolyMultivector
) -> tuple[PolyForm, PolyMultivector]:
    """Value of the gauge field of the degree -1 direction (B, X) at (H, pi):

        ( -dB , [X, pi] + wedge2(pi)(B + i_X H) ).

    This is the exact sum of the gauge series over the multibrackets (the
    wedge2 argument's sign is fixed by the oracle, see the module docstring).
    """
    moved = b + contract_form(x, h)
    return -de_rham(b), schouten(x, pi) + wedge2_tilde(pi, moved)


# -- polynomials in t ------------------------------------------------------------------
#
# Everything that moves with the flow time t is a polynomial in t, stored as
# dict[t_power -> coefficient] with zero coefficients dropped: a curve of forms
# or multivectors, a scalar curve (exact scalar coefficients, such as a
# determinant), or an entry of a graph-transform or homogeneous affine matrix
# (a Curve, whose coefficients are spatial polynomials).  Static geometry is
# the t^0 case of the same code.  The Curve ring and the substitution
# ``transport`` live in polygeo; the helpers below handle curves of forms and
# multivectors.


def _t_mac(acc: dict, curve: dict, scalar: dict[int, Fraction]) -> dict:
    """acc += curve * scalar in place, for a curve of forms or multivectors and
    a scalar curve, on an unsettled accumulator of one term dict per power of
    t (cf. :func:`_mac`); :func:`_t_settled` turns it into a curve."""
    for p, v in curve.items():
        for q, s in scalar.items():
            out = acc.setdefault(p + q, {})
            for key, coef in v.terms.items():
                out[key] = out.get(key, 0) + coef * s
    return acc


def _t_settled(acc: dict, kind: type, dims: tuple[int, int]) -> dict:
    """The curve of elements of ``kind`` of an accumulator: each power settled
    and size-checked once, vanishing powers dropped."""
    out = {}
    for power, terms in acc.items():
        terms = _check_size(settle(terms))
        if terms:
            out[power] = kind._of(dims, terms)
    return out


def _t_ddt(curve: dict) -> dict:
    return {p - 1: v * p for p, v in curve.items() if p}


def _t_integrate(curve: dict) -> dict:
    """int_0^t: shift powers up and divide."""
    return {p + 1: v * Fraction(1, p + 1) for p, v in curve.items()}


def _t_eval(curve: dict, t: Fraction, zero):
    total = zero
    for p, v in curve.items():
        total = total + v * t**p
    return total


# -- e^B graph transform -------------------------------------------------------------
#
# One code path for the static transform e^B pi, the flow curve e^{C_t} pi and
# the generator curve e^{tB} pi_t: the static transform is the t^0 curve
# ({0: B}, {0: pi}).


def _mat_mul(a: Matrix, b: Matrix, c: Curve | None = None, r: Matrix | None = None) -> Matrix:
    """a b, plus c r when the addend is given (c a Curve, r shaped like the
    product).  Only the nonzero entries of each row of b are visited, and each
    entry of the result is accumulated in place and settled once."""
    width = len(r[0]) if r else len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for i, a_row in enumerate(a):
        accs: dict[int, dict] = {}
        for x, b_row in zip(a_row, b_rows):
            if x:
                for j, y in b_row:
                    _mac(accs.setdefault(j, {}), x, y)
        if c:
            for j, y in enumerate(r[i]):
                if y:
                    _mac(accs.setdefault(j, {}), c, y)
        out.append([_settled(accs[j]) if j in accs else {} for j in range(width)])
    return out


def _charpoly(matrix: Matrix, one: Curve) -> list[Curve]:
    """Coefficients [1, c_1, .., c_m] of det(lambda - N), by Berkowitz's
    division-free algorithm (Inf. Proc. Lett. 18, 1984): O(m^4) ring products.

    The trailing principal submatrices are taken from the smallest up; the
    one with top-left entry a, top row R, left column C and rest A multiplies
    the vector of the one below by the Toeplitz matrix whose first column is
    (1, -a, -RC, -RAC, .., -RA^{s-2}C)."""
    m = len(matrix)
    vec = [[one]]  # a column
    for k in range(m - 1, -1, -1):
        row = [matrix[k][k + 1:]]
        rest = [r[k + 1:] for r in matrix[k + 1:]]
        col = [[r[k]] for r in matrix[k + 1:]]
        column = [_neg(matrix[k][k])]  # below the 1: -a, -RC, -RAC, ..
        for i in range(m - 1 - k):
            if i:
                col = _mat_mul(rest, col)
            column.append(_neg(_mat_mul(row, col)[0][0]))
        # the Toeplitz product (1 + lower) vec as (1 | lower) times (vec; vec),
        # so that each entry starts from the terms of vec
        s = len(vec)
        toeplitz = [
            [one if j == i else {} for j in range(s)]
            + [column[i - 1 - j] if j < i else {} for j in range(s)]
            for i in range(s + 1)
        ]
        vec = _mat_mul(toeplitz, vec + vec)
    return [entry for entry, in vec]


def _adjugate_times(matrix: Matrix, coeffs: list[Curve], rhs: Matrix) -> Matrix:
    """adj(N) R from the characteristic coefficients of N, with no minors: by
    Cayley-Hamilton adj(N) = (-1)^{m-1} (N^{m-1} + c_1 N^{m-2} + .. + c_{m-1}),
    applied to R by Horner's rule, R <- N R + c_k (-1)^{m-1} R, one pass each."""
    m = len(matrix)
    signed = rhs if m % 2 else [[_neg(x) for x in row] for row in rhs]
    out = signed
    for c in coeffs[1:m]:
        out = _mat_mul(matrix, out, c, signed)
    return out


class GraphTransformError(ValueError):
    pass


def _wedge2_matrix(curve: dict, m: int) -> Matrix:
    """M[a][c]: the coefficient of e_c in the contraction of a curve of
    bivectors or 2-forms with e_a, so pi^sharp(dx_a) = sum_c M[a][c] d_c and
    i_{d_a} B = sum_c M[a][c] dx_c; antisymmetric by construction."""
    out: Matrix = [[{} for _ in range(m)] for _ in range(m)]
    for power, element in curve.items():
        for (mono, wedge), coef in element.terms.items():
            if len(wedge) != 2:
                raise ValueError("graph transforms apply to bivectors and 2-forms")
            a, c = wedge  # each (power, mono) meets each entry at most once
            out[a][c].setdefault(power, {})[mono] = coef
            out[c][a].setdefault(power, {})[mono] = -coef
    return out


def _bivector_from_sharp(matrix: Matrix, m: int) -> dict[int, PolyMultivector]:
    """Rebuild a bivector curve from its sharp matrix, asserting antisymmetry
    entry by entry, with no sum built (a nonzero diagonal entry is not its
    own negative)."""
    by_power: dict[int, dict] = {}
    for j in range(m):
        for b in range(j, m):
            upper = matrix[j][b]
            if matrix[b][j] != _neg(upper):
                raise GraphTransformError("graph transform produced a non-antisymmetric matrix")
            for power, poly in upper.items():
                for mono, coef in poly.items():
                    by_power.setdefault(power, {})[(mono, (j, b))] = coef
    return {p: PolyMultivector._of((m, 0), _check_size(t)) for p, t in by_power.items()}


def _graph_transform(
    b_curve: dict[int, PolyForm], pi_curve: dict[int, PolyMultivector], m: int
) -> tuple[dict[int, PolyMultivector], dict[int, Fraction]]:
    """Numerator curve and scalar determinant curve of e^{B_t} pi_t on R^m.

    The true transform is numerator / det with N = 1 + pi^sharp B^flat.  The
    determinant must be free of the spatial variables (else the transform
    leaves the polynomial category) and not identically zero (else the
    sheared graph is not a graph).

    Only the support of pi^sharp enters: let I be the rows of pi^sharp that
    are nonzero at some power of t, and r = |I|.  Every other row of N is a
    unit row, so N is block triangular: det N = det N_II with
    N_II = 1 + pi^sharp_II B^flat_II (pi^sharp is antisymmetric, so its
    nonzero columns lie in I too), and adj(N) pi^sharp is
    adj(N_II) pi^sharp_II padded with zeros.  Both come from the
    characteristic polynomial of N_II, in O(r^4) ring products; at r = 0
    (pi = 0, or m = 0) the determinant is 1 and the numerator 0.
    """
    sharp = _wedge2_matrix(pi_curve, m)
    flat = _wedge2_matrix(b_curve, m)
    support = [i for i, row in enumerate(sharp) if any(row)]
    r = len(support)
    sharp_ii = [[sharp[i][j] for j in support] for i in support]
    flat_ii = [[flat[i][j] for j in support] for i in support]
    unit_mono = (0,) * m
    one = {0: {unit_mono: 1}}
    # N_II[j][c] = delta_jc + sum_b sharp[j][b] flat[b][c] acting on
    # covectors, as (1 | sharp_II) times (1; flat_II), so that each entry
    # starts from the 1
    identity = [[one if i == j else {} for j in range(r)] for i in range(r)]
    augmented = [i_row + s_row for i_row, s_row in zip(identity, sharp_ii)]
    n_mat = _mat_mul(augmented, identity + flat_ii)
    coeffs = _charpoly(n_mat, one)
    det = _neg(coeffs[r]) if r % 2 else coeffs[r]
    if not det:
        raise GraphTransformError("sheared graph is not a graph (determinant vanishes)")
    if any(set(poly) - {unit_mono} for poly in det.values()):
        raise GraphTransformError(
            "graph transform leaves the polynomial category "
            "(determinant depends on the spatial variables)"
        )
    # rho^sharp = pi^sharp o (N^{-1}) = adj(N) pi^sharp / det, no minors built
    block = _adjugate_times(n_mat, coeffs, sharp_ii)
    rho: Matrix = [[{} for _ in range(m)] for _ in range(m)]
    for i, row in zip(support, block):
        for j, entry in zip(support, row):
            rho[i][j] = entry
    return _bivector_from_sharp(rho, m), {p: poly[unit_mono] for p, poly in det.items()}


def _derivative_at_zero(
    numerator: dict[int, PolyMultivector], det: dict[int, Fraction], dims
) -> PolyMultivector:
    """d/dt at t = 0 of numerator / det, for a determinant with det(0) = 1."""
    if det.get(0) != 1:
        raise GraphTransformError("graph-transform curve not normalized at t = 0")
    zero = PolyMultivector.zero(dims)
    return numerator.get(1, zero) - numerator.get(0, zero).scale(det.get(1, 0))


def e_b_pi(b: PolyForm, pi: PolyMultivector) -> PolyMultivector:
    """The bivector whose graph is the B-field shear of graph(pi): the unique
    solution of (e^B pi)^sharp = pi^sharp (1 + B^flat pi^sharp)^{-1}.

    Well-defined in the polynomial category only when det(1 + B^flat pi^sharp)
    is a nonzero rational constant.  The rows of N = 1 + pi^sharp B^flat
    outside the r nonzero rows of pi^sharp are unit rows, so N is block
    triangular and both the determinant and adj(N) pi^sharp come from the
    r x r block on the support of pi^sharp.  The determinant is Berkowitz's,
    and the inverse is adj / det with adj(N) pi^sharp applied through
    Cayley-Hamilton, in O(r^4) ring products; antisymmetry of the result is
    asserted.
    """
    numerator, det = _graph_transform({0: b}, {0: pi}, pi.dims[0])
    return numerator.get(0, PolyMultivector.zero(pi.dims)).scale(Fraction(1, det[0]))


# -- affine maps and the 2-form semidirect action --------------------------------------
#
# An affine map x -> M x + c is its homogeneous matrix [[1, 0], [c, M]] (see
# the module docstring), so no routine writes its own formula for c.


@dataclass(frozen=True)
class TimeAffine:
    """x -> M(t) x + c(t) as the homogeneous rows [[1, 0], [c(t), M(t)]],
    entries Curves with constant coefficients: the flow of an affine vector
    field, or an AffineDiffeo as the t^0 case."""

    rows: Matrix

    @property
    def matrix(self) -> Matrix:
        return [row[1:] for row in self.rows[1:]]

    def transposed(self) -> Matrix:
        return [list(column) for column in zip(*self.matrix)]


def _coordinate_images(phi: TimeAffine) -> list[Curve]:
    """The substitution x_i -> sum_j M_ij(t) x_j + c_i(t), one Curve per x_i,
    for :func:`transport`: the pull-back by phi passes these images and
    phi.matrix as legs; the push-forward by phi passes the images of its
    inverse and phi.transposed()."""
    m = len(phi.rows) - 1
    # the rows (c | M) times the column (1, x_1, .., x_m): each image starts from c
    column = [[{0: {(0,) * m: 1}}]]
    column += [[{0: {tuple(int(v == j) for v in range(m)): 1}}] for j in range(m)]
    return [image for image, in _mat_mul(phi.rows[1:], column)]


class AffineDiffeo:
    """x -> A x + b with an invertible rational matrix A, stored as the
    homogeneous matrix [[1, 0], [b, A]]."""

    __slots__ = ("rows",)

    def __init__(self, matrix, translation):
        matrix = [[as_fraction(e) for e in row] for row in matrix]
        translation = [as_fraction(e) for e in translation]
        n = len(matrix)
        if any(len(row) != n for row in matrix) or len(translation) != n:
            raise ValueError("inconsistent affine data")
        self.rows = ((1,) + (0,) * n,) + tuple((c, *row) for c, row in zip(translation, matrix))
        _rational_inverse(self.rows)  # raises unless A is invertible

    @staticmethod
    def _of(rows) -> "AffineDiffeo":
        """The map of a homogeneous matrix known to be invertible."""
        new = AffineDiffeo.__new__(AffineDiffeo)
        new.rows = tuple(tuple(as_fraction(e) for e in row) for row in rows)
        return new

    @staticmethod
    def identity(m: int) -> "AffineDiffeo":
        return AffineDiffeo(
            [[1 if i == j else 0 for j in range(m)] for i in range(m)], [0] * m
        )

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def inverse(self) -> "AffineDiffeo":
        return AffineDiffeo._of(_rational_inverse(self.rows))

    def compose(self, other: "AffineDiffeo") -> "AffineDiffeo":
        """self after other."""
        columns = list(zip(*other.rows))
        return AffineDiffeo._of([[sum(map(mul, row, col)) for col in columns] for row in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineDiffeo) and self.rows == other.rows

    def _at_t0(self) -> TimeAffine:
        unit = (0,) * self.dim
        return TimeAffine([[{0: {unit: e}} if e else {} for e in row] for row in self.rows])

    def pullback_form(self, w: PolyForm) -> PolyForm:
        """phi^* w: coefficients at phi(x), legs dx_i -> sum_j A_ij dx_j."""
        phi = self._at_t0()
        return transport({0: w}, _coordinate_images(phi), phi.matrix).get(0, PolyForm.zero(w.dims))

    def pushforward_mv(self, u: PolyMultivector) -> PolyMultivector:
        """phi_* u: coefficients at phi^{-1}(x), legs d_i -> sum_j A_ji d_j."""
        images = _coordinate_images(self.inverse()._at_t0())
        moved = transport({0: u}, images, self._at_t0().transposed())
        return moved.get(0, PolyMultivector.zero(u.dims))


def _rational_inverse(matrix):
    n = len(matrix)
    rows = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("affine map must be invertible")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [e / scale for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def group_mul(
    b1: PolyForm, phi1: AffineDiffeo, b2: PolyForm, phi2: AffineDiffeo
) -> tuple[PolyForm, AffineDiffeo]:
    """(B1, phi1) . (B2, phi2) = (B1 + (phi1^{-1})^* B2, phi1 o phi2)."""
    return b1 + phi1.inverse().pullback_form(b2), phi1.compose(phi2)


def group_act(
    b: PolyForm, phi: AffineDiffeo, h: PolyForm, pi: PolyMultivector
) -> tuple[PolyForm, PolyMultivector]:
    """(B, phi) . (H, pi) = ((phi^{-1})^* H - dB, e^B phi_* pi)."""
    new_h = phi.inverse().pullback_form(h) - de_rham(b)
    new_pi = e_b_pi(b, phi.pushforward_mv(pi))
    return new_h, new_pi


# -- symbolic-in-t flow curves --------------------------------------------------------


class UnsupportedVectorFieldError(ValueError):
    pass


def _flow(x_field: PolyMultivector, time_sign: int) -> TimeAffine:
    """The time-(sign * t) flow of a vector field A x + b: exp(sign t G) for
    its generator G = [[0, 0], [b, A]], summed as sum_k (sign t G)^k / k!.
    G is nilpotent exactly when A is; error beyond affine or when G^{m+1} is
    not zero (the flow would leave the polynomial world)."""
    m = x_field.dims[0]
    unit = (0,) * m
    # sign t G: column 0 holds b, column j + 1 the coefficients of x_j
    step: Matrix = [[{} for _ in range(m + 1)] for _ in range(m + 1)]
    for (mono, wedge), coef in x_field.terms.items():
        if len(wedge) != 1:
            raise UnsupportedVectorFieldError("flow directions must be vector fields")
        total = sum(mono)
        if total > 1:
            raise UnsupportedVectorFieldError(
                "flow directions must be constant or linear with nilpotent matrix part"
            )
        step[wedge[0] + 1][mono.index(1) + 1 if total else 0] = {1: {unit: time_sign * coef}}
    rows = [[{0: {unit: 1}} if i == j else {} for j in range(m + 1)] for i in range(m + 1)]
    power, k = step, 1
    while any(any(row) for row in power):
        if k > m:
            raise UnsupportedVectorFieldError("matrix part of the flow is not nilpotent")
        # (sign t G)^k lives at t^k alone: add its entries over k!
        scale = Fraction(1, math.factorial(k))
        for row, power_row in zip(rows, power):
            for entry, curve in zip(row, power_row):
                if curve:
                    entry[k] = {unit: as_fraction(curve[k][unit] * scale)}
        power, k = _mat_mul(power, step), k + 1
    return TimeAffine(rows)


def _reversed(phi: TimeAffine) -> TimeAffine:
    """phi with t -> -t: the odd powers of every entry negate, so the time-t
    flow comes from the time-(-t) one."""

    def flip(curve: Curve) -> Curve:
        return {
            k: {mono: -c for mono, c in poly.items()} if k % 2 else poly
            for k, poly in curve.items()
        }

    return TimeAffine([[flip(entry) for entry in row] for row in phi.rows])


def _gauge_form_curve(
    b: PolyForm, x_field: PolyMultivector, h: PolyForm, db: PolyForm
) -> dict[int, PolyForm]:
    """E_t = B + i_X H - t i_X dB, from dB: the 2-form that shears pi along
    the flow of the gauge field of (B, X) through (H, pi), whose form part is
    H - t dB."""
    curve = {0: b + contract_form(x_field, h)}
    slope = contract_form(x_field, db)
    if not slope.is_zero():
        curve[1] = -slope
    return curve


@dataclass(frozen=True)
class FlowCurve:
    """Integral curve of the gauge field of (B, X) through (H, pi):

        t |-> ( H - t dB , pushforward by the time-(-t) flow of e^{C_t} pi )

    with C_t = int_0^t (flow_{-s})^* E_s ds and E_s = B + i_X H - s i_X dB
    (``e_curve``).  The multivector component is stored as a polynomial
    numerator curve over a t-polynomial determinant."""

    dims: tuple[int, int]
    b_form: PolyForm
    x_field: PolyMultivector
    h_form: PolyForm
    form_curve: dict[int, PolyForm]
    e_curve: dict[int, PolyForm]
    mv_numerator: dict[int, PolyMultivector]
    denominator: dict[int, Fraction]

    def form_at(self, t: Fraction) -> PolyForm:
        return _t_eval(self.form_curve, as_fraction(t), PolyForm.zero(self.dims))

    def mv_at(self, t: Fraction) -> PolyMultivector:
        t = as_fraction(t)
        den = _t_eval(self.denominator, t, 0)
        if den == 0:
            raise GraphTransformError(f"flow leaves the polynomial category at t = {t}")
        num = _t_eval(self.mv_numerator, t, PolyMultivector.zero(self.dims))
        return num.scale(Fraction(1, den))

    def at(self, t: Fraction) -> tuple[PolyForm, PolyMultivector]:
        return self.form_at(t), self.mv_at(t)

    def derivative_at_zero(self) -> tuple[PolyForm, PolyMultivector]:
        form_prime = self.form_curve.get(1, PolyForm.zero(self.dims))
        return form_prime, _derivative_at_zero(self.mv_numerator, self.denominator, self.dims)

    def ode_residual(self) -> dict[int, PolyMultivector]:
        """Cross-multiplied tangency identity, a polynomial identity in t:

            N' d - N d' - d [X, N] - 1/2 (N^sharp ^ N^sharp)(E_t)  with
            E_t = B + i_X H - t i_X dB

        (N the numerator curve, d the determinant).  Empty dict iff satisfied.

        The last term is formed in one pass.  For bivectors multi_sharp is
        bilinear and symmetric, and vector fields anticommute, so on one term
        f dx_a^dx_b of E_t

            (N^sharp ^ N^sharp)(f dx_a^dx_b) = f (S_a ^ S_b - S_b ^ S_a)
                                             = 2 f S_a ^ S_b,

        with S_a(t) = i_{dx_a} N(t) = sum_p t^p i_{dx_a} N_p.  Hence
        -1/2 (N^sharp ^ N^sharp)(E_t) = -sum f S_a ^ S_b over the terms of
        E_t: one contraction per leg and one product S_a ^ S_b per wedge.
        Every piece is accumulated into one term dict per power of t, and
        each power is settled once."""
        n_curve = self.mv_numerator
        minus_d = {p: -s for p, s in self.denominator.items()}
        bracket = {p: schouten(self.x_field, e) for p, e in n_curve.items()}
        acc: dict[int, dict] = {}
        _t_mac(acc, _t_ddt(n_curve), self.denominator)
        _t_mac(acc, n_curve, _t_ddt(minus_d))
        _t_mac(acc, bracket, minus_d)
        by_wedge: dict[tuple[int, int], list] = {}
        for p3, e in self.e_curve.items():
            for (mono, legs), f in e.terms.items():
                by_wedge.setdefault(legs, []).append((p3, mono, -f))
        contractions: dict[int, dict[int, list]] = {}
        for leg in {leg for legs in by_wedge for leg in legs}:
            contractions[leg] = {p: _without_leg(n_p, leg) for p, n_p in n_curve.items()}
        for (a, b), factors in by_wedge.items():
            # S_a ^ S_b, one term dict per power of t
            product: dict[int, dict] = {}
            for p1, s_a in contractions[a].items():
                for p2, s_b in contractions[b].items():
                    out = product.setdefault(p1 + p2, {})
                    for ca, ma, (la,) in s_a:
                        for cb, mb, (lb,) in s_b:
                            if la == lb:
                                continue
                            key = (tuple(map(add, ma, mb)), (la, lb) if la < lb else (lb, la))
                            out[key] = out.get(key, 0) + (ca * cb if la < lb else -ca * cb)
            for p3, f_mono, f in factors:
                for p, terms in product.items():
                    out = acc.setdefault(p + p3, {})
                    for (mono, legs), coef in terms.items():
                        key = (tuple(map(add, f_mono, mono)), legs)
                        out[key] = out.get(key, 0) + f * coef
        return _t_settled(acc, PolyMultivector, self.dims)

    def emit(self) -> dict:
        from .polygeo import element_to_json

        return {
            "form": [[p, element_to_json(f)] for p, f in sorted(self.form_curve.items())],
            "mv_numerator": [
                [p, element_to_json(e)] for p, e in sorted(self.mv_numerator.items())
            ],
            "denominator": [
                [p, str(s) if s.denominator != 1 else s.numerator]
                for p, s in sorted(self.denominator.items())
            ],
        }


def flow_curve(
    b: PolyForm, x_field: PolyMultivector, h: PolyForm, pi: PolyMultivector
) -> FlowCurve:
    """Symbolic integral curve of the gauge field of (B, X) starting at (H, pi).

    The flow direction must be constant or linear with nilpotent matrix part so
    that everything stays polynomial; invertibility of the graph transform is
    checked symbolically (determinant free of the spatial variables)."""
    dims = pi.dims
    if not h.is_zero() and h.form_degrees() != {3}:
        raise ValueError("flow starts at a 3-form / bivector pair")
    if not pi.is_zero() and pi.arities() != {2}:
        raise ValueError("flow starts at a 3-form / bivector pair")
    flow_minus = _flow(x_field, -1)
    flow_plus = _reversed(flow_minus)

    db = de_rham(b)
    e_curve = _gauge_form_curve(b, x_field, h, db)
    c_curve = _t_integrate(transport(e_curve, _coordinate_images(flow_minus), flow_minus.matrix))
    numerator, det = _graph_transform(c_curve, {0: pi}, dims[0])
    pushed = transport(numerator, _coordinate_images(flow_plus), flow_minus.transposed())

    form_curve = {0: h}
    if not db.is_zero():
        form_curve[1] = -db

    return FlowCurve(
        dims=dims,
        b_form=b,
        x_field=x_field,
        h_form=h,
        form_curve=form_curve,
        e_curve=e_curve,
        mv_numerator=pushed,
        denominator=det,
    )


# -- infinitesimal generator of the group action ---------------------------------------


@dataclass(frozen=True)
class GeneratorReport:
    gauge: tuple[PolyForm, PolyMultivector]
    generator: tuple[PolyForm, PolyMultivector]
    symbolic_matches_closed_form: bool
    identity_holds: bool


def action_generator(
    b: PolyForm, x_field: PolyMultivector, h: PolyForm, pi: PolyMultivector
) -> tuple[PolyForm, PolyMultivector]:
    """d/dt at 0 of (tB, flow_t of X) . (H, pi), computed symbolically in t."""
    dims = pi.dims
    flow_minus = _flow(x_field, -1)
    flow_plus = _reversed(flow_minus)
    # form component: (flow_t^{-1})^* H - t dB
    minus_images = _coordinate_images(flow_minus)
    h_curve = transport({0: h}, minus_images, flow_minus.matrix)
    form_prime = h_curve.get(1, PolyForm.zero(dims)) - de_rham(b)
    # multivector component: e^{tB} (flow_t)_* pi
    pi_curve = transport({0: pi}, minus_images, flow_plus.transposed())
    numerator, det = _graph_transform({1: b}, pi_curve, dims[0])
    return form_prime, _derivative_at_zero(numerator, det, dims)


def generator_match(
    b: PolyForm, x_field: PolyMultivector, h: PolyForm, pi: PolyMultivector
) -> GeneratorReport:
    """At a Maurer-Cartan point, verify (exactly):

      * the symbolically computed generator equals its closed form
        Z^{(B,X)} = (-d(i_X H + B), wedge2(pi)(B) - [X, pi]);
      * the correspondence Z^{(B + i_X H, -X)} = Y^{(B,X)}.
    """
    if not is_twisted_poisson(h, pi):
        raise ValueError("generator matching is defined on Maurer-Cartan points")
    symbolic = action_generator(b, x_field, h, pi)
    closed = (
        -de_rham(contract_form(x_field, h) + b),
        wedge2_tilde(pi, b) - schouten(x_field, pi),
    )
    sym_ok = symbolic[0] == closed[0] and symbolic[1] == closed[1]

    gauge = gauge_Y(b, x_field, h, pi)
    matched = action_generator(b + contract_form(x_field, h), -x_field, h, pi)
    identity_ok = matched[0] == gauge[0] and matched[1] == gauge[1]
    return GeneratorReport(
        gauge=gauge,
        generator=symbolic,
        symbolic_matches_closed_form=sym_ok,
        identity_holds=identity_ok,
    )


def mc_residual_derivative(
    h: PolyForm,
    pi: PolyMultivector,
    dh: PolyForm,
    dpi: PolyMultivector,
) -> tuple[PolyForm, PolyMultivector]:
    """First-order directional derivative of the closed-form Maurer-Cartan
    residual (dH, [pi,pi] - 2 wedge3(pi)(H)) at (h, pi) along (dh, dpi).

    On Maurer-Cartan points this vanishes along every gauge direction: the
    assertable form of the gauge fields being tangent to the solution set.
    """
    form_part = de_rham(dh)
    mv_part = schouten(pi, dpi).scale(2)
    mv_part = mv_part - multi_sharp([dpi, pi, pi], h)
    mv_part = mv_part - multi_sharp([pi, pi, pi], dh).scale(Fraction(1, 3))
    return form_part, mv_part
