"""Graded-commutative polynomial model of the standard Courant algebroid.

Coordinates on the model space: x_j (degree 0), p_j and v_j (degree 1), P_j
(degree 2), for j = 1..m.  The graded Poisson bracket has degree -2 and is the
biderivation generated mechanically from the two relations

    {P_j, x_k} = delta_jk        {p_j, v_k} = delta_jk

(all other coordinate pairs bracket to zero; reversed orders follow from the
graded antisymmetry {f,g} = -(-1)^{(|f|-2)(|g|-2)}{g,f}).  The distinguished
degree-3 element sum_i P_i v_i squares to zero, evaluation on the base sets
P_j = v_j = 0, and the dictionaries

    d_{j1} ^ .. ^ d_{jk}   <->  p_{j1} .. p_{jk}      (multivector fields)
    dx_{j1} ^ .. ^ dx_{jk} <->  v_{j1} .. v_{jk}      (differential forms)

embed the Cartan calculus of R^m.  Together these make an independent oracle
for every twisted-Poisson multibracket: the derived-bracket formulas are
evaluated inside this model and translated back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graded import SparseCombination, as_fraction, inversion_parity, settle
from .linfty import LInftyOne
from .polygeo import PolyForm, PolyMultivector
from .vdata import BigElt, VData, big_algebra, restrict

# term key: (x exponents, P exponents, ascending p indices, ascending v indices)
Key = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class DictionaryError(ValueError):
    """An oracle value left the image of the multivector/form dictionaries."""


def _term_degree(key: Key) -> int:
    _, P_exp, p_idx, v_idx = key
    return len(p_idx) + len(v_idx) + 2 * sum(P_exp)


def _merge_odd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two ascending index tuples of odd letters; None if any repeats."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return None
    # a and b are ascending, so every inversion of a + b pairs an entry of a
    # with a smaller entry of b
    return (-1 if inversion_parity(a + b) else 1), tuple(sorted(a + b))


def _product_into(out: dict, left: dict, right: dict, sign: int) -> dict:
    """Add ``sign`` times the graded-commutative product of the term dicts
    ``left`` and ``right`` into ``out`` (unsettled) and return it."""
    for (x1, P1, p1, v1), c1 in left.items():
        for (x2, P2, p2, v2), c2 in right.items():
            mp = _merge_odd(p1, p2)
            if mp is None:
                continue
            mv_ = _merge_odd(v1, v2)
            if mv_ is None:
                continue
            # reorder p1 v1 p2 v2 -> p's then v's: move p2 (odd) past v1 (odd)
            s = -sign if (len(p2) * len(v1)) % 2 else sign
            key = (
                tuple(a + b for a, b in zip(x1, x2)),
                tuple(a + b for a, b in zip(P1, P2)),
                mp[1],
                mv_[1],
            )
            out[key] = out.get(key, 0) + c1 * c2 * (s * mp[0] * mv_[0])
    return out


class SuperPoly(SparseCombination):
    """Element of the graded-commutative algebra Q[x, P] (x) Lambda[p, v]."""

    __slots__ = ()
    dim = SparseCombination.ambient
    _mismatch = "dimension mismatch"
    _key_degree = staticmethod(_term_degree)

    def __init__(self, dim: int, terms: dict[Key, Fraction]):
        clean = {}
        for key, coef in terms.items():
            coef = as_fraction(coef)
            if coef == 0:
                continue
            x_exp, P_exp, p_idx, v_idx = key
            if len(x_exp) != dim or len(P_exp) != dim:
                raise ValueError(f"exponent tuples do not match dim {dim}")
            if list(p_idx) != sorted(set(p_idx)) or list(v_idx) != sorted(set(v_idx)):
                raise ValueError("odd indices must be strictly ascending")
            if p_idx and not (0 <= p_idx[0] and p_idx[-1] < dim):
                raise ValueError("p index out of range")
            if v_idx and not (0 <= v_idx[0] and v_idx[-1] < dim):
                raise ValueError("v index out of range")
            clean[key] = coef
        self.dim = dim
        self.terms = clean
        self._grading = None

    # -- ring structure ---------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SuperPoly":
        return cls(dim, {})

    @classmethod
    def monomial(cls, dim: int, coef=1, x=None, P=None, p=(), v=()) -> "SuperPoly":
        x = (0,) * dim if x is None else tuple(x)
        P = (0,) * dim if P is None else tuple(P)
        return cls(dim, {(x, P, tuple(p), tuple(v)): as_fraction(coef)})

    def product(self, other: "SuperPoly") -> "SuperPoly":
        """Graded-commutative product."""
        self._check_ambient(other)
        return self._of(self.dim, settle(_product_into({}, self.terms, other.terms, 1)))

    def _key_body(self, key: Key) -> str:
        x_exp, P_exp, p_idx, v_idx = key
        factors = []
        for j, e in enumerate(x_exp):
            if e:
                factors.append(f"x{j+1}" + (f"^{e}" if e > 1 else ""))
        for j, e in enumerate(P_exp):
            if e:
                factors.append(f"P{j+1}" + (f"^{e}" if e > 1 else ""))
        factors.extend(f"p{j+1}" for j in p_idx)
        factors.extend(f"v{j+1}" for j in v_idx)
        return " ".join(factors) if factors else "1"


# -- derivatives -------------------------------------------------------------------


def _diff_even(terms: dict[Key, Fraction], which: str, j: int) -> dict[Key, Fraction]:
    out: dict[Key, Fraction] = {}
    for (x_exp, P_exp, p_idx, v_idx), coef in terms.items():
        exps = x_exp if which == "x" else P_exp
        e = exps[j]
        if e == 0:
            continue
        lowered = exps[:j] + (e - 1,) + exps[j + 1 :]
        key = (lowered, P_exp, p_idx, v_idx) if which == "x" else (x_exp, lowered, p_idx, v_idx)
        out[key] = out.get(key, 0) + coef * e
    return settle(out)


def _diff_odd(terms: dict[Key, Fraction], which: str, j: int) -> dict[Key, Fraction]:
    """Left derivative with respect to p_j or v_j: the letter is moved to the
    front (Koszul sign over the odd letters before it) and stripped."""
    out: dict[Key, Fraction] = {}
    for (x_exp, P_exp, p_idx, v_idx), coef in terms.items():
        if which == "p":
            if j not in p_idx:
                continue
            pos = p_idx.index(j)
            sign = -1 if pos % 2 else 1
            key = (x_exp, P_exp, p_idx[:pos] + p_idx[pos + 1 :], v_idx)
        else:
            if j not in v_idx:
                continue
            pos = v_idx.index(j)
            sign = -1 if (len(p_idx) + pos) % 2 else 1
            key = (x_exp, P_exp, p_idx, v_idx[:pos] + v_idx[pos + 1 :])
        out[key] = out.get(key, 0) + coef * sign
    return settle(out)


def super_bracket(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """The degree -2 graded Poisson bracket.

    On homogeneous terms (|f| the term degree, all derivatives left ones):

      {f, g} = sum_j [ df/dP_j dg/dx_j - df/dx_j dg/dP_j ]
             + (-1)^{|f|+1} sum_j [ df/dp_j dg/dv_j + df/dv_j dg/dp_j ]

    The four derivatives of g are taken once per index j, and every product
    is added into one dict with an int sign.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch in super bracket")
    dim = f.dim
    gt = g.terms
    g_parts = [
        (_diff_even(gt, "x", j), _diff_even(gt, "P", j), _diff_odd(gt, "v", j),
         _diff_odd(gt, "p", j))
        for j in range(dim)
    ]
    out: dict = {}
    for fkey, fcoef in f.terms.items():
        fterm = {fkey: fcoef}
        odd_sign = -1 if _term_degree(fkey) % 2 == 0 else 1
        for j, (g_x, g_P, g_v, g_p) in enumerate(g_parts):
            pairs = (
                (g_x and _diff_even(fterm, "P", j), g_x, 1),
                (g_P and _diff_even(fterm, "x", j), g_P, -1),
                (g_v and _diff_odd(fterm, "p", j), g_v, odd_sign),
                (g_p and _diff_odd(fterm, "v", j), g_p, odd_sign),
            )
            for left, right, sign in pairs:
                if left:
                    _product_into(out, left, right, sign)
    return SuperPoly._of(dim, settle(out))


def eval_on_base(f: SuperPoly) -> SuperPoly:
    """Set P_j = 0 and v_j = 0: the projection onto functions of x and p."""
    terms = {
        key: coef
        for key, coef in f.terms.items()
        if not any(key[1]) and not key[3]
    }
    return SuperPoly(f.dim, terms)


def canonical_delta(dim: int) -> SuperPoly:
    """sum_i P_i v_i: degree 3, squares to zero under the bracket."""
    terms: dict[Key, Fraction] = {}
    for i in range(dim):
        P_exp = tuple(1 if j == i else 0 for j in range(dim))
        terms[((0,) * dim, P_exp, (), (i,))] = Fraction(1)
    return SuperPoly(dim, terms)


# -- dictionaries -------------------------------------------------------------------


def mv_to_super(u: PolyMultivector) -> SuperPoly:
    m, k = u.dims
    if k != 0:
        raise ValueError("the model embeds multivectors on a plain base R^m")
    terms: dict[Key, Fraction] = {}
    for (mono, wedge), coef in u.terms.items():
        terms[(tuple(mono), (0,) * m, tuple(wedge), ())] = coef
    return SuperPoly(m, terms)


def form_to_super(w: PolyForm) -> SuperPoly:
    m, k = w.dims
    if k != 0:
        raise ValueError("the model embeds forms on a plain base R^m")
    terms: dict[Key, Fraction] = {}
    for (mono, wedge), coef in w.terms.items():
        terms[(tuple(mono), (0,) * m, (), tuple(wedge))] = coef
    return SuperPoly(m, terms)


def super_to_mv(f: SuperPoly) -> PolyMultivector:
    terms = {}
    for (x_exp, P_exp, p_idx, v_idx), coef in f.terms.items():
        if any(P_exp) or v_idx:
            raise DictionaryError(f"not a multivector image: {f!r}")
        terms[(x_exp, p_idx)] = coef
    return PolyMultivector((f.dim, 0), terms)


def super_to_form(f: SuperPoly) -> PolyForm:
    terms = {}
    for (x_exp, P_exp, p_idx, v_idx), coef in f.terms.items():
        if any(P_exp) or p_idx:
            raise DictionaryError(f"not a form image: {f!r}")
        terms[(x_exp, v_idx)] = coef
    return PolyForm((f.dim, 0), terms)


def in_base_image(f: SuperPoly) -> bool:
    return all(not any(k[1]) and not k[3] for k in f.terms)


def in_form_image(f: SuperPoly) -> bool:
    """Image of the degree >= 1 forms: no P, no p, at least one v per term."""
    return all(not any(k[1]) and not k[2] and len(k[3]) >= 1 for k in f.terms)


# -- the model as a quadruple --------------------------------------------------------


def _filtration_degree(f: SuperPoly) -> int:
    """#p + (P-degree) - 1, minimized over terms (large on the zero element)."""
    if f.is_zero():
        return 2**30
    return min(len(p_idx) + sum(P_exp) for (_, P_exp, p_idx, _v) in f.terms) - 1


def _depth(f: SuperPoly) -> int:
    """P-degree + number of v's, maximized over terms (0 on the zero element)."""
    return max((sum(P_exp) + len(v_idx) for (_, P_exp, _p, v_idx) in f.terms), default=0)


def standard_courant_vdata(dim: int) -> VData:
    """Quadruple (C(model)[2], multivector image, eval_on_base, sum P_i v_i).

    Depth (:func:`_depth`): subalgebra elements are polynomials in x and p
    alone.  The bracket is a biderivation whose only nonzero letter pairings
    are {P_j, x_k} and {p_j, v_k}, so each term of {f, g} with g in the
    subalgebra consumes exactly one P or one v of f and adds none.  Each
    insertion lowers mu = P-degree + #v by one, and a chain of more than
    max mu insertions vanishes (Roytenberg, math/0203110).  On
    Delta = sum P_i v_i, mu = 2.
    """
    delta = canonical_delta(dim)
    zero = SuperPoly.zero(dim)

    def components(f: SuperPoly) -> list[tuple[int, SuperPoly]]:
        return [(d - 2, part) for d, part in f.components()]

    sample = _sample_monomials(dim)
    a_basis = tuple(s for s in sample if in_base_image(s) and not s.is_zero())

    return VData(
        bracket=super_bracket,
        components=components,
        project=eval_on_base,
        delta=delta,
        zero=zero,
        in_a=in_base_image,
        sample_basis=tuple(sample),
        a_basis=a_basis,
        filtration=_filtration_degree,
        depth=_depth,
        name=f"standard-courant-R{dim}",
    )


def _sample_monomials(dim: int) -> list[SuperPoly]:
    """A small validation sample: all letters, plus quadratic combinations."""
    out = []
    gens = []
    for j in range(dim):
        gens.append(SuperPoly.monomial(dim, 1, x=tuple(1 if i == j else 0 for i in range(dim))))
        gens.append(SuperPoly.monomial(dim, 1, P=tuple(1 if i == j else 0 for i in range(dim))))
        gens.append(SuperPoly.monomial(dim, 1, p=(j,)))
        gens.append(SuperPoly.monomial(dim, 1, v=(j,)))
    out.extend(gens)
    for a, b in itertools.combinations(gens, 2):
        prod = a.product(b)
        if not prod.is_zero():
            out.append(prod)
    return out


_ORACLE_CACHE: dict[int, LInftyOne] = {}


def oracle_linfty(dim: int) -> LInftyOne:
    """The big derived-bracket algebra of the model, restricted to
    (forms of degree >= 1)[1] (+) multivectors.  Cached per dimension."""
    cached = _ORACLE_CACHE.get(dim)
    if cached is not None:
        return cached
    v = standard_courant_vdata(dim)
    big = big_algebra(v)
    basis = []
    for r in range(1, min(dim, 2) + 1):
        for v_idx in itertools.combinations(range(dim), r):
            basis.append(SuperPoly.monomial(dim, 1, v=v_idx))
            for j in range(dim):
                x = tuple(1 if i == j else 0 for i in range(dim))
                basis.append(SuperPoly.monomial(dim, 1, x=x, v=v_idx))
    algebra = restrict(v, big, in_form_image, basis)
    _ORACLE_CACHE[dim] = algebra
    return algebra


def oracle_bracket(dim: int, args: list) -> tuple[PolyForm, PolyMultivector]:
    """Evaluate a multibracket on a mixed tuple of forms / multivectors inside
    the model and translate the value back.

    Returns the pair (form component, multivector component)."""
    algebra = oracle_linfty(dim)
    zero = SuperPoly.zero(dim)
    pairs = []
    for arg in args:
        if isinstance(arg, PolyForm):
            image = form_to_super(arg)
            if not in_form_image(image):
                raise ValueError("oracle forms must have degree >= 1")
            pairs.append(BigElt(image, zero))
        elif isinstance(arg, PolyMultivector):
            pairs.append(BigElt(zero, mv_to_super(arg)))
        else:
            raise TypeError(f"oracle arguments are forms or multivectors, got {type(arg)}")
    value = algebra.m(len(pairs), tuple(pairs))
    return super_to_form(value.x), super_to_mv(value.a)
