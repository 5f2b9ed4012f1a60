"""Polynomial Cartan calculus on R^m and on trivial bundles R^m x R^k.

Multivector fields and differential forms with exact rational polynomial
coefficients, the Schouten bracket, the de Rham differential, contraction
operators, the fiberwise polynomial degree, and the coisotropic quadruple
for a submanifold C = {p = 0}.  Also the ring of polynomials in a time t
with spatial-polynomial coefficients (``Curve``) and the one routine that
substitutes Curve images for the coordinates and the wedge legs of a curve of
forms or multivectors (``transport``): the affine maps and flows of tpois and
the fiber translation here all run through it.

Conventions (all downstream signs derive from these):
  * Schouten bracket: [X, f] = X(f) for a vector field X and function f,
    [X, Y] is the Lie bracket of vector fields, extension by the graded
    Leibniz rule; multivectors of arity s are graded by s - 1.
  * Contractions act on the first wedge slot: i_xi (X ^ Y) = xi(X) Y - xi(Y) X,
    pi_sharp(xi) = i_xi(pi), and likewise B_flat(Y) = i_Y(B) for 2-forms.

Variables: x_1..x_m on the base, p_1..p_k on the fiber.  A monomial is the
tuple of m+k exponents.  Wedge factors are direction indices 0..m+k-1
(0..m-1 for the x-directions, m..m+k-1 for the p-directions).
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from operator import add

from .graded import (
    SparseCombination,
    as_fraction,
    inversion_parity,
    json_field,
    json_int,
    json_of,
    settle,
)

Mono = tuple[int, ...]
Wedge = tuple[int, ...]


class TermExplosionError(RuntimeError):
    pass


_term_cap: int | None = None


def _check_size(terms: dict) -> dict:
    """Cap the term count at DB_MAX_TERMS, which is read once per process, at
    the first check; a malformed value is an input error (ValueError)."""
    global _term_cap
    if _term_cap is None:
        raw = os.environ.get("DB_MAX_TERMS", "200000")
        try:
            _term_cap = int(raw)
        except ValueError:
            raise ValueError(f"DB_MAX_TERMS must be an integer, got {raw!r}") from None
    if len(terms) > _term_cap:
        raise TermExplosionError(
            f"term count {len(terms)} exceeds safety cap (set DB_MAX_TERMS to raise)"
        )
    return terms


# -- polynomials in t ---------------------------------------------------------------
#
# A Curve is a polynomial in the time t whose coefficients are spatial
# polynomials: dict[t_power -> dict[Mono -> exact scalar]], zero
# coefficients and vanishing powers dropped.  Static data is the t^0 case.
# The ring is the multiply-accumulate ``_mac`` with one settling pass
# (``_settled``); coordinate images and wedge legs of ``transport`` are Curves.

Curve = dict[int, dict[Mono, Fraction]]
Matrix = list[list[Curve]]  # a list of rows, {} for a zero entry


def _mac(acc: dict, a: Curve, b: Curve) -> dict:
    """acc += a b in place, on an unsettled accumulator of the Curve's shape:
    coefficients may be zero or integral Fractions until :func:`_settled`."""
    for pa, qa in a.items():
        for pb, qb in b.items():
            out = acc.setdefault(pa + pb, {})
            for ma, ca in qa.items():
                for mb, cb in qb.items():
                    mono = tuple(map(add, ma, mb))
                    out[mono] = out.get(mono, 0) + ca * cb
    return acc


def _settled(acc: dict) -> Curve:
    """The Curve of an accumulator: zeros dropped, integral coefficients as
    ints, each polynomial size-checked once."""
    out: Curve = {}
    for power, poly in acc.items():
        poly = _check_size(settle(poly))
        if poly:
            out[power] = poly
    return out


def _mul(a: Curve, b: Curve) -> Curve:
    return _settled(_mac({}, a, b))


def _neg(a: Curve) -> Curve:
    return {p: {mono: -c for mono, c in q.items()} for p, q in a.items()}


def transport(curve: dict, images: list[Curve], legs: Matrix) -> dict:
    """Carry a curve of forms or multivectors through a polynomial
    substitution: every coefficient f becomes f(images), the i-th variable
    replaced by the Curve ``images[i]``, and every leg e_i becomes
    sum_j legs[i][j] e_j.  Affine maps, their flows and fiber translations
    are all such substitutions.

    Within one call each monomial's image is built once, as the image with
    its last exponent lowered times that coordinate's image, and each wedge's
    choices of legs are expanded once; a term's coefficient and t-power scale
    and shift the product instead of entering it as a one-term curve, and
    unit legs multiply nothing."""
    if not curve:
        return {}
    n = len(legs)
    dims = next(iter(curve.values())).dims
    if sum(dims) != n or len(images) != n:
        raise ValueError("dimension mismatch")
    unit = (0,) * n
    one = {0: {unit: 1}}
    mono_images: dict[Mono, Curve] = {unit: one}
    expansions: dict[tuple, list] = {}

    def image_of(mono: Mono) -> Curve:
        # walk down to a monomial already built, then multiply back up: a
        # loop, not a recursion, so no exponent meets the recursion limit
        chain = []
        while mono not in mono_images:
            var = max(v for v, e in enumerate(mono) if e)
            lower = mono[:var] + (mono[var] - 1,) + mono[var + 1:]
            chain.append((mono, lower, images[var]))
            mono = lower
        value = mono_images[mono]
        for mono, lower, image in reversed(chain):
            value = mono_images[mono] = image if lower == unit else _mul(value, image)
        return value

    raw: dict[int, list] = {}
    for power, u in curve.items():
        if u.dims != dims:
            raise ValueError("dimension mismatch")
        kind = type(u)
        for (mono, wedge), coef in u.terms.items():
            value = image_of(mono)
            if wedge not in expansions:
                choices = [
                    [(j, entry) for j, entry in enumerate(legs[leg]) if entry] for leg in wedge
                ]
                # each choice of legs: the new wedge and the non-unit factors
                expansions[wedge] = [
                    (tuple(j for j, _ in choice), [e for _, e in choice if e != one])
                    for choice in itertools.product(*choices)
                ]
            for new_wedge, factors in expansions[wedge]:
                product = value
                for entry in factors:
                    product = _mul(product, entry)
                for p, poly in product.items():
                    raw.setdefault(p + power, []).extend(
                        (c * coef, mo, new_wedge) for mo, c in poly.items()
                    )
    moved = {p: kind._from_raw(dims, terms) for p, terms in raw.items()}
    return {p: e for p, e in moved.items() if not e.is_zero()}


def _sort_wedge(wedge: tuple[int, ...]) -> tuple[int, Wedge] | None:
    """Sort wedge indices, returning (sign, sorted) or None when repeated.
    Two legs, the common case, take one comparison."""
    if len(wedge) == 2:
        a, b = wedge
        if a == b:
            return None
        return (1, wedge) if a < b else (-1, (b, a))
    if len(set(wedge)) != len(wedge):
        return None
    return (-1 if inversion_parity(wedge) else 1), tuple(sorted(wedge))


class _WedgeElement(SparseCombination):
    """Polynomial-coefficient wedge of coordinate directions: the shared
    validation, trusted construction and term cap of multivectors and forms.
    A key is (monomial, ascending wedge); ``_leg`` prefixes a wedge leg's
    variable name in the ``repr``."""

    __slots__ = ()
    dims = SparseCombination.ambient
    _leg = ""

    def __init__(self, dims: tuple[int, int], terms: dict[tuple[Mono, Wedge], Fraction]):
        m, k = dims
        clean: dict[tuple[Mono, Wedge], Fraction] = {}
        for (mono, wedge), coef in terms.items():
            coef = as_fraction(coef)
            if coef == 0:
                continue
            if len(mono) != m + k:
                raise ValueError(f"monomial {mono} does not match dims {dims}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if list(wedge) != sorted(set(wedge)) or (wedge and not 0 <= wedge[0]) or (
                wedge and wedge[-1] >= m + k
            ):
                raise ValueError(f"wedge {wedge} not strictly increasing in range")
            clean[(mono, wedge)] = coef
        self.dims = (m, k)
        self.terms = _check_size(clean)

    # construction helpers ----------------------------------------------------

    @classmethod
    def _from_raw(cls, dims: tuple[int, int], raw) -> "_WedgeElement":
        """Collect (coef, mono, wedge) triples built from the keys of valid
        elements: each wedge is sorted with its sign, repeated legs and
        cancelled terms drop, and only the term count is checked."""
        acc: dict[tuple[Mono, Wedge], Fraction] = {}
        for coef, mono, wedge in raw:
            if len(wedge) > 1:
                normalized = _sort_wedge(wedge)
                if normalized is None:
                    continue
                sign, wedge = normalized
                if sign < 0:
                    coef = -coef
            key = (mono, wedge)
            acc[key] = acc.get(key, 0) + coef
        return cls._of(dims, _check_size(settle(acc)))

    @classmethod
    def zero(cls, dims):
        return cls(dims, {})

    @classmethod
    def from_terms(cls, dims, raw: list[tuple[object, Mono, Wedge]]):
        """Collect caller-supplied (coef, mono, wedge) triples, then validate."""
        collected = cls._from_raw(
            dims, [(as_fraction(c), tuple(mono), tuple(wedge)) for c, mono, wedge in raw]
        )
        return cls(dims, collected.terms)

    def __add__(self, other):
        total = super().__add__(other)
        _check_size(total.terms)
        return total

    def _key_body(self, key: tuple[Mono, Wedge]) -> str:
        mono, wedge = key
        names = _var_names(self.dims)
        factors = [names[v] if e == 1 else f"{names[v]}^{e}" for v, e in enumerate(mono) if e]
        factors.extend(self._leg + names[w] for w in wedge)
        return "^".join(factors) if factors else "1"

    def _parts_of_arity(self, arity: int) -> dict:
        return {key: c for key, c in self.terms.items() if len(key[1]) == arity}


class PolyMultivector(_WedgeElement):
    """Polynomial-coefficient multivector field; graded by arity - 1."""

    __slots__ = ()
    _leg = "@"
    _mismatch = "multivector ambient space mismatch"

    def _key_degree(self, key: tuple[Mono, Wedge]) -> int:
        return len(key[1]) - 1

    def arities(self) -> set[int]:
        return {len(w) for (_, w) in self.terms}

    def arity_part(self, arity: int) -> "PolyMultivector":
        return self._of(self.dims, self._parts_of_arity(arity))

    def pol_degree(self) -> int | None:
        """Fiberwise polynomial degree: per term, p-degree of the coefficient
        minus the number of fiber wedge legs; None on the zero field."""
        m, _ = self.dims
        best = None
        for (mono, wedge), _coef in self.terms.items():
            fiber_deg = sum(mono[m:])
            legs = sum(1 for w in wedge if w >= m)
            value = fiber_deg - legs
            best = value if best is None else max(best, value)
        return best


class PolyForm(_WedgeElement):
    """Polynomial-coefficient differential form; graded by form degree."""

    __slots__ = ()
    _leg = "d"
    _mismatch = "form ambient space mismatch"

    def _key_degree(self, key: tuple[Mono, Wedge]) -> int:
        return len(key[1])

    def form_degrees(self) -> set[int]:
        return {len(w) for (_, w) in self.terms}

    def degree_part(self, q: int) -> "PolyForm":
        return self._of(self.dims, self._parts_of_arity(q))


# -- constructors ---------------------------------------------------------------


def unit_mono(dims: tuple[int, int]) -> Mono:
    return (0,) * (dims[0] + dims[1])


def mv(dims, coef, mono=None, wedge=()) -> PolyMultivector:
    mono = unit_mono(dims) if mono is None else tuple(mono)
    return PolyMultivector.from_terms(dims, [(coef, mono, tuple(wedge))])


def form(dims, coef, mono=None, wedge=()) -> PolyForm:
    mono = unit_mono(dims) if mono is None else tuple(mono)
    return PolyForm.from_terms(dims, [(coef, mono, tuple(wedge))])


def coordinate_vector(dims, direction: int) -> PolyMultivector:
    return mv(dims, 1, None, (direction,))


def wedge(u: _WedgeElement, v: _WedgeElement) -> _WedgeElement:
    """The wedge product of two multivectors or of two forms."""
    u._check_ambient(v)
    raw = [
        (cu * cv, tuple(map(add, mu, mv_)), wu + wv)
        for (mu, wu), cu in u.terms.items()
        for (mv_, wv), cv in v.terms.items()
    ]
    return type(u)._from_raw(u.dims, raw)


# -- Schouten bracket -----------------------------------------------------------


def schouten(u: PolyMultivector, v: PolyMultivector) -> PolyMultivector:
    """Schouten bracket of polynomial multivector fields.

    For terms f*P (arity a) and g*Q (arity b) with constant coordinate wedges
    P = d_{w_1}^..^d_{w_a} and Q = d_{q_1}^..^d_{q_b}:

        [fP, gQ] = sum_i (-1)^{a-i} f (dg/dw_i) (P\\w_i)^Q
                 + (-1)^{a(b-1)} g sum_j (-1)^j (df/dq_j) (Q\\q_j)^P
    """
    u._check_ambient(v)
    raw: list[tuple[Fraction, Mono, Wedge]] = []
    for (fm, P), fc in u.terms.items():
        a = len(P)
        for (gm, Q), gc in v.terms.items():
            b = len(Q)
            fg = tuple(map(add, fm, gm))
            # d/dx_w of the monomial x^e is e x^(e - 1): lower the sum fg at w
            for i, w in enumerate(P, start=1):
                e = gm[w]
                if not e:
                    continue
                sign = e if (a - i) % 2 == 0 else -e
                mono = fg[:w] + (fg[w] - 1,) + fg[w + 1:]
                raw.append((fc * gc * sign, mono, P[:i - 1] + P[i:] + Q))
            outer = 1 if (a * (b - 1)) % 2 == 0 else -1
            for j, q in enumerate(Q, start=1):
                e = fm[q]
                if not e:
                    continue
                sign = outer * (e if j % 2 == 0 else -e)
                mono = fg[:q] + (fg[q] - 1,) + fg[q + 1:]
                raw.append((gc * fc * sign, mono, Q[:j - 1] + Q[j:] + P))
    return PolyMultivector._from_raw(u.dims, raw)


# -- de Rham, contractions --------------------------------------------------------


def de_rham(w: PolyForm) -> PolyForm:
    raw = [
        (coef * e, mono[:var] + (e - 1,) + mono[var + 1:], (var,) + wedge)
        for (mono, wedge), coef in w.terms.items()
        for var, e in enumerate(mono)
        if e
    ]
    return PolyForm._from_raw(w.dims, raw)


def _without_leg(u: _WedgeElement, leg: int) -> list:
    """Raw terms of i_{e_leg} u (first slot): the terms of u with leg ``leg``,
    which is removed with the sign of moving it to the front."""
    return [
        (-coef if pos % 2 else coef, mono, wedge[:pos] + wedge[pos + 1:])
        for (mono, wedge), coef in u.terms.items()
        for pos, at in enumerate(wedge)
        if at == leg
    ]


def _contract(legs: _WedgeElement, u: _WedgeElement) -> list:
    """Raw terms of sum f i_{e_leg} u over the terms f e_leg of ``legs``, a
    vector field or a 1-form."""
    return [
        (cl * coef, tuple(map(add, ml, mono)), wedge)
        for (ml, (leg,)), cl in legs.terms.items()
        for coef, mono, wedge in _without_leg(u, leg)
    ]


def contract_form(x: PolyMultivector, w: PolyForm) -> PolyForm:
    """Interior product i_X w of a vector field into a form (first slot)."""
    if x.dims != w.dims:
        raise ValueError("ambient space mismatch in contraction")
    if not x.is_zero() and x.arities() != {1}:
        raise ValueError("contract_form expects a vector field (arity 1)")
    return PolyForm._from_raw(w.dims, _contract(x, w))


def sharp(pi: PolyMultivector, xi: PolyForm) -> PolyMultivector:
    """pi_sharp(xi) = i_xi(pi), contraction of a 1-form in the first wedge slot.

    Identically zero on arity-0 multivectors.
    """
    if pi.dims != xi.dims:
        raise ValueError("ambient space mismatch in sharp")
    if not xi.is_zero() and xi.form_degrees() != {1}:
        raise ValueError("sharp expects a 1-form")
    return PolyMultivector._from_raw(pi.dims, _contract(xi, pi))


def multi_sharp(pis: list[PolyMultivector], w: PolyForm) -> PolyMultivector:
    """Antisymmetrized multi-contraction
    (pi_1^sharp ^ ... ^ pi_n^sharp)(xi_1^..^xi_n)
      = sum_{sigma in S_n} sign(sigma) pi_1^sharp(xi_sigma(1)) ^ ... ^ pi_n^sharp(xi_sigma(n)),
    extended bilinearly from decomposable forms.

    The terms of w are grouped by wedge dx_J: the signed sum over S_n is
    formed once per wedge from the contractions pi_i^sharp(dx_leg), each
    built once, and then multiplied by the polynomial coefficient of dx_J."""
    n = len(pis)
    if n == 0:
        raise ValueError("multi_sharp needs at least one multivector")
    dims = pis[0].dims
    for pi in pis:
        if pi.dims != dims:
            raise ValueError("ambient space mismatch in multi_sharp")
        if any(a < 1 for a in pi.arities()):
            raise ValueError("multi_sharp arguments must have arity >= 1")
    if w.dims != dims:
        raise ValueError("ambient space mismatch in multi_sharp")
    if not w.is_zero() and w.form_degrees() != {n}:
        raise ValueError(f"multi_sharp of {n} multivectors expects a {n}-form")
    by_wedge: dict[Wedge, dict[Mono, Fraction]] = {}
    for (mono, dx), coef in w.terms.items():
        by_wedge.setdefault(dx, {})[mono] = coef
    sharps: dict[tuple[int, int], PolyMultivector] = {}

    def sharp_of(i: int, leg: int) -> PolyMultivector:
        if (i, leg) not in sharps:
            sharps[i, leg] = PolyMultivector._from_raw(dims, _without_leg(pis[i], leg))
        return sharps[i, leg]

    acc: dict[tuple[Mono, Wedge], Fraction] = {}
    for dx, poly in by_wedge.items():
        contracted = PolyMultivector.zero(dims)
        for perm in itertools.permutations(dx):
            product = sharp_of(0, perm[0])
            for i in range(1, n):
                if product.is_zero():
                    break
                product = wedge(product, sharp_of(i, perm[i]))
            contracted = contracted - product if inversion_parity(perm) else contracted + product
        for (cmono, cwedge), ccoef in contracted.terms.items():
            for mono, coef in poly.items():
                key = (tuple(map(add, mono, cmono)), cwedge)
                acc[key] = acc.get(key, 0) + coef * ccoef
    return PolyMultivector._of(dims, _check_size(settle(acc)))


# -- coisotropic model C = {p = 0} in R^m x R^k ----------------------------------


def coiso_projection(u: PolyMultivector) -> PolyMultivector:
    """Restrict to C (set p = 0 in coefficients) and keep only terms whose
    wedge factors are all fiber directions."""
    m, k = u.dims
    terms = {}
    for (mono, wedge), coef in u.terms.items():
        if any(mono[m:]):
            continue
        if any(w < m for w in wedge):
            continue
        terms[(mono, wedge)] = coef
    return PolyMultivector(u.dims, terms)


def is_vertical_section(phi: PolyMultivector) -> bool:
    """True when phi is in Gamma(nu C): arity-1, fiber directions, base coefficients."""
    m, _ = phi.dims
    for (mono, wedge), _c in phi.terms.items():
        if len(wedge) != 1 or wedge[0] < m or any(mono[m:]):
            return False
    return True


def fiber_translate(u: PolyMultivector, phi: PolyMultivector) -> PolyMultivector:
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
    n = m + k
    one = {0: {unit_mono(u.dims): 1}}
    images = [{0: {tuple(int(t == v) for t in range(n)): 1}} for v in range(n)]
    legs: Matrix = [[one if j == i else {} for j in range(n)] for i in range(n)]
    for (mono, (leg,)), coef in phi.terms.items():
        images[leg][0][mono] = -coef
        for i in range(m):
            if mono[i]:
                lower = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                legs[i][leg].setdefault(0, {})[lower] = coef * mono[i]
    return transport({0: u}, images, legs).get(0, PolyMultivector.zero(u.dims))


# -- JSON element literals --------------------------------------------------------
#
# { "dims": {"base": m, "fiber": k},
#   "terms": [{"coef": int | "p/q" | [num, den],
#              "monomial": {"x1": e, .., "p1": e, ..},
#              "wedge": [1-based direction indices]}] }


def _var_names(dims: tuple[int, int]) -> list[str]:
    m, k = dims
    return [f"x{i+1}" for i in range(m)] + [f"p{j+1}" for j in range(k)]


def _element_from_json(cls, data: dict, where: str):
    """The element a polynomial literal lists; ``where`` names the literal in
    input errors (say, a file and a field)."""
    json_of(dict, data, where)
    dims_data = json_of(dict, json_field(data, where, "dims"), f"{where}: dims")
    dims = (
        json_int(json_field(dims_data, f"{where}: dims", "base"), f"{where}: dims.base"),
        json_int(dims_data.get("fiber", 0), f"{where}: dims.fiber"),
    )
    if min(dims) < 0:
        raise ValueError(f"{where}: dims must not be negative, got {dims}")
    names = _var_names(dims)
    index = {name: v for v, name in enumerate(names)}
    raw = []
    for k, item in enumerate(json_of(list, data.get("terms", []), f"{where}: terms"), 1):
        at = f"{where}, term {k}"
        item = json_of(dict, item, f"{at}: term")
        mono = [0] * len(index)
        for name, e in json_of(dict, item.get("monomial", {}), f"{at}: monomial").items():
            if name not in index:
                raise ValueError(f"{at}: unknown variable {name!r} for dims {dims}")
            mono[index[name]] = json_int(e, f"{at}: exponent of {name!r}")
            if e < 0:
                raise ValueError(f"{at}: exponent of {name!r} is negative, got {e}")
        wedge = []
        for w in json_of(list, item.get("wedge", []), f"{at}: wedge"):
            if not 1 <= json_int(w, f"{at}: wedge index") <= len(names):
                raise ValueError(f"{at}: wedge index {w} outside 1..{len(names)}")
            wedge.append(w - 1)
        try:
            coef = as_fraction(item.get("coef", 1))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{at}: {exc}") from None
        raw.append((coef, tuple(mono), tuple(wedge)))
    return cls.from_terms(dims, raw)


def mv_from_json(data: dict, where: str = "polynomial literal") -> PolyMultivector:
    return _element_from_json(PolyMultivector, data, where)


def form_from_json(data: dict, where: str = "polynomial literal") -> PolyForm:
    return _element_from_json(PolyForm, data, where)


def element_to_json(u: _WedgeElement) -> dict:
    m, k = u.dims
    var_names = _var_names(u.dims)
    terms = []
    for (mono, wedge), coef in sorted(u.terms.items()):
        monomial = {var_names[v]: e for v, e in enumerate(mono) if e}
        terms.append(
            {
                "coef": str(coef) if coef.denominator != 1 else coef.numerator,
                "monomial": monomial,
                "wedge": [w + 1 for w in wedge],
            }
        )
    return {"dims": {"base": m, "fiber": k}, "terms": terms}


# -- the coisotropic quadruple -------------------------------------------------------


def vertical_sample_basis(dims: tuple[int, int]) -> list[PolyMultivector]:
    """Fiberwise-constant vertical multivectors and bivectors with affine base
    coefficients."""
    m, k = dims
    out = []
    monos = [unit_mono(dims)]
    for i in range(m):
        monos.append(tuple(1 if t == i else 0 for t in range(m + k)))
    for arity in (1, 2):
        for wedge in itertools.combinations(range(m, m + k), arity):
            for mono in monos:
                out.append(mv(dims, 1, mono, wedge))
    return out


def multivector_sample_basis(dims: tuple[int, int]) -> list[PolyMultivector]:
    """A small spanning sample for validation: functions, vector fields and
    bivectors with affine coefficients."""
    m, k = dims
    out = []
    monos = [unit_mono(dims)]
    for var in range(m + k):
        monos.append(tuple(1 if t == var else 0 for t in range(m + k)))
    for arity in (0, 1, 2):
        for wedge in itertools.combinations(range(m + k), arity):
            for mono in monos:
                elt = mv(dims, 1, mono, wedge)
                if not elt.is_zero():
                    out.append(elt)
    return out


def _coiso_depth(u: PolyMultivector) -> int:
    """Depth of u in the coisotropic quadruple: the maximum over terms of
    (p-degree of the coefficient + number of base legs), which is
    pol + arity.  Proof in :func:`coiso_vdata`."""
    m = u.dims[0]
    return max(
        (sum(mono[m:]) + sum(1 for w in wedge if w < m) for mono, wedge in u.terms),
        default=0,
    )


def coiso_vdata(pi: PolyMultivector):
    """Quadruple for simultaneous deformations of a fiberwise polynomial
    Poisson bivector and of the zero section C = {p = 0}:

        (multivector fields[1], vertical constant multivectors[1],
         restrict-to-C-and-project, pi)

    Raises when [pi, pi] != 0 (the residual is attached to the error); curved
    exactly when the projection of pi survives, i.e. when C fails to be
    coisotropic.

    Depth (:func:`_coiso_depth`): a subalgebra element a = f(x) @p_J has only
    fiber legs and a p-free coefficient.  Each term of the Schouten bracket
    [u, a] of a term u = g @_I either lets a fiber leg of a differentiate g
    along some p_j, which lowers the p-degree by one and keeps the base legs,
    or lets a leg of u differentiate f, which needs a base leg (f is p-free)
    and uses it up at the same p-degree.  So mu = p-degree + base legs drops
    by exactly one per insertion, and a chain of more than max mu insertions
    vanishes (Cattaneo-Felder, math/0309180).  On a bivector mu = pol + 2,
    the bound of the small algebra's Maurer-Cartan series.
    """
    from .vdata import VData

    jacobiator = schouten(pi, pi)
    if not jacobiator.is_zero():
        raise ValueError(f"not a Poisson bivector; [pi, pi] = {jacobiator!r}")
    if not pi.is_zero() and pi.arities() != {2}:
        raise ValueError("the structure element must be a bivector")
    dims = pi.dims
    if dims[1] == 0:
        raise ValueError("the coisotropic model needs a positive fiber dimension")

    def fdeg(u: PolyMultivector) -> int:
        p = u.pol_degree()
        return 2**30 if p is None else -p

    return VData(
        bracket=schouten,
        components=PolyMultivector.components,
        project=coiso_projection,
        delta=pi,
        zero=PolyMultivector.zero(dims),
        in_a=lambda u: coiso_projection(u) == u,
        sample_basis=tuple(multivector_sample_basis(dims)),
        a_basis=tuple(vertical_sample_basis(dims)),
        filtration=fdeg,
        depth=_coiso_depth,
        name=f"coisotropic-R{dims[0]}xR{dims[1]}",
    )
