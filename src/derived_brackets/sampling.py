"""Seeded random generators and the shipped test fixtures.

Randomness is always driven by ``random.Random(seed)`` so that every suite is
reproducible; coefficients are small integers (default -3..3) and polynomial
degrees are capped by the run configuration.

The draw contract: a generator collects each element's (coef, mono, wedge)
triples in draw order and builds the element with one ``from_terms`` call,
which validates them.  :func:`random_terms` is the one loop that draws a
wedge and then a random polynomial on it.  The suites and the benchmark's
workloads call these generators, so their signatures, defaults and the
order of their ``rng`` calls stay fixed; ``tests/fingerprint.py`` pins the
draws.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .gla import StructureGLA, table_vdata
from .graded import GradedSpace, HomElt
from .polygeo import PolyForm, PolyMultivector, fiber_translate, mv, schouten, unit_mono
from .tpois import TPoisElement
from .vdata import BigElt, VData


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    samples: int = 25
    max_arity: int = 4
    max_poly_degree: int = 2

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= self.max_arity <= 4:
            raise ValueError(f"max_arity must be between 1 and 4, got {self.max_arity}")
        if not 0 <= self.max_poly_degree <= 6:
            raise ValueError(
                f"max_poly_degree (--max-degree) must be between 0 and 6, "
                f"got {self.max_poly_degree}"
            )


def _coef(rng: random.Random) -> int:
    return rng.randint(-3, 3)


def _nonzero_coef(rng: random.Random) -> int:
    c = 0
    while c == 0:
        c = _coef(rng)
    return c


# -- the nilpotent structure-constant fixture -----------------------------------------
#
# Basis: a, c in degree 0 and b in degree 1 span the abelian part; u, v in
# degree 1 and w in degree 2 span the kernel of the projection.  Brackets:
#
#   [u, a] = v + b      [u, c] = 2(v + b)     [v, a] = b     [v, c] = 2b
#   [u, v] = w          [u, b] = -w           [v, v] = w
#
# ([u, b] and [v, v] are forced by the graded Jacobi identity once the first
# row is chosen.)  Every adjoint chain of length 3 dies, the quadruple with
# Delta = u validates, and the filtration a, c -> 1, b, w -> 2, u -> 0, v -> 1
# is complete with F^3 = 0.
#
# For Phi = t a + s c the small-algebra Maurer-Cartan residual works out to
# (r + r^2/2) b with r := t + 2s, so the Maurer-Cartan set has the two exact
# branches r = 0 and r = -2.


# One space for the algebra and every fixture draw (a GradedSpace is frozen,
# so sharing it is safe and spares each element a copy of its own).
_FIXTURE_SPACE = GradedSpace.of(
    [("a", 0), ("c", 0), ("b", 1), ("u", 1), ("v", 1), ("w", 2)]
)


def fixture_gla() -> StructureGLA:
    space = _FIXTURE_SPACE
    table = {
        ("u", "a"): space.element({"v": 1, "b": 1}),
        ("u", "c"): space.element({"v": 2, "b": 2}),
        ("v", "a"): space.gen("b"),
        ("v", "c"): space.gen("b", 2),
        ("u", "v"): space.gen("w"),
        # odd-odd symmetry gives [u, b] = [b, u] = -w
        ("b", "u"): space.gen("w", -1),
        ("v", "v"): space.gen("w"),
    }
    return StructureGLA(space, table)


_FIXTURE_A = ("a", "c", "b")
_FIXTURE_FDEG = {"a": 1, "c": 1, "b": 2, "u": 0, "v": 1, "w": 2}


def fixture_vdata() -> VData:
    """The fixture quadruple with Delta = u.  Depth: the filtration above puts
    a, c, b in F^1 and F^3 = 0, so a chain from x dies after 2 - fdeg(x)
    insertions (:func:`~derived_brackets.gla.basis_filtration`); Delta attains
    2, as [[u, a], a] = b."""
    algebra = fixture_gla()
    space = algebra.space

    def project(x: HomElt) -> HomElt:
        return HomElt._of(space, {n: cf for n, cf in x.terms.items() if n in _FIXTURE_A})

    return table_vdata(algebra, _FIXTURE_A, space.gen("u"), project, _FIXTURE_FDEG,
                       "nilpotent-fixture")


def random_fixture_element(rng: random.Random, degree: int) -> HomElt:
    space = _FIXTURE_SPACE
    names = [n for n, d in space.basis if d == degree]
    return space.element({n: _coef(rng) for n in names})


def random_fixture_a_element(rng: random.Random, degree: int = 0) -> HomElt:
    space = _FIXTURE_SPACE
    names = [n for n in _FIXTURE_A if space.degree_of(n) == degree]
    return space.element({n: _coef(rng) for n in names})


def random_fixture_pair(rng: random.Random, degree: int) -> BigElt:
    """Homogeneous element of L[1] (+) a of the given shifted degree."""
    return BigElt(random_fixture_element(rng, degree + 1), random_fixture_a_element(rng, degree))


def fixture_mc_small(rng: random.Random) -> HomElt:
    """Engineered Maurer-Cartan element t a + s c of the fixture small algebra:
    the residual is (r + r^2/2) b with r = t + 2s, so s = (r - t)/2 on either
    branch r = 0 or r = -2."""
    space = _FIXTURE_SPACE
    t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    r = Fraction(rng.choice([0, -2]))
    s = (r - t) / 2
    return space.element({"a": t, "c": s})


def fixture_mc_big(rng: random.Random) -> BigElt:
    """Engineered Maurer-Cartan element (Delta'[1], Phi') of the fixture big
    algebra.  With Delta' = alpha u + beta v + gamma b, requiring

        [u + Delta', u + Delta'] = [beta^2 + 2(1+alpha)(beta - gamma)] w = 0

    fixes gamma, and the exponential residual then factors with discriminant
    (1+alpha)^2, giving the exact branches r = -beta/(1+alpha) and
    r = -2 - beta/(1+alpha) for r = t + 2s."""
    space = _FIXTURE_SPACE
    alpha = Fraction(rng.randint(-3, 3))
    while alpha == -1:
        alpha = Fraction(rng.randint(-3, 3))
    beta = Fraction(rng.randint(-2, 2))
    gamma = (beta * beta + 2 * (1 + alpha) * beta) / (2 * (1 + alpha))
    r = -beta / (1 + alpha)
    if rng.randrange(2):
        r = r - 2
    t = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    s = (r - t) / 2
    dtilde = space.element({"u": alpha, "v": beta, "b": gamma})
    ptilde = space.element({"a": t, "c": s})
    return BigElt(dtilde, ptilde)


# -- polynomial samples ----------------------------------------------------------------


def random_base_poly(rng: random.Random, dims, degree: int, fiber_degree: int = 0):
    """Random polynomial (mono dict) in the base variables, optionally with
    fiber variables up to the given degree."""
    m, k = dims
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * (m + k)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(m)] += 1
        for _ in range(rng.randint(0, fiber_degree)):
            if k:
                mono[m + rng.randrange(k)] += 1
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + _coef(rng)
    return {mn: c for mn, c in terms.items() if c != 0}


def _on(wedge, poly: dict) -> list:
    """The (coef, mono, wedge) triples of the polynomial ``poly`` on ``wedge``."""
    return [(coef, mono, wedge) for mono, coef in poly.items()]


def random_terms(rng: random.Random, dims, wedges: list, rounds: int, degree: int,
                 fiber_degree: int = 0) -> list:
    """The triples of ``rounds`` draws, each a wedge chosen from ``wedges``
    and then a :func:`random_base_poly` on it, in draw order."""
    terms = []
    for _ in range(rounds):
        terms += _on(rng.choice(wedges), random_base_poly(rng, dims, degree, fiber_degree))
    return terms


def random_multivector(rng: random.Random, dims, arity: int, degree: int) -> PolyMultivector:
    """Random arity-vector field whose coefficients have base and fiber
    degree up to ``degree`` each."""
    m, k = dims
    wedges = list(itertools.combinations(range(m + k), arity))
    rounds = rng.randint(1, 3)
    return PolyMultivector.from_terms(
        dims, random_terms(rng, dims, wedges, rounds, degree, degree if k else 0))


def random_form(rng: random.Random, dims, q: int, degree: int) -> PolyForm:
    m, k = dims
    wedges = list(itertools.combinations(range(m + k), q))
    if not wedges:
        return PolyForm.zero(dims)
    rounds = rng.randint(1, 3)
    return PolyForm.from_terms(dims, random_terms(rng, dims, wedges, rounds, degree))


def random_tpois_element(rng: random.Random, m: int, degree_w: int, poly_degree: int) -> TPoisElement:
    """Homogeneous element of the twisted-Poisson carrier of shifted degree."""
    dims = (m, 0)
    q = degree_w + 3
    s = degree_w + 2
    f = random_form(rng, dims, q, poly_degree) if 1 <= q <= m else PolyForm.zero(dims)
    u = random_multivector(rng, dims, s, poly_degree) if 0 <= s <= m else PolyMultivector.zero(dims)
    return TPoisElement(f, u)


# -- coisotropic samples ----------------------------------------------------------------


def random_vertical_section(rng: random.Random, dims, degree: int) -> PolyMultivector:
    """Element of Gamma(nu C): vertical legs, base-only coefficients."""
    m, k = dims
    return PolyMultivector.from_terms(
        dims, [t for j in range(k) for t in _on((m + j,), random_base_poly(rng, dims, degree))])


def random_coiso_poisson(rng: random.Random, dims, degree: int,
                         require_flat: bool = False) -> PolyMultivector:
    """A fiberwise polynomial Poisson bivector on R^m x R^k.

    Families: h(x,p) d_i ^ d_j (single-wedge bivectors are always Poisson),
    and X ^ h(x)(c1 dp1 + .. ) with X a coordinate base field (integrable
    span).  With ``require_flat`` the zero section stays coisotropic
    (projection of the bivector vanishes)."""
    m, k = dims
    choice = rng.randrange(2) if not require_flat else 0
    if choice == 0 and m >= 1:
        # base-leg wedge vertical combination: projection dies on the base leg
        base_leg = rng.randrange(m)
        vert = [_coef(rng) for _ in range(k)]
        if not any(vert):
            vert[rng.randrange(k)] = 1
        poly = random_base_poly(rng, dims, degree)
        terms = [(coef * cj, mono, (base_leg, m + j))
                 for mono, coef in poly.items() for j, cj in enumerate(vert) if cj]
    else:
        # single-wedge vertical bivector: curved unless the coefficient dies on C
        poly = random_base_poly(rng, dims, degree, fiber_degree=degree)
        legs = tuple(sorted(rng.sample(range(m, m + k), 2))) if k >= 2 else (m - 1, m)
        terms = _on(legs, poly)
    pi = PolyMultivector.from_terms(dims, terms)
    assert schouten(pi, pi).is_zero()
    return pi


def engineered_coiso_mc(rng: random.Random, base: PolyMultivector,
                        degree: int) -> tuple[PolyMultivector, PolyMultivector]:
    """A deformation pair (pi_tilde, phi_tilde) that is exactly Maurer-Cartan
    for the coisotropic quadruple of ``base``: transport a flat Poisson
    bivector backwards along the fiber translation of phi_tilde."""
    dims = base.dims
    rho = random_coiso_poisson(rng, dims, degree, require_flat=True)
    phi = random_vertical_section(rng, dims, degree)
    moved = fiber_translate(rho, phi.scale(-1))
    return moved - base, phi


# -- twisted-Poisson samples ---------------------------------------------------------


def random_twisted_pair(rng: random.Random, m: int, degree: int,
                        flavor: str = "mixed") -> tuple[PolyForm, PolyMultivector]:
    """(3-form, bivector) samples.

    flavor "positive": guaranteed Maurer-Cartan (single-wedge bivector has
    rank <= 2 and zero self-bracket; on R^3 every 3-form is closed).
    flavor "negative": perturbed so that the pair generically fails.
    flavor "mixed": either, at random."""
    dims = (m, 0)
    if flavor == "mixed":
        flavor = "positive" if rng.randrange(2) == 0 else "negative"
    h = random_form(rng, dims, 3, degree)
    legs = tuple(sorted(rng.sample(range(m), 2))) if m >= 2 else (0, 0)
    terms = _on(legs, random_base_poly(rng, dims, degree))
    if flavor == "negative":
        other = tuple(sorted(rng.sample(range(m), 2)))
        terms.append((_nonzero_coef(rng),
                      tuple(1 if i == rng.randrange(m) else 0 for i in range(m)), other))
    return h, PolyMultivector.from_terms(dims, terms)


def _constant_field(rng: random.Random, dims, legs) -> PolyMultivector:
    """The vector field with a drawn constant coefficient on each leg."""
    one = unit_mono(dims)
    return PolyMultivector.from_terms(dims, [(_coef(rng), one, (i,)) for i in legs])


def random_gauge_direction(rng: random.Random, m: int, degree: int,
                           constant_field: bool = True) -> tuple[PolyForm, PolyMultivector]:
    """(2-form, vector field) of shifted degree -1."""
    dims = (m, 0)
    b = random_form(rng, dims, 2, degree)
    if constant_field:
        x = _constant_field(rng, dims, range(m))
    else:
        x = random_multivector(rng, dims, 1, 1)
    return b, x


def gauge_safe_data(
    rng: random.Random, m: int, degree: int, constant_field: bool = True,
    allow_constant_shear: bool = True,
) -> tuple[PolyForm, PolyMultivector, PolyForm, PolyMultivector]:
    """(H, pi, B, X) meant as a Maurer-Cartan pair (H, pi) with every graph
    transform along the gauge/flow construction staying inside the
    polynomial category.

    pi = f(x) d_1 ^ d_2 has rank <= 2, so only the dx1^dx2 component of the
    transported 2-form enters the determinant: choosing X in span(d_1, d_2)
    and B without a spatially varying dx1^dx2 part keeps it constant.

    H is a random 3-form, closed for m <= 3 only: from m = 4 on, dH = 0
    fails on many draws, and (H, pi) is then not Maurer-Cartan (ROADMAP,
    Known defects and item 9)."""
    dims = (m, 0)
    legs = (0, 1)
    f_const = rng.randrange(2) == 0
    if f_const:
        pi = mv(dims, _nonzero_coef(rng), None, legs)
    else:
        pi = PolyMultivector.from_terms(dims, _on(legs, random_base_poly(rng, dims, degree)))
        if pi.is_zero():
            pi = mv(dims, 1, None, legs)
    h = random_form(rng, dims, 3, degree) if m >= 3 else PolyForm.zero(dims)
    b_terms = [t for other in itertools.combinations(range(m), 2) if other != legs
               for t in _on(other, random_base_poly(rng, dims, degree))]
    if f_const and allow_constant_shear and rng.randrange(2):
        b_terms.append((_coef(rng), unit_mono(dims), legs))
    x = _constant_field(rng, dims, legs) if constant_field else PolyMultivector.zero(dims)
    return h, pi, PolyForm.from_terms(dims, b_terms), x
