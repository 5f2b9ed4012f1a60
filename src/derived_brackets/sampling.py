"""Seeded random generators and the shipped test fixtures.

Randomness is always driven by ``random.Random(seed)`` so that every suite is
reproducible; coefficients are small integers (default -3..3) and polynomial
degrees are capped by the run configuration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .gla import StructureGLA
from .graded import GradedSpace, HomElt
from .linfty import Filtration
from .polygeo import (
    PolyForm,
    PolyMultivector,
    coiso_vdata,
    fiber_translate,
    form,
    mv,
    schouten,
    unit_mono,
)
from .tpois import TPoisElement
from .vdata import BigElt, VData


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    samples: int = 25
    max_arity: int = 4
    max_poly_degree: int = 2
    output: str = "text"

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_arity > 6:
            raise ValueError("max_arity is capped at 6")
        if self.max_poly_degree > 6:
            raise ValueError("max_poly_degree is capped at 6")


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3))


def _nonzero_coef(rng: random.Random) -> Fraction:
    c = Fraction(0)
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


def fixture_gla() -> StructureGLA:
    space = GradedSpace.of(
        [("a", 0), ("c", 0), ("b", 1), ("u", 1), ("v", 1), ("w", 2)]
    )
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


_FIXTURE_FDEG = {"a": 1, "c": 1, "b": 2, "u": 0, "v": 1, "w": 2}


def fixture_vdata() -> VData:
    algebra = fixture_gla()
    space = algebra.space
    a_names = ("a", "c", "b")

    def project(x: HomElt) -> HomElt:
        return HomElt(space, {n: cf for n, cf in x.terms.items() if n in a_names})

    def fdeg(x: HomElt) -> int:
        if x.is_zero():
            return 2**30
        return min(_FIXTURE_FDEG[n] for n in x.terms)

    filtration = Filtration(degree=fdeg, series_bound=lambda phi: 6)

    return VData(
        bracket=algebra.bracket,
        degree=lambda x: x.degree(),
        components=lambda x: x.components(),
        project=project,
        delta=space.gen("u"),
        zero=space.zero(),
        in_a=lambda x: all(n in a_names for n in x.terms),
        sample_basis=tuple(algebra.basis_elements()),
        a_basis=tuple(space.gen(n) for n in a_names),
        curved=False,
        filtration=filtration,
        series_bound=lambda phi: 6,
        max_arity=3,
        name="nilpotent-fixture",
    )


def fixture_algebra() -> StructureGLA:
    return fixture_gla()


def random_fixture_element(rng: random.Random, degree: int) -> HomElt:
    space = fixture_gla().space
    names = [n for n, d in space.basis if d == degree]
    return space.element({n: _coef(rng) for n in names})


def random_fixture_a_element(rng: random.Random, degree: int = 0) -> HomElt:
    space = fixture_gla().space
    names = [n for n in ("a", "c", "b") if space.degree_of(n) == degree]
    return space.element({n: _coef(rng) for n in names})


def random_fixture_pair(rng: random.Random, degree: int) -> BigElt:
    """Homogeneous element of L[1] (+) a of the given shifted degree."""
    space = fixture_gla().space
    x_names = [n for n, d in space.basis if d == degree + 1]
    a_names = [n for n in ("a", "c", "b") if space.degree_of(n) == degree]
    x = space.element({n: _coef(rng) for n in x_names})
    a = space.element({n: _coef(rng) for n in a_names})
    return BigElt(x, a)


def fixture_mc_small(rng: random.Random) -> HomElt:
    """Engineered Maurer-Cartan element t a + s c of the fixture small algebra:
    the residual is (r + r^2/2) b with r = t + 2s, so s = (r - t)/2 on either
    branch r = 0 or r = -2."""
    space = fixture_gla().space
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
    space = fixture_gla().space
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
        terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + _coef(rng)
    return {mn: c for mn, c in terms.items() if c != 0}


def random_multivector(
    rng: random.Random, dims, arity: int, degree: int, fiber_degree: int | None = None
) -> PolyMultivector:
    m, k = dims
    if fiber_degree is None:
        fiber_degree = degree if k else 0
    total = PolyMultivector.zero(dims)
    directions = list(itertools.combinations(range(m + k), arity))
    for _ in range(rng.randint(1, 3)):
        wedge = rng.choice(directions)
        poly = random_base_poly(rng, dims, degree, fiber_degree)
        for mono, coef in poly.items():
            total = total + mv(dims, coef, mono, wedge)
    return total


def random_form(rng: random.Random, dims, q: int, degree: int) -> PolyForm:
    m, k = dims
    total = PolyForm.zero(dims)
    directions = list(itertools.combinations(range(m + k), q))
    if not directions:
        return total
    for _ in range(rng.randint(1, 3)):
        wedge = rng.choice(directions)
        poly = random_base_poly(rng, dims, degree)
        for mono, coef in poly.items():
            total = total + form(dims, coef, mono, wedge)
    return total


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
    total = PolyMultivector.zero(dims)
    for j in range(k):
        poly = random_base_poly(rng, dims, degree)
        for mono, coef in poly.items():
            total = total + mv(dims, coef, mono, (m + j,))
    return total


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
        vert = [Fraction(0)] * k
        for j in range(k):
            vert[j] = _coef(rng)
        if all(c == 0 for c in vert):
            vert[rng.randrange(k)] = Fraction(1)
        poly = random_base_poly(rng, dims, degree)
        total = PolyMultivector.zero(dims)
        for mono, coef in poly.items():
            for j, cj in enumerate(vert):
                if cj != 0:
                    total = total + mv(dims, coef * cj, mono, tuple(sorted((base_leg, m + j))))
        pi = total
    else:
        # single-wedge vertical bivector: curved unless the coefficient dies on C
        poly = random_base_poly(rng, dims, degree, fiber_degree=degree)
        legs = tuple(sorted(rng.sample(range(m, m + k), 2))) if k >= 2 else (m - 1, m)
        pi = PolyMultivector.zero(dims)
        for mono, coef in poly.items():
            pi = pi + mv(dims, coef, mono, legs)
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
    poly = random_base_poly(rng, dims, degree)
    pi = PolyMultivector.zero(dims)
    for mono, coef in poly.items():
        pi = pi + mv(dims, coef, mono, legs)
    if flavor == "negative":
        other = tuple(sorted(rng.sample(range(m), 2)))
        pi = pi + mv(dims, _nonzero_coef(rng),
                     tuple(1 if i == rng.randrange(m) else 0 for i in range(m)), other)
    return h, pi


def random_gauge_direction(rng: random.Random, m: int, degree: int,
                           constant_field: bool = True) -> tuple[PolyForm, PolyMultivector]:
    """(2-form, vector field) of shifted degree -1."""
    dims = (m, 0)
    b = random_form(rng, dims, 2, degree)
    if constant_field:
        x = PolyMultivector.zero(dims)
        for i in range(m):
            x = x + mv(dims, _coef(rng), None, (i,))
    else:
        x = random_multivector(rng, dims, 1, 1)
    return b, x


def gauge_safe_data(
    rng: random.Random, m: int, degree: int, constant_field: bool = True,
    allow_constant_shear: bool = True,
) -> tuple[PolyForm, PolyMultivector, PolyForm, PolyMultivector]:
    """(H, pi, B, X) with (H, pi) Maurer-Cartan and every graph transform along
    the gauge/flow construction staying inside the polynomial category.

    pi = f(x) d_1 ^ d_2 has rank <= 2, so only the dx1^dx2 component of the
    transported 2-form enters the determinant: choosing X in span(d_1, d_2)
    and B without a spatially varying dx1^dx2 part keeps it constant."""
    dims = (m, 0)
    legs = (0, 1)
    f_const = rng.randrange(2) == 0
    if f_const:
        pi = mv(dims, _nonzero_coef(rng), None, legs)
    else:
        pi = PolyMultivector.zero(dims)
        for mono, coef in random_base_poly(rng, dims, degree).items():
            pi = pi + mv(dims, coef, mono, legs)
        if pi.is_zero():
            pi = mv(dims, 1, None, legs)
    h = random_form(rng, dims, 3, degree) if m >= 3 else PolyForm.zero(dims)
    b = PolyForm.zero(dims)
    for other in itertools.combinations(range(m), 2):
        if other == legs:
            continue
        for mono, coef in random_base_poly(rng, dims, degree).items():
            b = b + form(dims, coef, mono, other)
    if f_const and allow_constant_shear and rng.randrange(2):
        b = b + form(dims, _coef(rng), None, legs)
    x = PolyMultivector.zero(dims)
    if constant_field:
        for i in legs:
            x = x + mv(dims, _coef(rng), None, (i,))
    return h, pi, b, x
