"""Seeded fingerprints of the library's outputs, section by section.

    python tests/fingerprint.py [SECTION ...]

Prints each section's lines under a ``## SECTION`` header.  A line names one
seeded object and gives its ``repr`` and the type of each coefficient in
sorted key order.  Term insertion order is not printed: nothing reads it,
because ``repr`` and JSON sort terms.  ``tests/test_fingerprint.py`` pins
one sha256 per section, so that a failure names the section.  A change that
means to alter an output updates the pin and says why.  Pytest does not
collect this file.

Sections:

- ``sampling``: every public generator of ``derived_brackets.sampling``,
  and the suites' coisotropic sampler, at seeds 0-2.  The dims and degrees
  are those the suites, the benchmark workloads and the tests use.  Each
  seed draws ``DRAWS`` objects from one ``random.Random(seed)``.  The line
  after them prints the next 32 random bits, so a changed number or order
  of ``rng`` calls shows even where the objects agree.
- ``geometry``: the e^B graph transform ``e_b_pi``, ``flow_curve`` (its
  numerator and denominator curves, ``ode_residual()`` and ``at(1/2)``) and
  the ``generator_match`` report, at seeds 0-2 and m = 3..6.  The inputs are
  ``gauge_safe_data`` draws, with and without constant shears, and constant
  bivectors pi on a support I with B meeting I on none, part or all of it,
  or making the determinant vanish or depend on x.  An error prints as its
  type and message.
- ``algebras``: the small and the big ``m`` at arities 1-4 on the fixture
  quadruple, a deformed fixture (P_phi for a small Maurer-Cartan phi),
  coisotropic (1,2) and (2,2) quadruples and the Courant model on R^2, at
  seeds 0-2.  Each arity takes
  independent draws, one element repeated in its leading slots, and
  inhomogeneous arguments (sums of draws of two degrees), repeated too.
- ``tpois``: ``tpois_bracket`` and ``oracle_bracket`` at m = 2, 3 on the
  same three kinds of argument tuples, and ``gauge_field`` of
  ``tpois_linfty(3)`` at (H, pi) in the direction (B, X), at seeds 0-2.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from derived_brackets import polygeo as P  # noqa: E402
from derived_brackets import qgeom as Q  # noqa: E402
from derived_brackets import sampling as S  # noqa: E402
from derived_brackets import tpois as T  # noqa: E402
from derived_brackets import vdata as V  # noqa: E402
from derived_brackets.graded import DirectSum, SparseCombination  # noqa: E402
from derived_brackets.linfty import gauge_field  # noqa: E402
from derived_brackets.polygeo import PolyForm, PolyMultivector, form, mv  # noqa: E402
from derived_brackets.suites import _coiso_a_sampler  # noqa: E402

SEEDS = (0, 1, 2)
DRAWS = 4


def describe(value) -> str:
    """``repr`` plus coefficient types of an element, a direct sum, a scalar,
    or a tuple or a dict (by sorted key, such as a curve in t) of them."""
    if isinstance(value, (int, Fraction)):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {describe(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(describe(v) for v in value) + ")"
    if isinstance(value, DirectSum):
        return f"{type(value).__name__}[{describe(value.first)} | {describe(value.second)}]"
    if isinstance(value, SparseCombination):
        types = " ".join(type(value.terms[key]).__name__ for key in sorted(value.terms))
        return f"{type(value).__name__}({value!r}) {{{types}}}"
    raise TypeError(f"no fingerprint for {type(value).__name__}")


def _base_poly(dims, degree, fiber_degree=0):
    """``random_base_poly`` as the function it defines.  The type of a raw
    dict value is the scalar test's concern, not this pin's."""
    def draw(rng):
        poly = S.random_base_poly(rng, dims, degree, fiber_degree)
        return PolyMultivector.from_terms(dims, [(c, mono, ()) for mono, c in poly.items()])
    return draw


def _engineered(dims, degree):
    def draw(rng):
        base = S.random_coiso_poisson(rng, dims, 2, require_flat=True)
        return (base,) + S.engineered_coiso_mc(rng, base, degree)
    return draw


def _sampling_draws():
    """(label, draw(rng)) for every generator setting of the section."""
    C12, C22 = (1, 2), (2, 2)
    yield from (
        (f"random_fixture_element(d={d})", lambda rng, d=d: S.random_fixture_element(rng, d))
        for d in (0, 1, 2)
    )
    yield from (
        (f"random_fixture_a_element(d={d})", lambda rng, d=d: S.random_fixture_a_element(rng, d))
        for d in (0, 1)
    )
    yield from (
        (f"random_fixture_pair(d={d})", lambda rng, d=d: S.random_fixture_pair(rng, d))
        for d in (-1, 0, 1)
    )
    yield "fixture_mc_small", S.fixture_mc_small
    yield "fixture_mc_big", S.fixture_mc_big
    for dims, degree, fiber in ((C12, 1, 0), (C12, 2, 0), (C12, 2, 2), ((2, 0), 2, 0),
                                ((3, 0), 2, 0), ((3, 0), 3, 0)):
        yield f"random_base_poly{dims, degree, fiber}", _base_poly(dims, degree, fiber)
    for dims, arities, degrees in ((C12, (0, 1, 2, 3), (1, 2)), (C22, (1, 2), (1,)),
                                   ((2, 0), (1, 2), (2,)), ((3, 0), (0, 1, 2, 3), (1, 2, 3))):
        for arity in arities:
            for degree in degrees:
                yield (f"random_multivector{dims, arity, degree}",
                       lambda rng, a=(dims, arity, degree): S.random_multivector(rng, *a))
    for dims, qs, degrees in (((2, 0), (0, 1, 2, 3), (2,)), ((3, 0), (0, 1, 2, 3, 4), (1, 2, 3)),
                              ((4, 0), (2, 3), (2,))):
        for q in qs:
            for degree in degrees:
                yield (f"random_form{dims, q, degree}",
                       lambda rng, a=(dims, q, degree): S.random_form(rng, *a))
    for m in (2, 3):
        for degree_w in (-2, -1, 0, 1):
            for poly_degree in (1, 2):
                yield (f"random_tpois_element{m, degree_w, poly_degree}",
                       lambda rng, a=(m, degree_w, poly_degree): S.random_tpois_element(rng, *a))
    for dims, degree in ((C12, 1), (C12, 2), (C22, 1)):
        yield (f"random_vertical_section{dims, degree}",
               lambda rng, a=(dims, degree): S.random_vertical_section(rng, *a))
    for dims in ((1, 1), C12, C22):
        for degree in (1, 2):
            for flat in (False, True):
                yield (f"random_coiso_poisson{dims, degree, flat}",
                       lambda rng, a=(dims, degree, flat): S.random_coiso_poisson(rng, *a))
    for dims in (C12, C22):
        yield f"engineered_coiso_mc{dims, 1}", _engineered(dims, 1)
    yield "random_twisted_pair(1, 1, 'positive')", lambda rng: S.random_twisted_pair(
        rng, 1, 1, "positive")
    for m in (2, 3, 4):
        for degree in (1, 2):
            for flavor in ("mixed", "positive", "negative"):
                yield (f"random_twisted_pair{m, degree, flavor}",
                       lambda rng, a=(m, degree, flavor): S.random_twisted_pair(rng, *a))
    for m in (3, 4):
        for constant in (True, False):
            yield (f"random_gauge_direction{m, 2, constant}",
                   lambda rng, a=(m, 2, constant): S.random_gauge_direction(rng, *a))
    for m in (2, 3, 4, 5, 6):
        for shear in (True, False):
            yield (f"gauge_safe_data{m, 2, True, shear}",
                   lambda rng, a=(m, 2, True, shear): S.gauge_safe_data(rng, *a))
    yield "gauge_safe_data(3, 1, False, True)", lambda rng: S.gauge_safe_data(rng, 3, 1, False)
    for degree in (1, 2):
        for arity in (None, 1, 2):
            yield (f"suites._coiso_a_sampler{C12, degree, arity}",
                   lambda rng, a=(C12, degree, arity): _coiso_a_sampler(rng, *a))


def section_sampling():
    for label, draw in _sampling_draws():
        for seed in SEEDS:
            rng = random.Random(seed)
            for i in range(DRAWS):
                yield f"{label} seed={seed} #{i}: {describe(draw(rng))}"
            yield f"{label} seed={seed} next: {rng.getrandbits(32)}"


GEOMETRY_DIMS = (3, 4, 5, 6)
OVERLAPS = ("empty", "part", "full", "singular", "spatial")


def _outcome(compute) -> str:
    try:
        return describe(compute())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _chain(rng, dims, legs, make, coefs=None):
    """Constant terms on the consecutive pairs of ``legs`` (at least two), so
    that every leg is on some term."""
    terms = [make(dims, coefs[k] if coefs else S._nonzero_coef(rng), None, pair)
             for k, pair in enumerate(zip(legs, legs[1:]))]
    return sum(terms[1:], terms[0])


def _overlap_data(rng, m, kind):
    """(H, pi, B, X) with H = 0, a constant pi on a support I of 2..m legs, X a
    constant field on one leg, and B of the given kind on I plus spatially
    varying terms with a leg off I.  On I, B is zero (``empty``), constant on
    a strict subset J of I when |I| > 2 (``part``), constant on all of I
    (``full``), or c^-1 dx_a^dx_b (``singular``) or x_k dx_a^dx_b
    (``spatial``) on the first pair c d_a^d_b of pi, so that the determinant
    (1 - c B_ab)^2 vanishes or depends on x."""
    dims = (m, 0)
    support = rng.sample(range(m), rng.randint(2, m))
    coefs = [S._nonzero_coef(rng) for _ in support[1:]]
    pi = _chain(rng, dims, support, mv, coefs)
    if kind == "part":
        b = _chain(rng, dims, support[:max(2, len(support) - 1)], form)
    elif kind == "full":
        b = _chain(rng, dims, support, form)
    elif kind == "singular":
        b = form(dims, Fraction(1, coefs[0]), None, tuple(support[:2]))
    elif kind == "spatial":
        mono = [0] * m
        mono[rng.randrange(m)] = 1
        b = form(dims, 1, mono, tuple(support[:2]))
    else:
        b = PolyForm.zero(dims)
    off = [pair for pair in itertools.combinations(range(m), 2) if not set(pair) <= set(support)]
    if off:
        b = b + PolyForm.from_terms(dims, S.random_terms(rng, dims, off, 2, 1))
    x = mv(dims, S._nonzero_coef(rng), None, (rng.randrange(m),))
    return PolyForm.zero(dims), pi, b, x


def _geometry_lines(h, pi, b, x):
    yield f"e_b_pi: {_outcome(lambda: T.e_b_pi(b, pi))}"
    try:
        curve = T.flow_curve(b, x, h, pi)
    except ValueError as exc:
        yield f"flow_curve: {type(exc).__name__}: {exc}"
    else:
        yield f"flow mv_numerator: {describe(curve.mv_numerator)}"
        yield f"flow denominator: {describe(curve.denominator)}"
        yield f"flow ode_residual: {describe(curve.ode_residual())}"
        yield f"flow at(1/2): {_outcome(lambda: curve.at(Fraction(1, 2)))}"
    try:
        report = T.generator_match(b, x, h, pi)
    except ValueError as exc:
        yield f"generator_match: {type(exc).__name__}: {exc}"
    else:
        yield (f"generator_match: {describe((report.gauge, report.generator))} "
               f"{report.symbolic_matches_closed_form} {report.identity_holds}")


def section_geometry():
    for seed in SEEDS:
        rng = random.Random(seed)
        for m in GEOMETRY_DIMS:
            draws = [(f"gauge_safe_data(shear={shear}) #{i}",
                      S.gauge_safe_data(rng, m, 2, allow_constant_shear=shear))
                     for shear in (True, False) for i in range(2)]
            draws += [(f"overlap {kind}", _overlap_data(rng, m, kind)) for kind in OVERLAPS]
            for label, data in draws:
                for line in _geometry_lines(*data):
                    yield f"m={m} seed={seed} {label} {line}"
        yield f"geometry seed={seed} next: {rng.getrandbits(32)}"


ARITIES = (1, 2, 3, 4)
SHAPES = 3  # argument tuples of each shape per arity


def _tuples(rng, n, draw, mixed):
    """(label, args) at arity n: independent draws, one draw repeated in the
    leading n - 1 slots (the same object), and an inhomogeneous argument
    ``mixed(rng, n)`` in the first slot and repeated in the second.  ``draw``
    and ``mixed`` take the arity, so that they can aim at its live
    patterns."""
    for i in range(SHAPES):
        yield f"independent #{i}", tuple(draw(rng, n) for _ in range(n))
        same = draw(rng, n)
        tail = tuple(draw(rng, n) for _ in range(min(n - 1, 1)))
        yield f"repeated #{i}", (same,) * max(n - 1, 1) + tail
        mix = mixed(rng, n)
        yield f"inhomogeneous #{i}", (mix,) * min(n, 2) + tuple(draw(rng, n) for _ in range(n - 2))


def _fixture_draws():
    def pair(rng, n):
        return S.random_fixture_pair(rng, rng.choice([-1, 0, 1]))

    def a_element(rng, n):
        return S.random_fixture_a_element(rng, rng.choice([0, 1]))

    def mixed_pair(rng, n):
        return S.random_fixture_pair(rng, -1) + S.random_fixture_pair(rng, 0)

    def mixed_a(rng, n):
        return S.random_fixture_a_element(rng, 0) + S.random_fixture_a_element(rng, 1)

    return (a_element, mixed_a), (pair, mixed_pair)


def _coiso_draws(dims):
    def a_element(rng, n):
        return _coiso_a_sampler(rng, dims, 2)

    def pair(rng, n):
        degree = rng.choice([-1, 0])
        x = S.random_multivector(rng, dims, degree + 2, 1)
        return V.BigElt(x, _coiso_a_sampler(rng, dims, 1, arity=degree + 1))

    def mixed_a(rng, n):
        return _coiso_a_sampler(rng, dims, 1, arity=1) + _coiso_a_sampler(rng, dims, 1, arity=2)

    def mixed_pair(rng, n):
        x = S.random_multivector(rng, dims, 1, 1) + S.random_multivector(rng, dims, 2, 1)
        return V.BigElt(x, mixed_a(rng, n))

    return (a_element, mixed_a), (pair, mixed_pair)


def _courant_draws(v):
    """Sums of two sample monomials, which are often inhomogeneous, scaled."""
    def combination(rng, basis):
        return sum(rng.sample(basis, 2), v.zero).scale(rng.randint(-3, 3) or 1)

    def a_element(rng, n):
        return combination(rng, v.a_basis)

    def pair(rng, n):
        return V.BigElt(combination(rng, v.sample_basis), a_element(rng, n))

    def mixed_a(rng, n):
        x, p = v.a_basis[0], v.a_basis[1]  # degrees 0 and 1
        return x.scale(rng.randint(1, 3)) + p.scale(rng.randint(1, 3))

    def mixed_pair(rng, n):
        return V.BigElt(combination(rng, v.sample_basis), mixed_a(rng, n))

    return (a_element, mixed_a), (pair, mixed_pair)


def _quadruples(rng):
    """(label, quadruple, small draws, big draws)."""
    v = S.fixture_vdata()
    fixture = _fixture_draws()
    yield ("fixture", v, *fixture)
    yield ("deformed fixture", V.deform_vdata(v, S.fixture_mc_small(rng)), *fixture)
    for dims in ((1, 2), (2, 2)):
        pi = S.random_coiso_poisson(rng, dims, 2, require_flat=True)
        yield (f"coiso{dims}", P.coiso_vdata(pi), *_coiso_draws(dims))
    courant = Q.standard_courant_vdata(2)
    yield ("courant(2)", courant, *_courant_draws(courant))


def section_algebras():
    for seed in SEEDS:
        rng = random.Random(seed)
        for label, v, small_draws, big_draws in _quadruples(rng):
            for kind, algebra, draws in (("small", V.small_algebra(v), small_draws),
                                         ("big", V.big_algebra(v), big_draws)):
                for n in ARITIES:
                    for shape, args in _tuples(rng, n, *draws):
                        value = _outcome(lambda: algebra.m(n, args))
                        yield f"{label} seed={seed} {kind} m_{n} {shape}: {value}"
        yield f"algebras seed={seed} next: {rng.getrandbits(32)}"


def _tpois_draws(m):
    """Elements whose form has degree n - 1 or whose multivector has arity 1
    or 2, the slots of the live patterns at arity n >= 2."""
    def degree(rng, n):
        return rng.choice([max(n - 4, -2), -1, 0])

    def element(rng, n):
        return S.random_tpois_element(rng, m, degree(rng, n), 1)

    def mixed(rng, n):
        return (S.random_tpois_element(rng, m, max(n - 4, -2), 1)
                + S.random_tpois_element(rng, m, rng.choice([-1, 0]), 1))

    return element, mixed


def _oracle_draws(m):
    dims = (m, 0)

    def part(rng, n):
        if rng.randrange(3) == 0:
            return S.random_form(rng, dims, max(1, min(n - 1, m)), 1)
        return S.random_multivector(rng, dims, rng.randint(1, 2), 1)

    def mixed(rng, n):
        return S.random_multivector(rng, dims, 1, 1) + S.random_multivector(rng, dims, 2, 1)

    return part, mixed


def section_tpois():
    for seed in SEEDS:
        rng = random.Random(seed)
        for m in (2, 3):
            for n in range(1, m + 2):
                for shape, args in _tuples(rng, n, *_tpois_draws(m)):
                    value = _outcome(lambda: T.tpois_bracket(n, args))
                    yield f"m={m} seed={seed} tpois_bracket_{n} {shape}: {value}"
                for shape, args in _tuples(rng, n, *_oracle_draws(m)):
                    value = _outcome(lambda: Q.oracle_bracket(m, list(args)))
                    yield f"m={m} seed={seed} oracle_bracket_{n} {shape}: {value}"
        algebra = T.tpois_linfty(3)
        for i in range(DRAWS):
            h, pi = S.random_twisted_pair(rng, 3, 1, flavor="positive")
            b, x = S.random_gauge_direction(rng, 3, 1, constant_field=bool(i % 2))
            value = gauge_field(algebra, T.TPoisElement(b, x), T.TPoisElement(h, pi))
            yield f"seed={seed} gauge_field #{i}: {describe(value)}"
        yield f"tpois seed={seed} next: {rng.getrandbits(32)}"


SECTIONS = {
    "sampling": section_sampling,
    "geometry": section_geometry,
    "algebras": section_algebras,
    "tpois": section_tpois,
}


def digest(name: str) -> str:
    """sha256 of the section's lines, one per line."""
    h = hashlib.sha256()
    for line in SECTIONS[name]():
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    for name in argv or list(SECTIONS):
        print(f"## {name}")
        for line in SECTIONS[name]():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
