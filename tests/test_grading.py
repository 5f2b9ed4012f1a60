"""Each algebra states one grading, ``components``, and reads every degree
from it.

The handles' ``degree`` and ``components`` are checked against a reference
that states the grading twice, the way direct sums were graded before: a
``degree`` and a ``components`` closure per sum, over part gradings read
straight off the keys.  The evaluators grade each distinct argument once;
the ``_key_degree`` pins below count that on fixed seeds.  Elements keep
their grading in a slot, filled once: the tests below count the key reads,
check that no element refers to itself through it, and that a direct sum
graded two ways reads each grader's own answer.
"""

import random
import sys
from fractions import Fraction

from derived_brackets.graded import HomElt, SparseCombination, direct_sum_grading
from derived_brackets.linfty import LInfty, from_antisymmetric, relations_residual
from derived_brackets.polygeo import PolyForm, PolyMultivector, coiso_vdata
from derived_brackets.qgeom import SuperPoly, standard_courant_vdata
from derived_brackets.sampling import (
    fixture_gla,
    fixture_vdata,
    random_coiso_poisson,
    random_fixture_element,
    random_fixture_pair,
    random_form,
    random_multivector,
    random_tpois_element,
)
from derived_brackets.tpois import TPoisElement, tpois_linfty
from derived_brackets.vdata import BigElt, big_algebra


def _part_degree(x):
    degrees = {x._key_degree(key) for key in x.terms}
    return degrees.pop() if len(degrees) == 1 else None


def _part_components(x):
    by_degree = {}
    for key, coef in x.terms.items():
        by_degree.setdefault(x._key_degree(key), {})[key] = coef
    return [(d, x._of(x.ambient, t)) for d, t in sorted(by_degree.items())]


def _two_closure_grading(cls, first, second):
    """The ``(degree, components)`` pair of a direct sum, each stated on its
    own; ``first`` and ``second`` are ``(degree, components, offset)``."""
    (deg1, comps1, off1), (deg2, comps2, off2) = first, second

    def degree(e):
        degs = set()
        if not e.first.is_zero():
            d = deg1(e.first)
            if d is None:
                return None
            degs.add(d + off1)
        if not e.second.is_zero():
            d = deg2(e.second)
            if d is None:
                return None
            degs.add(d + off2)
        if len(degs) == 1:
            return degs.pop()
        return None

    def components(e):
        by = {}
        for d, part in comps1(e.first):
            by[d + off1] = [part, e.second.scale(0)]
        for d, part in comps2(e.second):
            by.setdefault(d + off2, [e.first.scale(0), None])[1] = part
        return [(d, cls._of(p, q)) for d, (p, q) in sorted(by.items())]

    return degree, components


def _pair_reference(cls, off1, off2):
    part = (_part_degree, _part_components)
    return _two_closure_grading(cls, (*part, off1), (*part, off2))


def _super_poly(rng, dim):
    x = tuple(rng.randint(0, 1) for _ in range(dim))
    big_p = tuple(rng.randint(0, 1) for _ in range(dim))
    p = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
    v = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
    return SuperPoly.monomial(dim, rng.randint(1, 3), x, big_p, p, v)


def _random_part(rng, draw):
    """Zero, one draw, or a sum of two draws (often inhomogeneous)."""
    roll = rng.random()
    if roll < 0.15:
        return draw().scale(0)
    return draw() if roll < 0.55 else draw() + draw()


def _check_grading(algebra, reference, elements, seen):
    """Compare the handle's grading with the reference on each element and
    each of its parts, tallying zero, homogeneous and inhomogeneous ones."""
    ref_degree, ref_components = reference
    for e in elements:
        want = ref_components(e)
        for x in [e] + [part for _, part in want]:
            d = ref_degree(x)
            got = algebra.components(x)
            assert algebra.degree(x) == d
            assert [(g, repr(p)) for g, p in got] == [
                (w, repr(p)) for w, p in ref_components(x)
            ]
            if x.is_zero():
                assert got == [] and d is None
                seen["zero"] += 1
            elif d is not None:
                assert len(got) == 1 and got[0][1] is x  # its own one part
                seen["homogeneous"] += 1
            else:
                seen["inhomogeneous"] += 1


def test_every_handle_grades_as_the_two_closure_reference():
    rng = random.Random(31)
    seen = {"zero": 0, "homogeneous": 0, "inhomogeneous": 0}

    # fixture and coisotropic quadruples: L[1] one degree down, a unshifted
    big = big_algebra(fixture_vdata())
    space = big.zero.x.space
    names = space.names()

    def fixture_part():
        return space.element({n: rng.randint(-2, 2) for n in rng.sample(names, 2)})

    fixture = [random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(40)]
    fixture += [BigElt(_random_part(rng, fixture_part), _random_part(rng, fixture_part))
                for _ in range(80)]
    _check_grading(big, _pair_reference(BigElt, -1, 0), fixture, seen)

    dims = (1, 2)
    coiso = big_algebra(coiso_vdata(random_coiso_poisson(rng, dims, 1, require_flat=True)))

    def multivector():
        return random_multivector(rng, dims, rng.randint(0, 3), 1)

    pairs = [BigElt(_random_part(rng, multivector), _random_part(rng, multivector))
             for _ in range(80)]
    _check_grading(coiso, _pair_reference(BigElt, -1, 0), pairs, seen)

    # the Courant model's L is graded two below the super-polynomial degree
    dim = 2
    courant = big_algebra(standard_courant_vdata(dim))

    def super_poly():
        return _super_poly(rng, dim)

    pairs = [BigElt(_random_part(rng, super_poly), _random_part(rng, super_poly))
             for _ in range(80)]
    _check_grading(courant, _pair_reference(BigElt, -3, -2), pairs, seen)

    # twisted Poisson: a q-form in degree q - 3, an arity-s multivector in s - 2
    m = 3
    tpois = tpois_linfty(m)

    def tpois_element():
        return random_tpois_element(rng, m, rng.choice([-2, -1, 0, 1]), 1)

    elements = [_random_part(rng, tpois_element) for _ in range(80)]
    _check_grading(tpois, _pair_reference(TPoisElement, -3, -1), elements, seen)

    # the degree-shifted structure-constant algebra
    g = fixture_gla()
    shifted = from_antisymmetric(LInfty(
        components=lambda x: x.components(),
        l=lambda k, args: g.bracket(*args) if k == 2 else g.zero(),
        zero=g.zero(),
        arity_bound=2,
    ))
    gnames = g.space.names()

    def gla_element():
        return g.space.element({n: rng.randint(-2, 2) for n in rng.sample(gnames, 2)})

    def shifted_degree(x):
        d = _part_degree(x)
        return None if d is None else d - 1

    def shifted_components(x):
        return [(d - 1, part) for d, part in _part_components(x)]

    elements = [_random_part(rng, gla_element) for _ in range(80)]
    _check_grading(shifted, (shifted_degree, shifted_components), elements, seen)

    assert sum(seen.values()) >= 1000
    assert seen["homogeneous"] >= 500 and seen["inhomogeneous"] >= 200, seen
    assert seen["zero"] >= 20, seen


def _count_key_degree(monkeypatch):
    calls = [0]
    for cls in (HomElt, PolyForm, PolyMultivector):
        original = cls._key_degree

        def counted(self, key, original=original):
            calls[0] += 1
            return original(self, key)

        monkeypatch.setattr(cls, "_key_degree", counted)
    return calls


def test_relations_grade_each_argument_once(monkeypatch):
    # deterministic counts on fixed seeds: 40 fixture big-algebra relations
    # and 30 twisted-Poisson ones.  Grading every slot of every combination
    # again (a degree call per slot beside the decomposition) read 3,412 and
    # 1,661 here; grading each argument once per call, with no slot to keep
    # the grading across calls, read 2,163 and 760.  The slot brought them
    # to 493 and 255; m_1 of the big algebra applied to the whole argument,
    # not to each of its homogeneous parts, grades no argument: 471.
    calls = _count_key_degree(monkeypatch)
    rng = random.Random(1)
    big = big_algebra(fixture_vdata())
    for k in range(40):
        n = k % 4 + 1
        args = tuple(random_fixture_pair(rng, rng.choice([-1, 0, 1])) for _ in range(n))
        assert relations_residual(big, n, args).is_zero()
    assert calls[0] == 471
    calls[0] = 0
    rng = random.Random(2)
    tpois = tpois_linfty(3)
    for k in range(30):
        n = k % 3 + 1
        args = tuple(random_tpois_element(rng, 3, rng.choice([-1, 0, 1]), 1) for _ in range(n))
        assert relations_residual(tpois, n, args).is_zero()
    assert calls[0] == 255


def _graded_elements(rng):
    """Zero, homogeneous and inhomogeneous elements of the three key-graded
    classes, freshly built and not yet graded."""
    dims = (3, 0)
    space = fixture_vdata().zero.space
    return [
        space.zero(),
        random_fixture_element(rng, 1),
        random_fixture_element(rng, 0) + random_fixture_element(rng, 1),
        PolyForm.zero(dims),
        random_form(rng, dims, 2, 2),
        random_form(rng, dims, 1, 2) + random_form(rng, dims, 2, 1) + random_form(rng, dims, 3, 1),
        PolyMultivector.zero(dims),
        random_multivector(rng, dims, 1, 2),
        random_multivector(rng, dims, 0, 1) + random_multivector(rng, dims, 2, 2),
    ]


def _read_grading(x):
    x.components()
    x.degree()
    x.is_homogeneous()
    if isinstance(x, PolyMultivector):
        x.arities()
    if isinstance(x, PolyForm):
        x.form_degrees()


def test_grading_reads_each_key_once(monkeypatch):
    elements = _graded_elements(random.Random(5))
    calls = _count_key_degree(monkeypatch)
    kinds = set()
    for x in elements:
        calls[0] = 0
        for _ in range(3):
            _read_grading(x)
            for _, part in x.components():
                _read_grading(part)
        assert calls[0] == len(x.terms), x
        kinds.add(len(x.components()))
    assert {0, 1} < kinds and max(kinds) >= 2
    # the readers agree with the keys
    for x in elements:
        degrees = {x._key_degree(key) for key in x.terms}
        assert [d for d, _ in x.components()] == sorted(degrees)
        assert x.degree() == (_part_degree(x) if x.terms else None)
        assert x.is_homogeneous() == (len(degrees) <= 1)
        if isinstance(x, PolyMultivector):
            assert x.arities() == {len(w) for _, w in x.terms}
        if isinstance(x, PolyForm):
            assert x.form_degrees() == {len(w) for _, w in x.terms}


def test_graded_homogeneous_element_holds_no_reference_to_itself():
    rng = random.Random(6)
    big = big_algebra(fixture_vdata())
    tpois = tpois_linfty(3)
    cases = [
        (random_fixture_element(rng, 1), HomElt.components),
        (random_multivector(rng, (3, 0), 2, 1), PolyMultivector.components),
        (random_fixture_pair(rng, 0), big.components),
        (random_tpois_element(rng, 3, 0, 1), tpois.components),
    ]
    for x, grade in cases:
        assert not x.is_zero()
        before = sys.getrefcount(x)
        (graded,) = grade(x)
        assert graded[1] is x
        del graded
        assert sys.getrefcount(x) == before
        assert len(grade(x)) == 1  # read back from the slot


def test_direct_sum_slot_keeps_each_graders_answer():
    # the Courant quadruple grades super-polynomials two degrees down, so its
    # big algebra puts a BigElt of them three and two below the plain sum's
    dim = 2
    courant = big_algebra(standard_courant_vdata(dim)).components
    plain = direct_sum_grading(BigElt, (SuperPoly.components, 0), (SuperPoly.components, 0))
    references = {
        courant: _pair_reference(BigElt, -3, -2),
        plain: _pair_reference(BigElt, 0, 0),
    }
    rng = random.Random(7)

    def super_poly():
        return _super_poly(rng, dim)

    differ = 0
    for _ in range(60):
        e = BigElt(_random_part(rng, super_poly), _random_part(rng, super_poly))
        answers = {}
        for grade in (courant, plain, courant, plain, courant):
            got = [(d, repr(p)) for d, p in grade(e)]
            want = [(d, repr(p)) for d, p in references[grade][1](e)]
            assert got == want
            answers[grade] = got
        differ += answers[courant] != answers[plain]
    assert differ >= 40


def test_scaled_and_negated_elements_are_graded_afresh():
    rng = random.Random(8)
    big = big_algebra(fixture_vdata())
    tpois = tpois_linfty(3)
    elements = [(x, type(x).components) for x in _graded_elements(rng)]
    elements += [(random_fixture_pair(rng, d), big.components) for d in (-1, 0, 1)]
    elements += [(random_tpois_element(rng, 3, d, 1), tpois.components) for d in (-1, 0)]
    for x, grade in elements:
        want = [d for d, _ in grade(x)]
        assert grade(x.scale(0)) == []
        for y in (x.scale(3), -x, x.scale(Fraction(1, 2))):
            assert [d for d, _ in grade(y)] == want
        if isinstance(x, SparseCombination):
            zero = x.scale(0)
            assert zero.degree() is None and zero.is_homogeneous()
