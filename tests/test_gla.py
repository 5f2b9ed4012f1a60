import itertools
import json
import random

import pytest

from derived_brackets.gla import (
    DGLA,
    StructureGLA,
    Violation,
    adjoint,
    gla_from_json,
    gla_to_json,
    sample_gla,
    verify_gla,
)
from derived_brackets.graded import GradedSpace
from derived_brackets.sampling import fixture_gla


def test_sample_bracket_table():
    g = sample_gla()
    h, e = g.gen("h"), g.gen("e")
    assert g.bracket(h, e) == e
    assert g.bracket(h, h).is_zero()
    assert g.bracket(e, e).is_zero()
    assert g.bracket(e, h) == -1 * e


def test_bracket_rejects_foreign_elements():
    g = sample_gla()
    other = GradedSpace.of([("h", 0), ("e", 1), ("f", 2)])
    with pytest.raises(ValueError):
        g.bracket(g.gen("h"), other.gen("f"))


def test_verify_accepts_sample_and_fixture():
    assert verify_gla(sample_gla()).ok
    assert verify_gla(fixture_gla()).ok


def test_verify_reports_degree_violation():
    space = GradedSpace.of([("h", 0), ("e", 1)])
    bad = StructureGLA(space, {("h", "e"): space.gen("h")})
    report = verify_gla(bad)
    assert not report.ok
    assert any(v.kind == "degree" for v in report.violations)


def test_verify_reports_jacobi_violation():
    space = GradedSpace.of([("x", 0), ("y", 0), ("z", 0)])
    # the cyclic table [x,y] = x, [y,z] = y, [z,x] = z is not a Lie algebra
    bad = StructureGLA(
        space,
        {
            ("x", "y"): space.gen("x"),
            ("y", "z"): space.gen("y"),
            ("x", "z"): space.gen("z", -1),
        },
    )
    report = verify_gla(bad)
    assert not report.ok
    assert any(v.kind == "jacobi" for v in report.violations)


def _jacobi_oracle(algebra):
    """The graded Jacobi residual of every basis triple, none skipped."""
    space = algebra.space
    names = space.names()
    out = []
    for an, bn, cn in itertools.product(names, repeat=3):
        a, b, c = space.gen(an), space.gen(bn), space.gen(cn)
        sign = -1 if space.degree_of(an) * space.degree_of(bn) % 2 else 1
        residual = algebra.bracket(a, algebra.bracket(b, c)) - (
            algebra.bracket(algebra.bracket(a, b), c)
            + algebra.bracket(b, algebra.bracket(a, c)).scale(sign)
        )
        if not residual.is_zero():
            out.append(Violation("jacobi", (an, bn, cn), repr(residual)))
    return out


def _one_pair_table():
    """[a, b] = d and [d, c] = e: Jacobi fails only on the triples of a, b and
    c, where [a, b] is the one nonzero pair bracket."""
    space = GradedSpace.of([(n, 0) for n in "abcde"])
    return StructureGLA(space, {("a", "b"): space.gen("d"), ("d", "c"): space.gen("e")})


def _conflicting_reversed_pair():
    data = gla_to_json(sample_gla())
    data["brackets"].append(
        {"left": "e", "right": "h", "result": [{"coef_num": 1, "coef_den": 1, "basis": "e"}]}
    )
    return gla_from_json(data)


@pytest.mark.parametrize(
    "make", [sample_gla, fixture_gla, _conflicting_reversed_pair, _one_pair_table])
def test_verify_reports_every_jacobi_failure(make):
    algebra = make()
    report = verify_gla(algebra)
    assert [v for v in report.violations if v.kind == "jacobi"] == _jacobi_oracle(algebra)
    if make is _one_pair_table:
        assert not report.ok
        assert {v.where for v in report.violations} == set(itertools.permutations("abc"))


def test_loader_reports_conflicting_reversed_pair():
    data = gla_to_json(sample_gla())
    data["brackets"].append(
        {"left": "e", "right": "h", "result": [{"coef_num": 1, "coef_den": 1, "basis": "e"}]}
    )
    report = verify_gla(gla_from_json(data))
    assert not report.ok
    assert any(v.kind == "antisymmetry" for v in report.violations)


def test_loader_accepts_consistent_reversed_pair():
    data = gla_to_json(sample_gla())
    data["brackets"].append(
        {"left": "e", "right": "h", "result": [{"coef_num": -1, "coef_den": 1, "basis": "e"}]}
    )
    assert verify_gla(gla_from_json(data)).ok


def test_a_pair_given_in_both_orders_is_folded_once():
    # the first-listed order wins; a consistent reverse adds nothing
    space = GradedSpace.of([("h", 0), ("e", 1)])
    h, e = space.gen("h"), space.gen("e")
    for table in ({("h", "e"): e, ("e", "h"): -e}, {("e", "h"): -e, ("h", "e"): e}):
        algebra = StructureGLA(space, table)
        assert algebra.bracket(h, e) == e and algebra.bracket(e, h) == -e
        assert algebra.input_conflicts == ()
        assert algebra == sample_gla() and verify_gla(algebra).ok
    # a reverse that disagrees is recorded where it was given, and reported
    algebra = StructureGLA(space, {("h", "e"): e, ("e", "h"): e})
    assert algebra.bracket(h, e) == e
    assert algebra.input_conflicts == (Violation("antisymmetry", ("e", "h"), "2*e"),)
    first_reversed = StructureGLA(space, {("e", "h"): e, ("h", "e"): e})
    assert first_reversed.bracket(h, e) == -e
    assert first_reversed.input_conflicts == (Violation("antisymmetry", ("h", "e"), "2*e"),)
    report = verify_gla(algebra)
    assert not report.ok and report == verify_gla(_conflicting_reversed_pair())


def test_even_diagonal_forced_zero():
    space = GradedSpace.of([("h", 0), ("e", 1)])
    bad = StructureGLA(space, {("h", "h"): space.gen("h")})
    report = verify_gla(bad)
    assert any(v.kind == "antisymmetry" for v in report.violations)


def test_json_round_trip():
    g = fixture_gla()
    again = gla_from_json(json.loads(json.dumps(gla_to_json(g))))
    assert again == g
    assert verify_gla(again).ok


def test_adjoint_zero_and_sample():
    g = sample_gla()
    zero_map = adjoint(g, g.zero())
    assert zero_map.is_zero()
    d = adjoint(g, g.gen("e"))
    assert d(g.gen("h")) == -1 * g.gen("e")
    assert d(g.gen("e")).is_zero()


def test_adjoint_squares_to_zero_for_square_zero_delta():
    g = fixture_gla()
    delta = g.gen("u")
    assert g.bracket(delta, delta).is_zero()
    d = adjoint(g, delta)
    for name in g.space.names():
        assert d(d(g.gen(name))).is_zero()


def test_adjoint_requires_degree_one():
    g = sample_gla()
    with pytest.raises(ValueError):
        adjoint(g, g.gen("h"))
    mixed = g.gen("h") + g.gen("e")
    with pytest.raises(ValueError):
        adjoint(g, mixed)


def test_random_jacobi_on_fixture_combinations():
    g = fixture_gla()
    rng = random.Random(5)
    names = g.space.names()
    for _ in range(40):
        def rand_homog():
            degree = rng.choice([0, 1, 2])
            eligible = [n for n in names if g.space.degree_of(n) == degree]
            return g.space.element({n: rng.randint(-3, 3) for n in eligible}), degree

        (x, dx), (y, dy), (z, _) = rand_homog(), rand_homog(), rand_homog()
        lhs = g.bracket(x, g.bracket(y, z))
        rhs = g.bracket(g.bracket(x, y), z) + g.bracket(y, g.bracket(x, z)).scale(
            (-1) ** (dx * dy)
        )
        assert (lhs - rhs).is_zero()


def test_dgla_validation():
    from derived_brackets.gla import LinearMap

    g = fixture_gla()
    d = adjoint(g, g.gen("u"))
    assert DGLA(g, d).verify().ok

    # an arbitrary degree-1 basis map is generally not a derivation:
    # with d(a) = u, the Leibniz rule fails on [v, a] = b since [v, u] = w
    bad = LinearMap(g.space, {"a": g.gen("u")})
    report = DGLA(g, bad).verify()
    assert not report.ok
    assert any(v.kind == "differential" for v in report.violations)


@pytest.mark.parametrize(
    "images, where",
    [({"h": "h"}, ("h",)), ({"a": "u", "u": "w"}, ("d^2", "a"))],
    ids=["wrong-degree", "square-not-zero"],
)
def test_dgla_reports_each_differential_violation(images, where):
    from derived_brackets.gla import LinearMap

    g = sample_gla() if "h" in images else fixture_gla()
    d = LinearMap(g.space, {n: g.gen(image) for n, image in images.items()})
    report = DGLA(g, d).verify()
    assert not report.ok
    assert ("differential", where) in [(v.kind, v.where) for v in report.violations]


# -- input checks ---------------------------------------------------------------------

OTHER = GradedSpace.of([("h", 0), ("e", 1), ("f", 2)])


def _table_with(key, value):
    space = sample_gla().space
    return StructureGLA(space, {key: value(space)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _table_with(("h", "f"), lambda s: s.gen("e")), KeyError,
         r"unknown basis name \(h, f\)"),
        (lambda: _table_with(("h", "e"), lambda s: OTHER.gen("e")), ValueError,
         "bracket value lives in a different space"),
        (lambda: adjoint(sample_gla(), sample_gla().gen("e"))(OTHER.gen("e")), ValueError,
         "argument belongs to a different space"),
        (lambda: gla_from_json({"basis": [{"name": "h", "degree": 0}], "brackets": [
            {"left": "h", "right": "h", "result": [{"basis": "q", "coef_num": 1}]}]}),
         ValueError, "bracket entry 1: field \"result\", term 1: unknown basis monomial 'q'"),
    ],
    ids=["unknown-name", "foreign-value", "map-foreign-argument", "unknown-result-basis"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
