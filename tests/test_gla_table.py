"""`StructureGLA.bracket` against the bilinear extension of its stored table.

The oracle below is the pair-by-pair evaluation the signed rows replaced: it
reads ``algebra.table`` (pairs i <= j in basis order), produces a reversed
pair through the antisymmetry sign -(-1)^{|b_i||b_j|}, and sums scaled
elements one at a time.  The kernel must agree with it exactly, in value, in
``repr`` and in the type of every coefficient (``int`` while integral).
"""

import random
from fractions import Fraction

import pytest

from derived_brackets.gla import (
    GlaReport,
    StructureGLA,
    Violation,
    gla_from_json,
    sample_gla,
    verify_gla,
)
from derived_brackets.graded import GradedSpace, HomElt, settle
from derived_brackets.sampling import (
    fixture_gla,
    fixture_mc_big,
    fixture_mc_small,
    random_fixture_a_element,
    random_fixture_element,
    random_fixture_pair,
)


def oracle_pair(algebra, left, right):
    space = algebra.space
    index = {name: k for k, name in enumerate(space.names())}
    if index[left] <= index[right]:
        return algebra.table.get((left, right), space.zero())
    dl, dr = space.degree_of(left), space.degree_of(right)
    base = algebra.table.get((right, left), space.zero())
    return base.scale(-(Fraction(-1) ** ((dl * dr) % 2)))


def oracle_bracket(algebra, x, y):
    out = algebra.space.zero()
    for ln, lc in x.terms.items():
        for rn, rc in y.terms.items():
            base = oracle_pair(algebra, ln, rn)
            if not base.is_zero():
                out = out + base.scale(lc * rc)
    return out


def oracle_pair_violations(algebra):
    """The degree, even-diagonal and input-conflict violations, in
    verify_gla's order, from the stored table."""
    space = algebra.space
    violations = []
    names = space.names()
    for ln in names:
        for rn in names:
            value = oracle_pair(algebra, ln, rn)
            if value.is_zero():
                continue
            expected = space.degree_of(ln) + space.degree_of(rn)
            for mono in value.terms:
                if space.degree_of(mono) != expected:
                    violations.append(Violation("degree", (ln, rn), repr(value)))
                    break
    for name in names:
        if space.degree_of(name) % 2 == 0:
            diag = oracle_pair(algebra, name, name)
            if not diag.is_zero():
                violations.append(Violation("antisymmetry", (name, name), repr(diag)))
    violations.extend(getattr(algebra, "input_conflicts", ()))
    return violations


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)
    assert {n: type(c) for n, c in got.terms.items()} == {
        n: type(c) for n, c in want.terms.items()
    }
    assert got.space is want.space


def random_element(rng, space):
    names = space.names()
    return space.element(
        {rng.choice(names): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
         for _ in range(rng.randint(1, 4))}
    )


def random_table_json(rng):
    """A structure-constant file with random entries (degrees are not
    respected, so verify_gla has violations to report).  It always has an odd
    degree-1 basis element with a diagonal entry, a pair listed in both orders
    and Fraction coefficients; in about half of them a degree-0 basis element
    also has a diagonal entry, which verify_gla must report."""
    n = rng.randint(3, 5)
    degrees = [1, 0] + [rng.randint(-1, 2) for _ in range(n - 2)]
    rng.shuffle(degrees)
    basis = [{"name": f"e{i}", "degree": d} for i, d in enumerate(degrees)]
    names = [b["name"] for b in basis]
    odd = names[degrees.index(1)]
    even = names[degrees.index(0)]

    def result():
        return [
            {"coef_num": rng.randint(-3, 3), "coef_den": rng.randint(1, 3),
             "basis": rng.choice(names)}
            for _ in range(rng.randint(1, 3))
        ]

    brackets = [{"left": odd, "right": odd, "result": result()}]
    if rng.randrange(2):
        brackets.append({"left": even, "right": even, "result": result()})
    for _ in range(rng.randint(n, 3 * n)):
        left, right = rng.choice(names), rng.choice(names)
        brackets.append({"left": left, "right": right, "result": result()})
    # one pair listed in both orders, consistently or not
    left, right = odd, even
    value = result()
    sign = -1 if rng.randrange(3) else 1  # -(-1)^{1*0} = -1 is consistent
    brackets.append({"left": left, "right": right, "result": value})
    brackets.append({
        "left": right, "right": left,
        "result": [dict(item, coef_num=sign * item["coef_num"]) for item in value],
    })
    # a pair listed twice in the same order is an input error, so a repeated
    # pair's results are listed in its first entry, whose terms the loader sums
    merged = {}
    for entry in brackets:
        key = (entry["left"], entry["right"])
        if key in merged:
            merged[key]["result"] = merged[key]["result"] + entry["result"]
        else:
            merged[key] = dict(entry)
    return {"basis": basis, "brackets": list(merged.values())}


def random_tables(seed, count):
    rng = random.Random(seed)
    return [gla_from_json(random_table_json(rng)) for _ in range(count)]


def test_bracket_matches_oracle_on_fixture_and_sample():
    rng = random.Random(11)
    for algebra in (fixture_gla(), sample_gla()):
        basis = algebra.basis_elements()
        for x in basis:
            for y in basis:
                assert_same(algebra.bracket(x, y), oracle_bracket(algebra, x, y))
        for _ in range(200):
            x, y = random_element(rng, algebra.space), random_element(rng, algebra.space)
            assert_same(algebra.bracket(x, y), oracle_bracket(algebra, x, y))


def test_bracket_matches_oracle_on_fixture_draws():
    rng = random.Random(12)
    algebra = fixture_gla()
    for _ in range(50):
        phi = fixture_mc_small(rng)
        alpha = fixture_mc_big(rng)
        pair = random_fixture_pair(rng, rng.choice([-1, 0, 1]))
        elements = [
            phi, alpha.x, alpha.a, pair.x, pair.a,
            random_fixture_element(rng, rng.choice([0, 1, 2])),
            random_fixture_a_element(rng, rng.choice([0, 1])),
        ]
        for x in elements:
            for y in elements:
                assert_same(algebra.bracket(x, y), oracle_bracket(algebra, x, y))


def test_bracket_matches_oracle_on_random_tables():
    rng = random.Random(13)
    seen = {"fraction": 0, "even_diagonal": 0, "odd_diagonal": 0, "conflict": 0, "cancel": 0}
    for algebra in random_tables(14, 40):
        space = algebra.space
        if any(type(c) is Fraction for v in algebra.table.values() for c in v.terms.values()):
            seen["fraction"] += 1
        for (left, right), value in algebra.table.items():
            if left == right:
                key = "odd_diagonal" if space.degree_of(left) % 2 else "even_diagonal"
                seen[key] += 1
        seen["conflict"] += bool(algebra.input_conflicts)
        basis = algebra.basis_elements()
        for x in basis:
            for y in basis:
                assert_same(algebra.bracket(x, y), oracle_bracket(algebra, x, y))
        for _ in range(40):
            x, y = random_element(rng, space), random_element(rng, space)
            got = algebra.bracket(x, y)
            assert_same(got, oracle_bracket(algebra, x, y))
            reachable = {
                n for ln in x.terms for rn in y.terms
                for n in oracle_pair(algebra, ln, rn).terms
            }
            seen["cancel"] += len(got.terms) < len(reachable)
    assert all(seen.values()), seen


def test_bracket_products_that_cancel_leave_no_terms():
    space = GradedSpace.of([("x", 0), ("y", 0), ("z", 0), ("w", 0)])
    algebra = StructureGLA(space, {("x", "z"): space.gen("w"), ("y", "z"): space.gen("w")})
    x = space.element({"x": 1, "y": -1})
    value = algebra.bracket(x, space.gen("z"))
    assert value.terms == {} and repr(value) == "0"
    assert_same(value, oracle_bracket(algebra, x, space.gen("z")))
    # [z, x] comes from the reversed rows, with sign -(-1)^0 = -1
    half = space.element({"x": Fraction(1, 2), "y": Fraction(3, 2)})
    value = algebra.bracket(space.gen("z"), half)
    assert value.terms == {"w": -2} and type(value.terms["w"]) is int
    assert_same(value, oracle_bracket(algebra, space.gen("z"), half))


def test_odd_reversed_pair_keeps_its_sign_and_even_diagonal_is_reported():
    space = GradedSpace.of([("h", 0), ("p", 1), ("q", 1), ("r", 2)])
    algebra = StructureGLA(
        space,
        {("p", "q"): space.gen("r"), ("p", "p"): space.gen("r", 2), ("h", "h"): space.gen("h")},
    )
    p, q = space.gen("p"), space.gen("q")
    assert algebra.bracket(q, p) == space.gen("r")  # -(-1)^{1*1} = +1
    assert algebra.bracket(p, p) == space.gen("r", 2)
    assert algebra.bracket(space.gen("h"), space.gen("h")) == space.gen("h")
    report = verify_gla(algebra)
    assert Violation("antisymmetry", ("h", "h"), "h") in report.violations


def test_bracket_accepts_an_equal_space_and_rejects_a_foreign_one():
    algebra = fixture_gla()
    twin = GradedSpace.of(list(algebra.space.basis))
    assert twin is not algebra.space and twin == algebra.space
    x, y = twin.gen("u"), twin.gen("a")
    value = algebra.bracket(x, y)
    assert value == algebra.space.element({"v": 1, "b": 1})
    assert value.space is algebra.space
    assert twin.gen("u") == algebra.space.gen("u")
    foreign = GradedSpace.of(list(algebra.space.basis) + [("extra", 3)])
    with pytest.raises(ValueError):
        algebra.bracket(foreign.gen("u"), algebra.gen("a"))
    with pytest.raises(ValueError):
        algebra.bracket(algebra.gen("u"), foreign.gen("a"))


def test_fixture_draws_share_the_algebra_space():
    rng = random.Random(1)
    space = fixture_gla().space
    assert random_fixture_element(rng, 1).space is space
    assert random_fixture_a_element(rng, 0).space is space
    pair = random_fixture_pair(rng, 0)
    assert pair.x.space is space and pair.a.space is space
    assert fixture_mc_small(rng).space is space
    alpha = fixture_mc_big(rng)
    assert alpha.x.space is space and alpha.a.space is space


# -- verify_gla's integer Jacobi check against the element path ------------------


def element_path_verify(algebra):
    """verify_gla with its Jacobi check on elements, as before the check read
    the integer rows: each basis triple with a nonzero pair bracket is
    bracketed as elements, and a nonzero residual is a violation."""
    space = algebra.space
    names = space.names()
    gens = {n: space.gen(n) for n in names}
    pairs = {(ln, rn): algebra.bracket(gens[ln], gens[rn]) for ln in names for rn in names}
    violations = oracle_pair_violations(algebra)
    for an in names:
        for bn in names:
            sign = -1 if space.degree_of(an) * space.degree_of(bn) % 2 else 1
            for cn in names:
                ab, bc, ac = pairs[(an, bn)], pairs[(bn, cn)], pairs[(an, cn)]
                if ab.is_zero() and bc.is_zero() and ac.is_zero():
                    continue
                lhs = algebra.bracket(gens[an], bc)
                first, second = algebra.bracket(ab, gens[cn]), algebra.bracket(gens[bn], ac)
                rhs = first + second if sign == 1 else first - second
                if lhs != rhs:
                    violations.append(Violation("jacobi", (an, bn, cn), repr(lhs - rhs)))
    return GlaReport(tuple(violations))


def upper_triangular_gla(degrees):
    """Strictly upper-triangular k x k matrices, k = len(degrees), under the
    graded commutator [X, Y] = XY - (-1)^{|X||Y|} YX, where E_ij has degree
    degrees[i] - degrees[j]: a graded Lie algebra of dimension k(k - 1)/2,
    with odd elements when the degrees have mixed parity."""
    k = len(degrees)
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    name = {cell: f"e{cell[0]}_{cell[1]}" for cell in cells}
    degree = {cell: degrees[cell[0]] - degrees[cell[1]] for cell in cells}
    space = GradedSpace.of([(name[cell], degree[cell]) for cell in cells])
    table = {}
    for n, x in enumerate(cells):
        for y in cells[n:]:
            terms = {}
            if x[1] == y[0]:  # E_ij E_jl = E_il
                terms[name[(x[0], y[1])]] = 1
            if y[1] == x[0]:  # -(-1)^{|X||Y|} E_ki E_ij = -(-1)^{|X||Y|} E_kj
                terms[name[(y[0], x[1])]] = 1 if degree[x] * degree[y] % 2 else -1
            if terms:
                table[(name[x], name[y])] = space.element(terms)
    return StructureGLA(space, table)


def corrupted(rng, algebra):
    """A copy of ``algebra`` with one table entry changed by one term, which
    may break degree additivity, the even diagonal or graded Jacobi."""
    space = algebra.space
    names = space.names()
    table = dict(algebra.table)
    key = rng.choice(sorted(table)) if table and rng.randrange(3) else tuple(
        sorted(rng.sample(names, 2), key=names.index))
    change = space.gen(rng.choice(names), Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)))
    table[key] = table.get(key, space.zero()) + change
    return StructureGLA(space, table)


def test_verify_gla_integer_jacobi_matches_the_element_path():
    rng = random.Random(30)
    lie = [fixture_gla(), sample_gla()] + [
        upper_triangular_gla([rng.randint(-2, 2) for _ in range(k)])
        for k in (3, 3, 4, 4, 5, 5, 6, 6, 7, 8)
    ]
    assert [len(a.space.names()) for a in lie[-3:]] == [15, 21, 28]
    for algebra in lie:
        assert verify_gla(algebra).ok
    clean = lie + [rational_gla()] + random_tables(31, 24)
    algebras = clean + [corrupted(rng, a) for a in clean for _ in range(2)]
    seen = {"degree": 0, "antisymmetry": 0, "jacobi": 0, "odd-odd jacobi": 0, "fraction": 0,
            "rowless jacobi": 0}
    for algebra in algebras:
        report = verify_gla(algebra)
        want = element_path_verify(algebra)
        assert report == want
        assert report.as_dict() == want.as_dict()
        space = algebra.space
        for v in report.violations:
            seen[v.kind] += 1
            if v.kind == "jacobi":
                a, b = v.where[:2]
                seen["odd-odd jacobi"] += space.degree_of(a) * space.degree_of(b) % 2
        seen["fraction"] += algebra._den != 1
        # verify_gla's Jacobi loop skips the names that bracket to zero with
        # everything; the element path visits them
        seen["rowless jacobi"] += any(n not in algebra._rows for n in space.names()) and any(
            v.kind == "jacobi" for v in report.violations)
    assert all(seen.values()), seen


def test_verify_gla_matches_the_triple_loop():
    space = GradedSpace.of([("x", 0), ("y", 0), ("z", 0)])
    cyclic = StructureGLA(
        space,
        {("x", "y"): space.gen("x"), ("y", "z"): space.gen("y"), ("x", "z"): space.gen("z", -1)},
    )
    algebras = [cyclic, fixture_gla(), sample_gla()] + random_tables(15, 3)
    reports = []
    for algebra in algebras:
        report = verify_gla(algebra)
        want = element_path_verify(algebra)
        assert report == want
        assert report.as_dict() == want.as_dict()
        reports.append(report)
    assert not reports[0].ok and any(v.kind == "jacobi" for v in reports[0].violations)
    assert reports[1].ok
    assert not reports[3].ok


# -- the integer kernel against the Fraction-accumulating kernel ----------------


def fraction_rows(algebra):
    """The signed rows the Fraction kernel read: the table's own coefficients,
    the reversed pair with the antisymmetry sign -(-1)^{|b_i||b_j|}."""
    space = algebra.space
    rows = {}
    for (left, right), value in algebra.table.items():
        terms = tuple(value.terms.items())
        rows.setdefault(left, {})[right] = terms
        if left != right:
            odd = space.degree_of(left) * space.degree_of(right) % 2
            sign = 1 if odd else -1
            rows.setdefault(right, {})[left] = tuple((n, sign * c) for n, c in terms)
    return rows


def fraction_bracket(algebra, rows, x, y):
    """The bracket as it was computed before the integer kernel: each product
    c_x c_y v of int or Fraction coefficients summed into one dict, whose
    nonzero entries, integral ones as ints, are the result."""
    acc = {}
    for ln, lc in x.terms.items():
        row = rows.get(ln)
        if row is None:
            continue
        for rn, rc in y.terms.items():
            entry = row.get(rn)
            if entry is None:
                continue
            c = lc * rc
            for name, v in entry:
                acc[name] = acc.get(name, 0) + c * v
    return HomElt._of(algebra.space, settle(acc))


def rational_gla():
    """A table whose structure constants have denominators 2, 3, 4 and 6,
    with an odd pair, an odd diagonal and two rows that cancel on x - y."""
    space = GradedSpace.of([("x", 0), ("y", 0), ("p", 1), ("q", 1), ("r", 2), ("s", 0)])
    el = space.element
    table = {
        ("x", "p"): el({"p": Fraction(1, 2), "q": Fraction(-2, 3)}),
        ("y", "p"): el({"p": Fraction(1, 2), "q": Fraction(-2, 3)}),
        ("x", "y"): el({"s": Fraction(3, 4), "x": Fraction(5, 6)}),
        ("p", "q"): el({"r": Fraction(7, 6)}),
        ("q", "q"): el({"r": Fraction(-1, 4), "s": 2}),
        ("s", "x"): el({"y": Fraction(1, 3)}),
        ("p", "s"): el({"q": 3}),
    }
    return StructureGLA(space, table)


def mixed_element(rng, space):
    """An element whose coefficients mix ints and Fractions (denominators up to
    6), or zero."""
    names = space.names()
    if rng.randrange(8) == 0:
        return space.zero()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        num = rng.randint(-4, 4)
        terms[rng.choice(names)] = num if rng.randrange(2) else Fraction(num, rng.randint(1, 6))
    return space.element(terms)


def rebuilt(rng, x, y):
    """x, or an element equal to a sum, difference or scaling built from x
    and y; those have no integer form yet."""
    kind = rng.randrange(4)
    if kind == 0:
        return x
    if kind == 1:
        return x + y
    if kind == 2:
        return x - y
    return x.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))


def test_int_kernel_matches_the_fraction_kernel():
    rng = random.Random(16)
    algebras = [fixture_gla(), rational_gla(), sample_gla()] + random_tables(17, 6)
    assert algebras[1]._den == 12
    seen = {"pairs": 0, "zero_operand": 0, "cancelled": 0, "rational_out": 0, "rebuilt": 0}
    for algebra in algebras:
        rows = fraction_rows(algebra)
        space = algebra.space
        for _ in range(150):
            x, y = mixed_element(rng, space), mixed_element(rng, space)
            x, y = rebuilt(rng, x, y), rebuilt(rng, y, x)
            seen["rebuilt"] += x._int_form is None and not x.is_zero()
            got = algebra.bracket(x, y)
            want = fraction_bracket(algebra, rows, x, y)
            assert_same(got, want)
            seen["pairs"] += 1
            seen["zero_operand"] += x.is_zero() or y.is_zero()
            seen["cancelled"] += got.is_zero() and not (x.is_zero() or y.is_zero())
            seen["rational_out"] += any(type(c) is Fraction for c in got.terms.values())
    assert seen["pairs"] >= 1000
    assert all(seen.values()), seen
    # the cancelling rows: [x - y, p] = 0 exactly, as an empty combination
    algebra = algebras[1]
    space = algebra.space
    value = algebra.bracket(space.element({"x": 2, "y": -2}), space.gen("p", Fraction(1, 3)))
    assert value.terms == {} and value._int_form == (1, {})


def test_chained_brackets_hand_their_integer_form_on():
    rng = random.Random(18)
    for algebra in (fixture_gla(), rational_gla()):
        rows = fraction_rows(algebra)
        space = algebra.space
        for _ in range(60):
            got = want = mixed_element(rng, space)
            for _ in range(4):
                a = mixed_element(rng, space)
                got = algebra.bracket(got, a)
                want = fraction_bracket(algebra, rows, want, a)
                assert_same(got, want)
                den, nums = got._int_form
                assert den > 0 and all(type(n) is int for n in nums.values())
                assert {n: Fraction(c, den) for n, c in nums.items()} == got.terms


def test_fixture_draws_match_the_fraction_kernel():
    rng = random.Random(19)
    algebra = fixture_gla()
    rows = fraction_rows(algebra)
    count = 0
    for _ in range(20):
        alpha = fixture_mc_big(rng)
        pair = random_fixture_pair(rng, rng.choice([-1, 0, 1]))
        elements = [fixture_mc_small(rng), alpha.x, alpha.a, pair.x, pair.a]
        for x in elements:
            for y in elements:
                assert_same(algebra.bracket(x, y), fraction_bracket(algebra, rows, x, y))
                count += 1
    assert count >= 500


@pytest.fixture()
def fraction_constructions(monkeypatch):
    """Counts every Fraction constructed while the test runs."""
    count = [0]
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return count


def test_integral_brackets_construct_no_fraction(fraction_constructions):
    rng = random.Random(20)
    algebra = fixture_gla()
    pairs = []
    for _ in range(200):
        x = random_fixture_element(rng, 1)
        y = random_fixture_a_element(rng, 0) if rng.randrange(2) else random_fixture_element(rng, 1)
        pairs.append((x, y))
    assert all(type(c) is int for x, y in pairs for c in (*x.terms.values(), *y.terms.values()))
    before = fraction_constructions[0]
    nonzero = 0
    for x, y in pairs:
        nonzero += not algebra.bracket(algebra.bracket(x, y), x).is_zero()
        nonzero += not algebra.bracket(x, y).is_zero()
    assert fraction_constructions[0] == before
    assert nonzero > 100


def test_rational_brackets_construct_at_most_one_fraction_per_term(fraction_constructions):
    rng = random.Random(21)
    built = 0
    for algebra in (fixture_gla(), rational_gla()):
        space = algebra.space
        for _ in range(200):
            x, y = mixed_element(rng, space), mixed_element(rng, space)
            before = fraction_constructions[0]
            value = algebra.bracket(x, y)
            built += fraction_constructions[0] - before
            assert fraction_constructions[0] - before <= len(value.terms)
    assert built > 0  # the counter sees the kernel's Fractions
