"""Finite-dimensional graded Lie algebras given by structure constants.

Structure constants are stored only for basis pairs (i, j) with i <= j; the
reversed entry is produced by the graded antisymmetry sign, so inconsistent
tables cannot be entered.  Validation (degree additivity, antisymmetry on the
even diagonal, graded Jacobi) is report-based, never exception-based.
:func:`table_vdata` builds a quadruple on such an algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .graded import GradedSpace, HomElt, json_field, json_int, json_of
from .linfty import NonTerminatingSeriesError
from .vdata import VData


@dataclass(frozen=True)
class Violation:
    kind: str  # "degree" | "antisymmetry" | "jacobi" | "differential"
    where: tuple[str, ...]
    residual: str


@dataclass(frozen=True)
class GlaReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "where": list(v.where), "residual": v.residual}
                for v in self.violations
            ],
        }


def integer_form(x: HomElt) -> tuple[int, dict[str, int]]:
    """``(den, nums)`` with x = sum nums[n] / den * n: int numerators over
    the least common denominator of x's coefficients, kept in x's
    ``_int_form`` slot.  An all-int element is its own form over 1."""
    terms = x.terms
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den != 1:
        terms = {n: c.numerator * (den // c.denominator) for n, c in terms.items()}
    form = x._int_form = (den, terms)
    return form


class StructureGLA:
    """Graded Lie algebra on a finite graded basis, defined by a table
    (i, j) -> [b_i, b_j] for i <= j in basis order.

    A pair may be given in either order; a reversed entry is folded in
    through the antisymmetry sign, so the stored table cannot be
    antisymmetry-inconsistent.  When a pair is given in both orders, the
    first-listed order wins, and a reverse entry that disagrees with it is
    recorded in ``input_conflicts``, which :func:`verify_gla` reports.

    ``table`` holds the folded pairs i <= j (JSON output and equality read
    it).  Construction also unfolds it once into signed rows
    ``left -> right -> ((basis, num), ...)`` that :meth:`bracket` reads, int
    numerators over one table denominator (the lcm of the table's
    denominators): the entry for (j, i) carries the antisymmetry sign
    -(-1)^{|b_i||b_j|}, and a diagonal entry is stored as given, so an
    even-diagonal violation stays visible to :func:`verify_gla`."""

    def __init__(self, space: GradedSpace, table: dict[tuple[str, str], HomElt]):
        self.space = space
        index = {name: k for k, name in enumerate(space.names())}
        stored: dict[tuple[str, str], HomElt] = {}
        for (left, right), value in table.items():
            if left not in index or right not in index:
                raise KeyError(f"bracket entry uses unknown basis name ({left}, {right})")
            if value.space != space:
                raise ValueError("bracket value lives in a different space")
        conflicts: list[Violation] = []
        for (left, right), value in table.items():
            key = (left, right) if index[left] <= index[right] else (right, left)
            if key in stored:
                continue  # the reverse of a pair listed earlier, compared there
            # [b_j, b_i] = -(-1)^{|b_i||b_j|} [b_i, b_j]
            sign = 1 if space.degree_of(left) * space.degree_of(right) % 2 else -1
            reverse = table.get((right, left)) if left != right else None
            if reverse is not None and reverse != value.scale(sign):
                conflicts.append(
                    Violation("antisymmetry", (right, left), repr(reverse - value.scale(sign)))
                )
            stored[key] = value if key == (left, right) else value.scale(sign)
        self.table = {k: v for k, v in stored.items() if not v.is_zero()}
        self.input_conflicts = tuple(conflicts)
        den = lcm(*(c.denominator for v in self.table.values() for c in v.terms.values()))
        rows: dict[str, dict[str, tuple]] = {}
        for (left, right), value in self.table.items():
            terms = tuple((n, c.numerator * (den // c.denominator)) for n, c in value.terms.items())
            rows.setdefault(left, {})[right] = terms
            if left != right:
                odd = space.degree_of(left) * space.degree_of(right) % 2
                sign = 1 if odd else -1
                rows.setdefault(right, {})[left] = tuple((n, sign * c) for n, c in terms)
        self._rows = rows
        self._den = den

    # -- basics --------------------------------------------------------------

    def zero(self) -> HomElt:
        return self.space.zero()

    def gen(self, name: str, coef=1) -> HomElt:
        return self.space.gen(name, coef)

    def basis_elements(self) -> list[HomElt]:
        return [self.space.gen(n) for n in self.space.names()]

    def bracket(self, x: HomElt, y: HomElt) -> HomElt:
        """Bilinear extension of the structure-constant table, on integers.

        Each operand is read in its integer form (int numerators over one
        denominator, see :func:`integer_form`), so every product n_x n_y v of
        a term of x, a term of y and a term of their row entry is an int,
        summed into one dict.  The sums over the product of the three
        denominators are reduced once by their common gcd, each coefficient
        is built once (``int`` while integral), and the result keeps its
        integer form for the next bracket of a chain."""
        space = self.space
        if (x.space is not space and x.space != space) or (
            y.space is not space and y.space != space
        ):
            raise ValueError("bracket arguments belong to a different algebra")
        xden, xnums = x._int_form or integer_form(x)
        yden, ynums = y._int_form or integer_form(y)
        rows = self._rows
        right_terms = ynums.items()
        acc: dict = {}
        for ln, lc in xnums.items():
            row = rows.get(ln)
            if row is None:
                continue
            for rn, rc in right_terms:
                entry = row.get(rn)
                if entry is None:
                    continue
                c = lc * rc
                for name, v in entry:
                    acc[name] = acc.get(name, 0) + c * v
        den = xden * yden * self._den
        if den == 1:
            nums = terms = {name: c for name, c in acc.items() if c}
        else:
            g = gcd(den, *acc.values())
            den //= g
            nums = {name: c // g for name, c in acc.items() if c}
            terms = nums if den == 1 else {
                name: c // den if c % den == 0 else Fraction(c, den) for name, c in nums.items()
            }
        return HomElt._of(space, terms, (den, nums))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureGLA)
            and self.space == other.space
            and self.table == other.table
        )


def verify_gla(algebra: StructureGLA) -> GlaReport:
    """Check degree additivity, graded antisymmetry (even diagonal) and graded
    Jacobi on all basis pairs/triples.  Bilinearity extends the axioms."""
    space = algebra.space
    violations: list[Violation] = []
    names = space.names()
    # the generators and the pair brackets [g_i, g_j], each built once
    gens = {n: space.gen(n) for n in names}
    pairs = {(ln, rn): algebra.bracket(gens[ln], gens[rn]) for ln in names for rn in names}

    for ln in names:
        for rn in names:
            value = pairs[(ln, rn)]
            if value.is_zero():
                continue
            expected = space.degree_of(ln) + space.degree_of(rn)
            for mono in value.terms:
                if space.degree_of(mono) != expected:
                    violations.append(
                        Violation("degree", (ln, rn), repr(value))
                    )
                    break

    # the stored table covers i <= j; the only independent antisymmetry check
    # is the diagonal in even degree, where [b, b] = -[b, b] forces zero
    for name in names:
        if space.degree_of(name) % 2 == 0:
            diag = pairs[(name, name)]
            if not diag.is_zero():
                violations.append(Violation("antisymmetry", (name, name), repr(diag)))

    violations.extend(algebra.input_conflicts)

    for an in names:
        da = space.degree_of(an)
        a = gens[an]
        for bn in names:
            sign = -1 if da * space.degree_of(bn) % 2 else 1
            b = gens[bn]
            ab = pairs[(an, bn)]
            for cn in names:
                bc, ac = pairs[(bn, cn)], pairs[(an, cn)]
                if ab.is_zero() and bc.is_zero() and ac.is_zero():
                    continue  # each term of the residual brackets with zero
                lhs = algebra.bracket(a, bc)
                first, second = algebra.bracket(ab, gens[cn]), algebra.bracket(b, ac)
                rhs = first + second if sign == 1 else first - second
                if lhs != rhs:
                    violations.append(Violation("jacobi", (an, bn, cn), repr(lhs - rhs)))

    return GlaReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class LinearMap:
    """A degree-homogeneous linear map given on the basis of a GradedSpace."""

    space: GradedSpace
    images: dict[str, HomElt] = field(default_factory=dict)

    def __call__(self, x: HomElt) -> HomElt:
        if x.space is not self.space and x.space != self.space:
            raise ValueError("argument belongs to a different space")
        out = self.space.zero()
        for name, coef in x.terms.items():
            img = self.images.get(name)
            if img is not None:
                out = out + img.scale(coef)
        return out

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


def adjoint(algebra: StructureGLA, delta: HomElt) -> LinearMap:
    """The inner derivation D = [delta, .] for a homogeneous degree-1 delta.

    D o D = (1/2) [ [delta, delta], . ], so D squares to zero exactly when
    [delta, delta] = 0.
    """
    if not delta.is_zero() and delta.degree() != 1:
        raise ValueError("adjoint requires a homogeneous element of degree 1")
    images = {
        name: algebra.bracket(delta, algebra.gen(name))
        for name in algebra.space.names()
    }
    return LinearMap(algebra.space, images)


@dataclass(frozen=True)
class DGLA:
    """A graded Lie algebra with a homological degree-1 derivation."""

    algebra: StructureGLA
    differential: LinearMap

    def verify(self) -> GlaReport:
        base = verify_gla(self.algebra)
        violations = list(base.violations)
        d = self.differential
        space = self.algebra.space
        for name in space.names():
            img = d(space.gen(name))
            if img.is_zero():
                continue
            for mono in img.terms:
                if space.degree_of(mono) != space.degree_of(name) + 1:
                    violations.append(Violation("differential", (name,), repr(img)))
                    break
        for name in space.names():
            dd = d(d(space.gen(name)))
            if not dd.is_zero():
                violations.append(Violation("differential", ("d^2", name), repr(dd)))
        for ln in space.names():
            for rn in space.names():
                a, b = space.gen(ln), space.gen(rn)
                lhs = d(self.algebra.bracket(a, b))
                rhs = self.algebra.bracket(d(a), b) + self.algebra.bracket(
                    a, d(b)
                ).scale(Fraction(-1) ** (space.degree_of(ln) % 2))
                if not (lhs - rhs).is_zero():
                    violations.append(
                        Violation("differential", ("leibniz", ln, rn), repr(lhs - rhs))
                    )
        return GlaReport(ok=not violations, violations=tuple(violations))


def basis_filtration(fdeg: dict[str, int]) -> tuple[Callable[[HomElt], int], Callable[[HomElt], int]]:
    """The filtration degree and depth of elements when basis element n sits in
    filtration degree fdeg[n].

    An element's filtration degree is the least over its basis terms (large
    on zero).  With N = 1 + max fdeg, F^N = 0; if [F^i, F^j] lies in F^{i+j}
    and the subalgebra lies in F^1, each insertion into a chain raises the
    degree by at least one, so the depth of x is N - 1 - fdeg(x) (Getzler,
    math/0404003).  A filtration that contradicts the bracket is caught by
    the certificate term of the series it bounds.
    """
    top = max(fdeg.values(), default=0)

    def degree(x: HomElt) -> int:
        if x.is_zero():
            return 2**30
        return min(fdeg[n] for n in x.terms)

    def depth(x: HomElt) -> int:
        return max(top - degree(x), 0)

    return degree, depth


def chain_depth(algebra: StructureGLA, a_names: tuple[str, ...]) -> Callable[[HomElt], int]:
    """Depth of elements computed from the table: the largest n for which
    some chain [..[x, a_1], .., a_n] with each a_i in span(a_names) is
    nonzero.

    Let W_0 = span{x} and W_{k+1} = span [W_k, a]; the depth is the last k
    with W_k != 0 (once some W_k is zero, every later one is too).  With
    V_k = W_k + W_{k+1} + .., V_{k+1} = [V_k, a] lies in V_k, so V_k shrinks
    strictly until it stops changing and is constant from k = N = dim L on.
    The chains from x therefore die out if and only if W_N = 0; otherwise
    NonTerminatingSeriesError names x.  Neither Jacobi nor abelianness is
    used.
    """
    gens = [algebra.gen(n) for n in a_names]
    top = len(algebra.space.basis)

    def depth(x: HomElt) -> int:
        layer = [] if x.is_zero() else [x]  # a basis of W_k
        k = 0
        while layer:
            if k == top:
                raise NonTerminatingSeriesError(
                    f"chains of subalgebra insertions into {x!r} never vanish, "
                    f"so no depth bounds its series"
                )
            # exact elimination: each kept vector is free of the earlier pivots
            basis: dict[str, HomElt] = {}
            for w in (algebra.bracket(u, a) for u in layer for a in gens):
                for pivot, b in basis.items():
                    if pivot in w.terms:
                        w = w - b.scale(Fraction(w.terms[pivot], b.terms[pivot]))
                if not w.is_zero():
                    basis[min(w.terms)] = w
            layer = list(basis.values())
            k += 1
        return max(k - 1, 0)

    return depth


def table_vdata(
    algebra: StructureGLA,
    a_names: tuple[str, ...],
    delta: HomElt,
    project: Callable[[HomElt], HomElt],
    fdeg: dict[str, int] | None = None,
    name: str = "",
) -> VData:
    """The quadruple (algebra, span(a_names), project, delta) on a
    structure-constant algebra.  The caller supplies only the projection;
    the bracket, grading, zero, subalgebra test and sample bases come from
    the table.  With ``fdeg`` (filtration degree per basis name) the depth is
    :func:`basis_filtration`'s, otherwise :func:`chain_depth`'s."""
    space = algebra.space
    filtration = None
    if fdeg is None:
        depth = chain_depth(algebra, a_names)
    else:
        filtration, depth = basis_filtration(fdeg)
    return VData(
        bracket=algebra.bracket,
        components=HomElt.components,
        project=project,
        delta=delta,
        zero=space.zero(),
        in_a=lambda x: all(n in a_names for n in x.terms),
        sample_basis=tuple(algebra.basis_elements()),
        a_basis=tuple(space.gen(n) for n in a_names),
        filtration=filtration,
        depth=depth,
        name=name,
    )


# -- JSON interchange ---------------------------------------------------------
#
# { "basis": [{"name": .., "degree": ..}, ..],
#   "brackets": [{"left": .., "right": ..,
#                 "result": [{"coef_num": .., "coef_den": .., "basis": ..}, ..]}, ..] }
# Unlisted pairs default to zero.


def element_to_json(x: HomElt) -> list[dict]:
    return [
        {"coef_num": c.numerator, "coef_den": c.denominator, "basis": n}
        for n, c in sorted(x.terms.items())
    ]


def element_from_json(space: GradedSpace, data: list[dict], where: str = "element") -> HomElt:
    """The element listed by ``data``; ``where`` names it in input errors
    (say, a file and a field)."""
    terms: dict[str, Fraction] = {}
    for k, item in enumerate(json_of(list, data, where), 1):
        at = f"{where}, term {k}"
        item = json_of(dict, item, at)
        name = json_field(item, at, "basis", str)
        try:
            space.degree_of(name)
        except KeyError as exc:
            raise ValueError(f"{at}: {exc.args[0]}") from None
        num = json_int(json_field(item, at, "coef_num"), f"{at}: coef_num of {name!r}")
        den = json_int(item.get("coef_den", 1), f"{at}: coef_den of {name!r}")
        if den == 0:
            raise ValueError(f"{at}: coefficient {num}/{den} of {name!r} has a zero denominator")
        terms[name] = terms.get(name, 0) + Fraction(num, den)
    return HomElt(space, terms)


def gla_to_json(algebra: StructureGLA) -> dict:
    return {
        "basis": [{"name": n, "degree": d} for n, d in algebra.space.basis],
        "brackets": [
            {"left": l, "right": r, "result": element_to_json(v)}
            for (l, r), v in sorted(algebra.table.items())
        ],
    }


def gla_from_json(data: dict, where: str = "gla") -> StructureGLA:
    """The algebra a JSON table describes; ``where`` names the table in input
    errors (say, its file).  A pair listed twice in the same order is an
    input error naming both entries."""
    json_of(dict, data, where)
    basis = []
    for k, b in enumerate(json_field(data, where, "basis", list), 1):
        at = f"{where}, basis entry {k}"
        name = json_field(json_of(dict, b, at), at, "name", str)
        basis.append((name, json_int(json_field(b, at, "degree"), f"{at}: degree of {name!r}")))
    space = GradedSpace.of(basis)
    table: dict[tuple[str, str], HomElt] = {}
    entry_of: dict[tuple[str, str], int] = {}
    for k, entry in enumerate(json_of(list, data.get("brackets", []), f'{where}: field "brackets"'), 1):
        at = f"{where}, bracket entry {k}"
        json_of(dict, entry, at)
        key = (json_field(entry, at, "left", str), json_field(entry, at, "right", str))
        value = element_from_json(space, json_field(entry, at, "result"), f'{at}: field "result"')
        if key in entry_of:
            raise ValueError(
                f"{at}: [{key[0]}, {key[1]}] is already given by bracket entry {entry_of[key]}"
            )
        entry_of[key] = k
        table[key] = value
    return StructureGLA(space, table)


def sample_gla() -> StructureGLA:
    """The two-generator algebra with [h, e] = e (h in degree 0, e in degree 1)."""
    space = GradedSpace.of([("h", 0), ("e", 1)])
    return StructureGLA(space, {("h", "e"): space.gen("e")})
