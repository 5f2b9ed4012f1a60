"""Quadruples (L, a, P, Delta) and the two derived-bracket constructions.

A quadruple consists of a graded Lie algebra L, an abelian subalgebra a, a
projection P: L -> a whose kernel is a subalgebra, and a degree-1 element
Delta with [Delta, Delta] = 0 ("curved" drops the requirement Delta in Ker P).
From it the small algebra lives on a with brackets

    {a_1, .., a_n} = P [ .. [[Delta, a_1], a_2], .., a_n ]      ({} := P Delta
                                                                 when curved)

and, for Delta in Ker P, the big algebra lives on L[1] (+) a with

    d(x[1], a)        = (-(D x)[1], P(x + D a))          D := [Delta, .]
    {x[1], y[1]}      = [x, y][1] (-1)^{|x|}
    {x[1], a_1..a_n}  = P [ .. [x, a_1], .., a_n ]
    {a_1, .., a_n}    = P [ .. [D a_1, a_2], .., a_n ]

and all remaining multibrackets vanish.  Both constructions are delivered as
:class:`~derived_brackets.linfty.LInftyOne` handles whose higher-Jacobi
relations are property-tested rather than assumed.

The backend is abstract: brackets, degrees and projections are supplied as
callables, so structure-constant algebras, polynomial multivector fields and
super-polynomial models all plug in here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from .linfty import Filtration, LInftyOne, MCError, NonTerminatingSeriesError, mc_residual

Elt = Any


@dataclass(frozen=True)
class VData:
    """The quadruple, plus enough backend metadata to validate and to bound
    the series appearing downstream.

    ``degree`` is the grading of L.  ``sample_basis`` spans (a sufficient
    sample of) L for validation; ``a_basis`` spans the relevant part of a.
    ``series_bound(phi)``, when provided, certifies that any iterated bracket
    containing more than series_bound(phi) insertions of phi vanishes.
    """

    bracket: Callable[[Elt, Elt], Elt]
    degree: Callable[[Elt], int | None]
    components: Callable[[Elt], list[tuple[int, Elt]]]
    project: Callable[[Elt], Elt]
    delta: Elt
    zero: Elt
    in_a: Callable[[Elt], bool]
    sample_basis: tuple = ()
    a_basis: tuple = ()
    curved: bool = False
    filtration: Filtration | None = None
    series_bound: Callable[[Elt], int] | None = None
    max_arity: int | None = None
    name: str = ""

    def adjoint_delta(self, x: Elt) -> Elt:
        return self.bracket(self.delta, x)


@dataclass(frozen=True)
class VDataReport:
    ok: bool
    failures: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failures": [list(f) for f in self.failures]}


def validate_vdata(v: VData) -> VDataReport:
    """Check the four quadruple axioms on the declared sample basis, reporting
    each failure with a witness."""
    failures: list[tuple[str, str]] = []

    for x in v.sample_basis:
        px = v.project(x)
        if not (v.project(px) - px).is_zero():
            failures.append(("projection not idempotent", repr(x)))
        if not px.is_zero() and not v.in_a(px):
            failures.append(("projection image leaves the subalgebra", repr(x)))

    for a, b in itertools.combinations_with_replacement(v.a_basis, 2):
        if not v.bracket(a, b).is_zero():
            failures.append(("subalgebra is not abelian", f"[{a!r}, {b!r}]"))

    for x in v.sample_basis:
        kx = x - v.project(x)
        for y in v.sample_basis:
            ky = y - v.project(y)
            image = v.project(v.bracket(kx, ky))
            if not image.is_zero():
                failures.append(("kernel not closed under bracket", f"[{x!r}, {y!r}]"))

    if not v.delta.is_zero() and v.degree(v.delta) != 1:
        failures.append(("degree-1 element has wrong degree", repr(v.delta)))
    square = v.bracket(v.delta, v.delta)
    if not square.is_zero():
        failures.append(("element does not square to zero", repr(square)))
    if not v.curved and not v.project(v.delta).is_zero():
        failures.append(("flagged non-curved but P(Delta) != 0", repr(v.project(v.delta))))

    return VDataReport(ok=not failures, failures=tuple(failures))


# -- exponential of the right adjoint action ------------------------------------


def exp_ad(v: VData, phi: Elt, x: Elt, cap: int = 64) -> Elt:
    """e^{[., phi]} x = sum_n (1/n!) [..[x, phi], .., phi].

    Terminates via the declared series bound or by exact nilpotency (once an
    iterated bracket hits zero it stays zero); raises after ``cap`` live terms.
    """
    bound = v.series_bound(phi) if v.series_bound is not None else None
    total = x
    current = x
    n = 0
    while True:
        current = v.bracket(current, phi)
        n += 1
        if current.is_zero():
            return total
        if bound is not None and n > bound:
            raise NonTerminatingSeriesError(
                f"declared series bound {bound} violated by a surviving term: {current!r}"
            )
        total = total + current.scale(Fraction(1, math.factorial(n)))
        if n >= cap:
            raise NonTerminatingSeriesError(
                f"adjoint exponential did not terminate within {cap} iterations; "
                f"first surviving term: {current!r}"
            )


def p_phi(v: VData, phi: Elt) -> Callable[[Elt], Elt]:
    """The deformed projection P_phi = P o e^{[., phi]}.

    Restricted to the abelian subalgebra this is the identity, and phi is
    Maurer-Cartan in the small algebra exactly when P_phi(Delta) = 0.
    """
    if not v.in_a(phi):
        raise ValueError("deformation direction must lie in the abelian subalgebra")
    if not phi.is_zero() and v.degree(phi) != 0:
        raise ValueError("deformation direction must have degree 0")

    def projection(x: Elt) -> Elt:
        return v.project(exp_ad(v, phi, x))

    return projection


def deform_vdata(v: VData, phi: Elt, extra_delta: Elt | None = None, name: str = "") -> VData:
    """The quadruple with projection P_phi and optionally a shifted Delta."""
    projection = p_phi(v, phi)
    delta = v.delta if extra_delta is None else v.delta + extra_delta
    curved = not projection(delta).is_zero()
    return VData(
        bracket=v.bracket,
        degree=v.degree,
        components=v.components,
        project=projection,
        delta=delta,
        zero=v.zero,
        in_a=v.in_a,
        sample_basis=v.sample_basis,
        a_basis=v.a_basis,
        curved=curved,
        filtration=v.filtration,
        series_bound=v.series_bound,
        max_arity=v.max_arity,
        name=name or (f"{v.name}@deformed" if v.name else "deformed"),
    )


# -- the small algebra ------------------------------------------------------------


def small_algebra(v: VData) -> LInftyOne:
    """The derived-bracket algebra on the abelian subalgebra."""

    def m(k: int, args: tuple) -> Elt:
        if k == 0:
            if not v.curved:
                raise ValueError("non-curved small algebra has no 0-ary bracket")
            return v.project(v.delta)
        current = v.delta
        for a in args:
            current = v.bracket(current, a)
            if current.is_zero():
                return v.zero
        return v.project(current)

    filtration = None
    if v.filtration is not None and v.series_bound is not None:
        filtration = Filtration(
            degree=v.filtration.degree,
            series_bound=v.series_bound,
            complete_by_construction=v.filtration.complete_by_construction,
        )

    return LInftyOne(
        degree=v.degree,
        components=v.components,
        m=m,
        zero=v.zero,
        curved=v.curved,
        filtration=filtration,
        max_arity=v.max_arity,
        name=f"small({v.name})" if v.name else "small",
    )


# -- the big algebra ---------------------------------------------------------------


class BigElt:
    """An element of L[1] (+) a: ``x`` is the unshifted representative of the
    L[1] component, ``a`` the subalgebra component."""

    __slots__ = ("x", "a")

    def __init__(self, x: Elt, a: Elt):
        self.x = x
        self.a = a

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.a.is_zero()

    def __add__(self, other: "BigElt") -> "BigElt":
        return BigElt(self.x + other.x, self.a + other.a)

    def __sub__(self, other: "BigElt") -> "BigElt":
        return BigElt(self.x - other.x, self.a - other.a)

    def __neg__(self) -> "BigElt":
        return BigElt(-self.x, -self.a)

    def scale(self, scalar) -> "BigElt":
        return BigElt(self.x.scale(scalar), self.a.scale(scalar))

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, BigElt) and self.x == other.x and self.a == other.a

    def __hash__(self) -> int:
        return hash((self.x, self.a))

    def __repr__(self) -> str:
        return f"({self.x!r})[1] + ({self.a!r})"


def big_algebra(v: VData) -> LInftyOne:
    """The derived-bracket algebra on L[1] (+) a.  Requires Delta in Ker(P).

    ``m_k`` splits its arguments into homogeneous pairs (x[1], a) and sums
    over which component each slot contributes.  Only the patterns that can
    be nonzero are built: at k = 1 the L[1] part and the a part; at k = 2
    the (L[1], L[1]) pattern; one L[1] entry at each position with the
    a parts elsewhere; and the all-a pattern.  Every other pattern has two
    or more L[1] entries at arity >= 3, and the construction (the brackets
    listed in the module docstring) sets those brackets to zero, so the
    cost is O(k) chains instead of 2^k patterns.  The live terms are summed
    in the order of the full enumeration, so results are identical term for
    term.  Within one call a slot that repeats its left neighbour (as in
    m_n(phi, .., phi)) reuses that neighbour's projected chain.
    """
    if v.curved or not v.project(v.delta).is_zero():
        raise ValueError("the big construction needs a genuine (non-curved) quadruple")

    zero_pair = BigElt(v.zero, v.zero)

    def pair_degree(e: BigElt) -> int | None:
        degs = set()
        if not e.x.is_zero():
            dx = v.degree(e.x)
            if dx is None:
                return None
            degs.add(dx - 1)
        if not e.a.is_zero():
            da = v.degree(e.a)
            if da is None:
                return None
            degs.add(da)
        if len(degs) == 1:
            return degs.pop()
        return None

    def pair_components(e: BigElt) -> list[tuple[int, BigElt]]:
        by: dict[int, BigElt] = {}
        for d, part in v.components(e.x):
            w = d - 1
            by[w] = by.get(w, zero_pair) + BigElt(part, v.zero)
        for d, part in v.components(e.a):
            by[d] = by.get(d, zero_pair) + BigElt(v.zero, part)
        return sorted(by.items())

    def projected_chain(x: Elt, rest: Sequence[Elt]) -> Elt:
        current = x
        for a in rest:
            current = v.bracket(current, a)
            if current.is_zero():
                return v.zero
        return v.project(current)

    def m(k: int, args: tuple) -> BigElt:
        if k == 0:
            raise ValueError("the big construction is never curved")
        total = zero_pair
        # decompose arguments into homogeneous pairs; a repeated argument
        # shares the decomposition of its left neighbour, so its parts stay
        # the identical objects
        comps = []
        for i, arg in enumerate(args):
            if i and arg is args[i - 1]:
                comps.append(comps[-1])
                continue
            if arg.is_zero():
                return zero_pair
            if pair_degree(arg) is not None:
                comps.append([arg])
            else:
                comps.append([part for _, part in pair_components(arg)])
        for combo in itertools.product(*comps):
            if k == 1:
                x, a = combo[0].x, combo[0].a
                if not x.is_zero():
                    total = total + BigElt(-v.adjoint_delta(x), v.project(x))
                if not a.is_zero():
                    total = total + BigElt(v.zero, v.project(v.adjoint_delta(a)))
                continue
            if k == 2:
                x, y = combo[0].x, combo[1].x
                if not x.is_zero() and not y.is_zero():
                    crochet = v.bracket(x, y)
                    if not crochet.is_zero():
                        sign = -1 if v.degree(x) % 2 else 1
                        total = total + BigElt(crochet.scale(sign), v.zero)
            a_parts = [e.a for e in combo]
            a_zero = [a.is_zero() for a in a_parts]
            n_zero = sum(a_zero)
            if n_zero > 1:
                continue
            # one L[1] entry at pos, subalgebra entries in every other slot
            prefix = 0
            for pos, e in enumerate(combo):
                # a slot repeating its left neighbour has identical chain
                # inputs, so it reuses that chain; only its sign is new
                if not (pos and e is combo[pos - 1]):
                    deg = pair_degree(e)
                    value = None
                    if not e.x.is_zero() and (n_zero == 0 or a_zero[pos]):
                        value = projected_chain(e.x, a_parts[:pos] + a_parts[pos + 1:])
                if value is not None and not value.is_zero():
                    sign = -1 if deg % 2 == 1 and prefix % 2 == 1 else 1
                    total = total + BigElt(v.zero, value.scale(sign))
                prefix += deg
            if n_zero == 0:
                first = v.adjoint_delta(a_parts[0])
                value = projected_chain(first, a_parts[1:])
                if not value.is_zero():
                    total = total + BigElt(v.zero, value)
        return total

    def pair_series_bound(e: BigElt) -> int:
        # a nonzero bracket holds at most two L[1] entries, so insertions of
        # the pair beyond (bound for the a-part) + 2 all die
        if e.a.is_zero():
            return 2
        assert v.series_bound is not None
        return v.series_bound(e.a) + 2

    filtration = None
    if v.filtration is not None and v.series_bound is not None:
        base_fdeg = v.filtration.degree

        def pair_fdeg(e: BigElt) -> int:
            # only the subalgebra component governs series convergence here:
            # nonzero brackets accept at most two L[1] entries
            if e.a.is_zero():
                return 2**30
            return base_fdeg(e.a)

        filtration = Filtration(
            degree=pair_fdeg,
            series_bound=pair_series_bound,
            complete_by_construction=v.filtration.complete_by_construction,
        )

    max_arity = None if v.max_arity is None else v.max_arity + 1

    return LInftyOne(
        degree=pair_degree,
        components=pair_components,
        m=m,
        zero=zero_pair,
        curved=False,
        filtration=filtration,
        max_arity=max_arity,
        name=f"big({v.name})" if v.name else "big",
    )


# -- twisting at the quadruple level ------------------------------------------------


def twist_vdata(v: VData, alpha: BigElt, check: bool = True, max_terms: int = 12) -> VData:
    """Twisted quadruple (L, a, P_{Phi'}, Delta + Delta') for a Maurer-Cartan
    element alpha = (Delta'[1], Phi') of the big algebra."""
    if check:
        report = mc_residual(big_algebra(v), alpha, max_terms=max_terms)
        if not report.residual.is_zero():
            raise MCError("twisting requires a Maurer-Cartan element", report.residual)
    deformed = deform_vdata(v, alpha.a, extra_delta=alpha.x,
                            name=f"{v.name}@twist" if v.name else "twisted")
    return deformed


# -- the executable simultaneous-deformation equivalence ----------------------------


@dataclass(frozen=True)
class MachineReport:
    """Both sides of the simultaneous-deformation criterion, computed by
    independent routes."""

    bracket_square: Elt
    exponential_residual: Elt
    big_mc_residual: BigElt
    left_vanishes: bool
    right_vanishes: bool

    @property
    def agree(self) -> bool:
        return self.left_vanishes == self.right_vanishes

    def as_dict(self) -> dict:
        return {
            "left_bracket_square_zero": self.bracket_square.is_zero(),
            "left_exponential_residual_zero": self.exponential_residual.is_zero(),
            "right_big_mc_zero": self.big_mc_residual.is_zero(),
            "left_vanishes": self.left_vanishes,
            "right_vanishes": self.right_vanishes,
            "agree": self.agree,
        }


def machine_check(v: VData, phi: Elt, dtilde: Elt, ptilde: Elt,
                  max_terms: int = 12) -> MachineReport:
    """Double-check of the simultaneous deformation criterion.

    Left side (closed forms): [Delta + dtilde, Delta + dtilde] and the curved
    Maurer-Cartan residual of phi + ptilde computed exponentially as
    P e^{[., phi + ptilde]} (Delta + dtilde).

    Right side (series): the Maurer-Cartan residual of (dtilde[1], ptilde) in
    the big algebra over the deformed projection P_phi.

    The two sides vanish together; the report carries both residual pairs.
    """
    small = small_algebra(v)
    phi_report = mc_residual(small, phi, max_terms=max_terms)
    if not phi_report.residual.is_zero():
        raise MCError("base deformation direction is not Maurer-Cartan",
                      phi_report.residual)

    total_delta = v.delta + dtilde
    square = v.bracket(total_delta, total_delta)
    exp_residual = v.project(exp_ad(v, phi + ptilde, total_delta))

    deformed = deform_vdata(v, phi)
    big = big_algebra(deformed)
    right = mc_residual(big, BigElt(dtilde, ptilde), max_terms=max_terms)

    left_vanishes = square.is_zero() and exp_residual.is_zero()
    right_vanishes = right.residual.is_zero()
    return MachineReport(
        bracket_square=square,
        exponential_residual=exp_residual,
        big_mc_residual=right.residual,
        left_vanishes=left_vanishes,
        right_vanishes=right_vanishes,
    )


# -- restriction to a stable subalgebra ----------------------------------------------


def restrict(
    v: VData,
    big: LInftyOne,
    member: Callable[[Elt], bool],
    lprime_basis: Sequence[Elt],
) -> LInftyOne:
    """The induced structure on L'[1] (+) a for a bracket-closed, D-stable
    subspace L'.  Closure and stability are checked on the given basis and a
    failure raises with the witness element."""
    for x in lprime_basis:
        dx = v.adjoint_delta(x)
        if not dx.is_zero() and not member(dx):
            raise ValueError(f"subspace not stable under the differential: D({x!r})")
        for y in lprime_basis:
            b = v.bracket(x, y)
            if not b.is_zero() and not member(b):
                raise ValueError(f"subspace not closed under the bracket: [{x!r}, {y!r}]")

    def m(k: int, args: tuple) -> BigElt:
        for arg in args:
            if not arg.x.is_zero() and not member(arg.x):
                raise ValueError(f"argument outside the restricted subspace: {arg!r}")
        return big.m(k, args)

    return LInftyOne(
        degree=big.degree,
        components=big.components,
        m=m,
        zero=big.zero,
        curved=big.curved,
        termination_bound=big.termination_bound,
        filtration=big.filtration,
        max_arity=big.max_arity,
        name=f"{big.name}|L'",
    )
