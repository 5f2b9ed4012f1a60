"""Quadruples (L, a, P, Delta) and the two derived-bracket constructions.

A quadruple consists of a graded Lie algebra L, an abelian subalgebra a, a
projection P: L -> a whose kernel is a subalgebra, and a degree-1 element
Delta with [Delta, Delta] = 0.  It is *curved* exactly when Delta is not in
Ker P (Voronov, math/0304038); the quadruple computes this from its own data
rather than being told.  From it the small algebra lives on a with brackets

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

Both handles carry their Maurer-Cartan residual in closed form:

    small:  sum_n (1/n!) m_n(phi, .., phi)  = P e^{[., phi]} Delta
    big:    sum_n (1/n!) m_n(alpha, .., alpha)
                = (-1/2 [Delta + x, Delta + x][1], P e^{[., phi]} (Delta + x))
            for alpha = (x[1], phi)

(derivation in :func:`big_algebra`).  The closed forms serve where a
residual is only a check or a value: :func:`~derived_brackets.linfty.twist`
(its check and its curvature m_0), :func:`twist_vdata` and the precondition
of :func:`machine_check`.  The series stay the definitions and the
independent cross-checks: :func:`~derived_brackets.linfty.mc_residual`
(which ``dbrack mc`` reports with its term count), gauge fields, the twisted
brackets and the right side of :func:`machine_check`, which compares the
series with the closed left side.

Elements of L[1] (+) a are :class:`BigElt`, the two-part direct sum of
:mod:`~derived_brackets.graded` with degree offsets (-1, 0).  The
twisted-Poisson carrier Omega[3] (+) X[2] is the same type
(:class:`~derived_brackets.tpois.TPoisElement`), which is how the coordinate
model's oracle already evaluates it: as a BigElt(form image, multivector
image) of its big algebra.

The backend is abstract: brackets, the grading (``components``) and
projections are supplied as callables, so structure-constant algebras,
polynomial multivector fields and super-polynomial models all plug in here.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .graded import DirectSum, add_terms, degree_of, direct_sum_grading
from .linfty import (
    LInftyOne,
    MCError,
    NonTerminatingSeriesError,
    add_slot_chains,
    check_mc_candidate,
    checked_mc_residual,
    homogeneous_combinations,
    mc_residual,
)

Elt = Any


class _Basis:
    """A :class:`VData` basis field.  It holds a tuple, or a zero-argument
    builder of one, which runs on the first read of the field; the tuple is
    then kept on that quadruple object."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner):
        if obj is None:
            return ()  # the field's default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = tuple(value())
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class VData:
    """The quadruple, plus enough backend metadata to validate and to bound
    the series appearing downstream.

    ``components`` is the one grading of L: an element's (degree,
    homogeneous part) pairs by ascending degree, a homogeneous element being
    its own one part; :meth:`degree` reads from it.  ``filtration``, when
    given, maps elements of L to their degree in a complete filtration
    (large on zero), with [F^i, F^j] in F^{i+j}.  ``sample_basis`` spans (a
    sufficient sample of) L for validation; ``a_basis`` spans the relevant
    part of a.  Either may be given as a zero-argument builder of its tuple,
    run on the first read, so a quadruple that is never validated never
    builds them; :func:`deform_vdata` hands an unread builder on unbuilt.
    ``depth(x)``, when provided, is the largest n for which a chain
    [..[x, a_1], .., a_n] of subalgebra elements can be nonzero; each backend
    proves its depth.  It bounds every series downstream (see
    :func:`_arity_bound`) and depends only on L and a, so deforming or
    twisting the quadruple keeps it.

    ``curved`` is not an argument: it is computed once from the data, as
    P(Delta) != 0, so ``dataclasses.replace`` (a new projection or Delta)
    recomputes it.  The big algebra sums by ``terms``, so elements of L are
    :class:`~derived_brackets.graded.SparseCombination` (``HomElt``,
    ``PolyMultivector``, ``SuperPoly``).
    """

    bracket: Callable[[Elt, Elt], Elt]
    components: Callable[[Elt], list[tuple[int, Elt]]]
    project: Callable[[Elt], Elt]
    delta: Elt
    zero: Elt
    in_a: Callable[[Elt], bool]
    sample_basis: tuple = _Basis()
    a_basis: tuple = _Basis()
    curved: bool = dataclasses.field(init=False)
    filtration: Callable[[Elt], int] | None = None
    depth: Callable[[Elt], int] | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "curved", not self.project(self.delta).is_zero())

    def degree(self, x: Elt) -> int | None:
        """Degree of x if it is homogeneous and nonzero, else None."""
        return degree_of(self.components(x))

    def adjoint_delta(self, x: Elt) -> Elt:
        return x if x.is_zero() else self.bracket(self.delta, x)


@dataclass(frozen=True)
class VDataReport:
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failures": [list(f) for f in self.failures]}


def validate_vdata(v: VData) -> VDataReport:
    """Check the four quadruple axioms on the declared sample basis, reporting
    each failure with a witness.  Each sample element's kernel part x - P(x)
    is formed once, and only the nonzero parts are bracketed: a pair with a
    zero part brackets to zero, so it cannot fail the kernel check."""
    failures: list[tuple[str, str]] = []
    kernel = []  # (x, x - P(x)) for each sample element with a nonzero kernel part

    for x in v.sample_basis:
        px = v.project(x)
        if not (v.project(px) - px).is_zero():
            failures.append(("projection not idempotent", repr(x)))
        if not px.is_zero() and not v.in_a(px):
            failures.append(("projection image leaves the subalgebra", repr(x)))
        kx = x - px
        if not kx.is_zero():
            kernel.append((x, kx))

    for a, b in itertools.combinations_with_replacement(v.a_basis, 2):
        if not v.bracket(a, b).is_zero():
            failures.append(("subalgebra is not abelian", f"[{a!r}, {b!r}]"))

    for x, kx in kernel:
        for y, ky in kernel:
            if not v.project(v.bracket(kx, ky)).is_zero():
                failures.append(("kernel not closed under bracket", f"[{x!r}, {y!r}]"))

    if not v.delta.is_zero() and v.degree(v.delta) != 1:
        failures.append(("degree-1 element has wrong degree", repr(v.delta)))
    square = v.bracket(v.delta, v.delta)
    if not square.is_zero():
        failures.append(("element does not square to zero", repr(square)))

    return VDataReport(tuple(failures))


# -- exponential of the right adjoint action ------------------------------------


def exp_ad(v: VData, phi: Elt, x: Elt) -> Elt:
    """e^{[., phi]} x = sum_n (1/n!) [..[x, phi], .., phi] for phi in a.

    Terminates by exact nilpotency (once an iterated bracket hits zero it
    stays zero), which must happen by the depth of x.  The depth is read at
    the first nonzero term, so phi = 0 returns x even without one; a
    quadruple without a depth raises there.
    """
    total = current = x
    bound = None
    for n in itertools.count(1):
        current = v.bracket(current, phi)
        if current.is_zero():
            return total
        if bound is None:
            bound = -1 if v.depth is None else v.depth(x)  # -1: no term may survive
        if n > bound:
            raise NonTerminatingSeriesError(
                f"no depth of {x!r} bounds the surviving term {current!r}"
            )
        total = total + current.scale(Fraction(1, math.factorial(n)))


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
    """The quadruple with projection P_phi and optionally a shifted Delta.
    Its bases are v's as stored: a builder that v has not yet run is handed
    on, and the new quadruple runs it only when its own basis is read."""
    return dataclasses.replace(
        v,
        project=p_phi(v, phi),
        delta=v.delta if extra_delta is None else v.delta + extra_delta,
        name=name or (f"{v.name}@deformed" if v.name else "deformed"),
        **{field: v.__dict__[field] for field in ("sample_basis", "a_basis")},
    )


# -- the small algebra ------------------------------------------------------------


def _projected_chain(v: VData, x: Elt, rest: Sequence[Elt]) -> Elt:
    """P [ .. [x, a_1], .., a_n ] for ``rest`` = (a_1, .., a_n); zero as soon
    as a partial chain vanishes."""
    current = x
    for a in rest:
        current = v.bracket(current, a)
        if current.is_zero():
            return v.zero
    return v.project(current)


def small_algebra(v: VData) -> LInftyOne:
    """The derived-bracket algebra on the abelian subalgebra.

    Its closed Maurer-Cartan residual is P e^{[., phi]} Delta: the n-th term
    of sum_n (1/n!) m_n(phi, .., phi) is (1/n!) P [..[Delta, phi], .., phi],
    and the n = 0 term P Delta is the curvature of a curved quadruple.
    """

    def m(k: int, args: tuple) -> Elt:
        if k == 0:
            if not v.curved:
                raise ValueError("non-curved small algebra has no 0-ary bracket")
            return v.project(v.delta)
        return _projected_chain(v, v.delta, args)

    return LInftyOne(
        components=v.components,
        m=m,
        zero=v.zero,
        curved=v.curved,
        arity_bound=_arity_bound(v, big=False),
        name=f"small({v.name})" if v.name else "small",
        closed_residual=lambda phi: v.project(exp_ad(v, phi, v.delta)),
    )


def _arity_bound(v: VData, big: bool) -> Callable[[tuple], int] | None:
    """The arity bound of the small (or big) algebra over given elements,
    from the depth of the quadruple; None without a depth.

    Every bracket is a projected chain of subalgebra insertions, and the
    projection (P, or P_phi = P e^{[., phi]} with phi in a) only appends
    further ones.  A small m_n inserts n elements into Delta, so it vanishes
    for n > depth(Delta).  A big m_n is m_1, the binary crochet, the all-a
    chain from Delta (n <= depth(Delta)), or the chain from one L-part x with
    the n - 1 remaining slots in a (n <= depth(x) + 1), so it vanishes for n
    above max(2, depth(Delta), depth(x) + 1 over the L-parts x).

    A filtration's depth (:func:`~derived_brackets.gla.basis_filtration`)
    needs the inserted elements in F^1, so a degree-0 subalgebra part (a
    Maurer-Cartan input) outside F^1 is rejected as an input error.
    depth(Delta) is first evaluated by a series, so an algebra whose chains
    from Delta never vanish still evaluates its brackets.
    """
    depth = v.depth
    if depth is None:
        return None
    fdeg = v.filtration
    base = functools.cache(lambda: depth(v.delta))

    def bound(elements: tuple) -> int:
        n = max(base(), 2) if big else base()
        for e in elements:
            a = e.a if big else e
            if fdeg is not None and not a.is_zero() and v.degree(a) == 0 and fdeg(a) < 1:
                raise ValueError(
                    f"Maurer-Cartan input must have filtration degree >= 1, got {fdeg(a)}"
                )
            if big and not e.x.is_zero():
                n = max(n, depth(e.x) + 1)
        return n

    return bound


# -- the big algebra ---------------------------------------------------------------


class BigElt(DirectSum):
    """An element of L[1] (+) a: ``x`` is the unshifted representative of the
    L[1] component, ``a`` the subalgebra component."""

    __slots__ = ()
    x = DirectSum.first
    a = DirectSum.second

    def __repr__(self) -> str:
        return f"({self.x!r})[1] + ({self.a!r})"


def big_algebra(v: VData) -> LInftyOne:
    """The derived-bracket algebra on L[1] (+) a.  Requires Delta in Ker(P).

    m_1 is d(x[1], a) = (-(D x)[1], P(x + D a)) on the whole argument.  At
    k >= 2, ``m_k`` builds only the patterns that can be nonzero: once, the
    unsigned all-a pattern P [..[Delta, a_1], .., a_k] (the small m_k on the
    whole a parts); per homogeneous combination of pairs (x[1], a), the
    (L[1], L[1]) pattern at k = 2 and one L[1] entry at each position with
    the a parts elsewhere (:func:`~derived_brackets.linfty.add_slot_chains`).
    Every other pattern has two or more L[1] entries at arity >= 3, where
    the construction sets the bracket to zero, so the cost is O(k) chains
    instead of 2^k patterns.  The terms of all patterns are added into one
    dict per part, and each part is built once by the backend's ``_of``.

    Its closed Maurer-Cartan residual at alpha = (x[1], phi) is

        sum_n (1/n!) m_n(alpha, .., alpha)
            = (-1/2 [Delta + x, Delta + x][1], P e^{[., phi]} (Delta + x)).

    The L[1] part comes from m_1 and m_2 alone: -(D x) from m_1 and
    (1/2!) {x[1], x[1]} = -1/2 [x, x] (x has odd degree 1); with
    [x, Delta] = [Delta, x] and [Delta, Delta] = 0 this is
    -1/2 [Delta + x, Delta + x], and :func:`_square_part` computes the sum
    -(D x) - 1/2 [x, x] itself, which equals the series on every quadruple
    the construction accepts.  In the a part, m_n(alpha, .., alpha) holds
    the chain from x with n - 1 copies of phi once per slot of x, n slots
    in all, and n/n! = 1/(n-1)!, so these chains sum to P e^{[., phi]} x;
    the all-a chains (1/n!) P [..[Delta, phi], .., phi] for n >= 1 sum to
    P e^{[., phi]} Delta, as its n = 0 term P Delta is 0.
    """
    if v.curved:
        raise ValueError("the big construction needs a genuine (non-curved) quadruple")

    # x[1] sits one degree below x; the a part keeps its degree
    components = direct_sum_grading(BigElt, (v.components, -1), (v.components, 0))

    def chain(degrees, pos, x, rest):
        return _projected_chain(v, x, rest)

    part = functools.partial(v.zero._of, v.zero.ambient)

    def m(k: int, args: tuple) -> BigElt:
        if k == 0:
            raise ValueError("the big construction is never curved")
        if k == 1:
            x, a = args[0].x, args[0].a
            return BigElt(-v.adjoint_delta(x), v.project(x + v.adjoint_delta(a)))
        x_terms: dict = {}
        a_terms: dict = {}
        for combo, degrees in homogeneous_combinations(args, components):
            if k == 2:
                x, y = combo[0].x, combo[1].x
                if not x.is_zero() and not y.is_zero():
                    # (-1)^{|x|}, where |x| = degrees[0] + 1
                    crochet = v.bracket(x, y)
                    add_terms(x_terms, (crochet if degrees[0] % 2 else -crochet).terms)
            add_slot_chains(combo, degrees, [e.x for e in combo], [e.a for e in combo], chain,
                            a_terms)
        if not any(e.a.is_zero() for e in args):
            add_terms(a_terms, _projected_chain(v, v.delta, [e.a for e in args]).terms)
        return BigElt(part(x_terms), part(a_terms))

    return LInftyOne(
        components=components,
        m=m,
        zero=BigElt(v.zero, v.zero),
        curved=False,
        arity_bound=_arity_bound(v, big=True),
        name=f"big({v.name})" if v.name else "big",
        closed_residual=lambda alpha: BigElt(
            _square_part(v, alpha.x), v.project(exp_ad(v, alpha.a, v.delta + alpha.x))
        ),
    )


def _square_part(v: VData, x: Elt) -> Elt:
    """The L[1] part -(D x) - 1/2 [x, x] of the big Maurer-Cartan residual of
    (x[1], phi) (:func:`big_algebra`)."""
    return -(v.adjoint_delta(x) + v.bracket(x, x).scale(Fraction(1, 2)))


# -- twisting at the quadruple level ------------------------------------------------


def twist_vdata(v: VData, alpha: BigElt) -> VData:
    """Twisted quadruple (L, a, P_{Phi'}, Delta + Delta') for a Maurer-Cartan
    element alpha = (Delta'[1], Phi') of the big algebra.  alpha is always
    checked: a nonzero residual raises MCError, and a check that cannot be
    certified raises NonTerminatingSeriesError.  The twisted quadruple is
    then flat: Delta + Delta' lies in Ker P_{Phi'} by the
    simultaneous-deformation criterion (:func:`machine_check`).

    The check is the big algebra's closed residual (:func:`big_algebra`),
    whose a part P e^{[., Phi']} (Delta + Delta') is the twisted quadruple's
    own P_{Phi'}(Delta + Delta'): the quadruple computes it once, as its
    ``curved`` flag, and it is computed again only for an MCError."""
    check_mc_candidate(big_algebra(v), alpha)
    twisted = deform_vdata(v, alpha.a, extra_delta=alpha.x,
                           name=f"{v.name}@twist" if v.name else "twisted")
    square = _square_part(v, alpha.x)
    if twisted.curved or not square.is_zero():
        raise MCError("twisting requires a Maurer-Cartan element",
                      BigElt(square, twisted.project(twisted.delta)))
    return twisted


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


def machine_check(v: VData, phi: Elt, dtilde: Elt, ptilde: Elt) -> MachineReport:
    """Double-check of the simultaneous deformation criterion.

    Left side (closed forms): [Delta + dtilde, Delta + dtilde] and the curved
    Maurer-Cartan residual of phi + ptilde computed exponentially as
    P e^{[., phi + ptilde]} (Delta + dtilde).

    Right side (series): the Maurer-Cartan residual of (dtilde[1], ptilde) in
    the big algebra over the deformed projection P_phi.

    The two sides vanish together; the report carries both residual pairs.
    The precondition that phi is Maurer-Cartan in the small algebra is
    checked by that algebra's closed residual.
    """
    phi_residual = checked_mc_residual(small_algebra(v), phi)
    if not phi_residual.is_zero():
        raise MCError("base deformation direction is not Maurer-Cartan", phi_residual)

    total_delta = v.delta + dtilde
    square = v.bracket(total_delta, total_delta)
    exp_residual = v.project(exp_ad(v, phi + ptilde, total_delta))

    deformed = deform_vdata(v, phi)
    big = big_algebra(deformed)
    right = mc_residual(big, BigElt(dtilde, ptilde))

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

    # the closed residual would skip m's membership check
    return dataclasses.replace(big, m=m, name=f"{big.name}|L'", closed_residual=None)
