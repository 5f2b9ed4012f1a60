"""Generic (curved) L-infinity[1] algebra interface.

An algebra is a handle around a multibracket evaluator ``m(k, args)`` where
every ``m_k`` has degree +1 and is graded symmetric for the Koszul sign of the
carrier's grading.  On top of the evaluator this module provides

  * higher-Jacobi relation residuals,
  * Maurer-Cartan residuals with termination bookkeeping,
  * twisting by a Maurer-Cartan element,
  * gauge vector fields of degree -1 elements,
  * the degree-shift converter between antisymmetric (degree 2-k) bracket
    families and symmetric degree-1 ones.

Element objects are duck-typed: they must support +, unary -, scalar
multiplication by Fraction, ``is_zero()`` and equality.  Degrees and
homogeneous decompositions are supplied by the algebra handle, so the same
machinery runs over structure-constant algebras, polynomial multivector
fields, super-polynomial oracles and direct sums thereof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .graded import decalage_sign, koszul_sign, unshuffles

Elt = Any


class MCError(ValueError):
    """Raised when an element fails a required Maurer-Cartan membership check."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class NonTerminatingSeriesError(RuntimeError):
    pass


@dataclass(frozen=True)
class Filtration:
    """A complete filtration certificate.

    ``degree`` maps elements to their filtration degree.  ``series_bound(phi)``
    returns an N such that every multibracket with more than N arguments equal
    to ``phi`` vanishes; this is what makes Maurer-Cartan, twisting and gauge
    series finite.
    """

    degree: Callable[[Elt], int]
    series_bound: Callable[[Elt], int]


@dataclass(frozen=True)
class LInftyOne:
    """Handle for an L-infinity[1] algebra (possibly curved)."""

    degree: Callable[[Elt], int | None]
    components: Callable[[Elt], list[tuple[int, Elt]]]
    m: Callable[[int, tuple], Elt]
    zero: Elt
    curved: bool = False
    termination_bound: int | None = None
    filtration: Filtration | None = None
    max_arity: int | None = None
    max_relation_arity: int = 5
    name: str = ""

    def bracket(self, *args: Elt) -> Elt:
        return self.m(len(args), tuple(args))

    def m0(self) -> Elt:
        if not self.curved:
            raise ValueError(f"{self.name or 'algebra'} is not curved: no 0-ary bracket")
        return self.m(0, ())


@dataclass(frozen=True)
class MCReport:
    residual: Elt
    terms_evaluated: int
    terminated_by: str  # "bound" | "filtration" | "truncation"

    def is_flat(self) -> bool:
        return self.residual.is_zero()


def homogeneous_combinations(args: tuple, degree: Callable, components: Callable):
    """Expand inhomogeneous arguments multilinearly.

    Yields the tuples of homogeneous parts, one part per slot, whose values
    sum to the value on ``args``; nothing is yielded when an argument is
    zero.  An argument that is the identical object as its left neighbour
    shares that neighbour's decomposition, so the repeated slots of
    m_n(phi, .., phi) hold identical part objects and evaluators can reuse
    work across them.
    """
    parts: list[list[Elt]] = []
    for i, a in enumerate(args):
        if i and a is args[i - 1]:
            parts.append(parts[-1])
            continue
        if a.is_zero():
            return
        if degree(a) is not None:
            parts.append([a])
        else:
            parts.append([p for _, p in components(a)])
    yield from itertools.product(*parts)


def _require_homogeneous(algebra: LInftyOne, args: tuple) -> list[int]:
    degrees = []
    for arg in args:
        if arg.is_zero():
            degrees.append(0)
            continue
        d = algebra.degree(arg)
        if d is None:
            raise ValueError("relations require homogeneous arguments")
        degrees.append(d)
    return degrees


def relations_residual(algebra: LInftyOne, n: int, args: tuple) -> Elt:
    """Residual of the n-th higher-Jacobi relation on the given tuple:

        sum_{i+j=n+1} sum_{sigma (i,n-i)-unshuffle}
            eps(sigma) m_j(m_i(v_sigma(1..i)), v_sigma(i+1..n))

    with i >= 0 allowed in the curved case (the i = 0 term inserts the
    curvature m_0 as an extra argument).  Zero iff the relation holds here.
    """
    if n < 0 or len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    if n > algebra.max_relation_arity:
        raise ValueError(
            f"relation arity {n} exceeds configured max {algebra.max_relation_arity}"
        )
    degrees = _require_homogeneous(algebra, args)
    if any(a.is_zero() for a in args):
        return algebra.zero
    total = algebra.zero
    start = 0 if algebra.curved else 1
    for i in range(start, n + 1):
        j = n + 1 - i  # arity of the outer bracket, always >= 1
        for sigma in unshuffles(i, n):
            eps = koszul_sign(sigma, degrees)
            front = tuple(args[sigma(t) - 1] for t in range(1, i + 1))
            back = tuple(args[sigma(t) - 1] for t in range(i + 1, n + 1))
            inner = algebra.m(i, front)
            if inner.is_zero():
                continue
            term = algebra.m(j, (inner,) + back)
            if not term.is_zero():
                total = total + term.scale(eps)
    return total


def _mc_bound(algebra: LInftyOne, phi: Elt, max_terms: int) -> tuple[int, str]:
    if algebra.termination_bound is not None:
        return algebra.termination_bound, "bound"
    if algebra.filtration is not None:
        fdeg = algebra.filtration.degree(phi)
        if not phi.is_zero() and fdeg < 1:
            raise ValueError(
                f"Maurer-Cartan input must have filtration degree >= 1, got {fdeg}"
            )
        return algebra.filtration.series_bound(phi), "filtration"
    return max_terms, "truncation"


def mc_residual(algebra: LInftyOne, phi: Elt, max_terms: int = 12) -> MCReport:
    """Maurer-Cartan residual sum_n (1/n!) m_n(phi, .., phi), starting at n = 0
    for curved algebras.  Termination is by the algebra's structural bound, by
    its filtration, or (flagged) by the requested term cap."""
    if not phi.is_zero() and algebra.degree(phi) != 0:
        raise ValueError("Maurer-Cartan candidates must be homogeneous of degree 0")
    bound, terminated_by = _mc_bound(algebra, phi, max_terms)
    total = algebra.zero
    start = 0 if algebra.curved else 1
    count = 0
    for n in range(start, bound + 1):
        term = algebra.m(n, (phi,) * n)
        count += 1
        if not term.is_zero():
            total = total + term.scale(Fraction(1, math.factorial(n)))
    if not total.is_zero() and algebra.degree(total) != 1:
        raise AssertionError(
            "internal: Maurer-Cartan residuals are homogeneous of degree 1"
        )
    return MCReport(residual=total, terms_evaluated=count, terminated_by=terminated_by)


def _insert_bound(algebra: LInftyOne, alpha: Elt, arity: int, max_terms: int) -> tuple[int, bool]:
    """How many alpha-insertions can contribute to an arity-``arity`` bracket.

    Returns (bound, provable).  Not provable only when the algebra carries
    neither a structural arity bound nor a filtration.
    """
    if algebra.max_arity is not None:
        return max(algebra.max_arity - arity, 0), True
    if algebra.filtration is not None:
        return algebra.filtration.series_bound(alpha), True
    return max_terms, False


def twist(
    algebra: LInftyOne,
    alpha: Elt,
    check: bool = True,
    max_terms: int = 12,
) -> LInftyOne:
    """Twist by a Maurer-Cartan element: the n-th bracket of the twisted
    algebra is sum_k (1/k!) m_{n+k}(alpha, .., alpha, args).

    With ``check`` enabled the Maurer-Cartan membership of alpha is verified
    first and an :class:`MCError` carrying the residual is raised on failure.
    """
    if not alpha.is_zero() and algebra.degree(alpha) != 0:
        raise ValueError("twisting elements must be homogeneous of degree 0")
    verified = False
    if check:
        report = mc_residual(algebra, alpha, max_terms=max_terms)
        if not report.residual.is_zero():
            raise MCError("twist by a non-Maurer-Cartan element", report.residual)
        verified = True

    def twisted_m(k: int, args: tuple) -> Elt:
        bound, provable = _insert_bound(algebra, alpha, k, max_terms)
        if not provable:
            raise NonTerminatingSeriesError(
                "cannot certify termination of the twisting series; "
                "supply a filtration or structural arity bound"
            )
        total = algebra.zero
        for j in range(0, bound + 1):
            term = algebra.m(k + j, (alpha,) * j + tuple(args))
            if not term.is_zero():
                total = total + term.scale(Fraction(1, math.factorial(j)))
        return total

    return LInftyOne(
        degree=algebra.degree,
        components=algebra.components,
        m=twisted_m,
        zero=algebra.zero,
        curved=algebra.curved and not verified,
        termination_bound=algebra.termination_bound,
        filtration=algebra.filtration,
        max_arity=algebra.max_arity,
        max_relation_arity=algebra.max_relation_arity,
        name=f"twist({algebra.name})" if algebra.name else "twisted",
    )


def gauge_field(algebra: LInftyOne, z: Elt, at: Elt, max_terms: int = 12) -> Elt:
    """Value at ``at`` of the gauge vector field of the degree -1 element z:

        Y^z|_at = m_1(z) + m_2(z, at) + (1/2!) m_3(z, at, at) + ...
    """
    if not z.is_zero() and algebra.degree(z) != -1:
        raise ValueError("gauge directions must be homogeneous of degree -1")
    if not at.is_zero() and algebra.degree(at) != 0:
        raise ValueError("gauge base points must be homogeneous of degree 0")
    bound, provable = _insert_bound(algebra, at, 1, max_terms)
    if not provable:
        raise NonTerminatingSeriesError(
            "cannot certify termination of the gauge series"
        )
    total = algebra.zero
    for k in range(0, bound + 1):
        term = algebra.m(k + 1, (z,) + (at,) * k)
        if not term.is_zero():
            total = total + term.scale(Fraction(1, math.factorial(k)))
    return total


# -- degree-shift converter -----------------------------------------------------


@dataclass(frozen=True)
class LInfty:
    """An L-infinity algebra in the antisymmetric convention: brackets l_k of
    degree 2-k, chi-antisymmetric.  Elements are graded by ``degree``."""

    degree: Callable[[Elt], int | None]
    components: Callable[[Elt], list[tuple[int, Elt]]]
    l: Callable[[int, tuple], Elt]
    zero: Elt
    max_arity: int | None = None
    name: str = ""


def from_antisymmetric(v_algebra: LInfty) -> LInftyOne:
    """Shifted algebra on V[1]: same underlying elements, degree lowered by 1,
    m_k = (degree-shift sign) * l_k.  Degree compliance of every l_k value is
    checked on evaluation."""

    def shifted_degree(x: Elt) -> int | None:
        d = v_algebra.degree(x)
        return None if d is None else d - 1

    def shifted_components(x: Elt) -> list[tuple[int, Elt]]:
        return [(d - 1, part) for d, part in v_algebra.components(x)]

    def m(k: int, args: tuple) -> Elt:
        total = v_algebra.zero
        for combo in homogeneous_combinations(args, v_algebra.degree, v_algebra.components):
            degrees = [v_algebra.degree(a) for a in combo]
            value = v_algebra.l(k, tuple(combo))
            if value.is_zero():
                continue
            expected = sum(degrees) + 2 - k
            if v_algebra.degree(value) != expected:
                raise ValueError(
                    f"l_{k} violates its degree: expected {expected}, "
                    f"got {v_algebra.degree(value)}"
                )
            total = total + value.scale(decalage_sign(degrees))
        return total

    return LInftyOne(
        degree=shifted_degree,
        components=shifted_components,
        m=m,
        zero=v_algebra.zero,
        curved=False,
        max_arity=v_algebra.max_arity,
        name=f"{v_algebra.name}[1]" if v_algebra.name else "shifted",
    )


def to_antisymmetric(algebra: LInftyOne) -> LInfty:
    """Inverse converter: the literal inverse of the degree-shift sign rule."""

    def unshifted_degree(x: Elt) -> int | None:
        d = algebra.degree(x)
        return None if d is None else d + 1

    def unshifted_components(x: Elt) -> list[tuple[int, Elt]]:
        return [(d + 1, part) for d, part in algebra.components(x)]

    def l(k: int, args: tuple) -> Elt:
        total = algebra.zero
        for combo in homogeneous_combinations(args, algebra.degree, algebra.components):
            degrees = [algebra.degree(a) + 1 for a in combo]
            value = algebra.m(k, tuple(combo))
            if not value.is_zero():
                total = total + value.scale(decalage_sign(degrees))
        return total

    return LInfty(
        degree=unshifted_degree,
        components=unshifted_components,
        l=l,
        zero=algebra.zero,
        max_arity=algebra.max_arity,
        name=algebra.name,
    )
