"""Generic (curved) L-infinity[1] algebra interface.

An algebra is a handle around a multibracket evaluator ``m(k, args)`` where
every ``m_k`` has degree +1 and is graded symmetric for the Koszul sign of the
carrier's grading.  On top of the evaluator this module provides

  * higher-Jacobi relation residuals,
  * Maurer-Cartan residuals, twisting by a Maurer-Cartan element and gauge
    vector fields of degree -1 elements, each a series summed by one routine
    up to the algebra's arity bound and closed by a vanishing certificate,
  * Maurer-Cartan checks by the algebra's closed form where it states one
    (:func:`checked_mc_residual`, used by :func:`twist`), after the same
    input checks as the series, while :func:`mc_residual`, the gauge fields
    and the twisted brackets stay series, the definitions that the closed
    forms are tested against,
  * the degree-shift converter between antisymmetric (degree 2-k) bracket
    families and symmetric degree-1 ones.

Element objects are duck-typed: they must support +, unary -, scalar
multiplication by an exact scalar (int or Fraction), ``is_zero()`` and
equality.  The algebra handle supplies one grading, ``components`` (the
homogeneous decomposition); an element's degree is read from it
(:func:`~derived_brackets.graded.degree_of`), so the same machinery runs
over structure-constant algebras, polynomial multivector fields,
super-polynomial oracles and direct sums thereof.  :func:`add_slot_chains`
sums values by their ``terms``, so the parts it reads are
:class:`~derived_brackets.graded.SparseCombination` elements (``HomElt``,
``PolyMultivector``, ``PolyForm``, ``SuperPoly``).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .graded import add_terms, decalage_sign, degree_of, koszul_sign, unshuffles

Elt = Any

# relations_residual checks higher-Jacobi relations up to this arity; the
# relation of arity n sums over 2^n unshuffles of its arguments
MAX_RELATION_ARITY = 5


class MCError(ValueError):
    """Raised when an element fails a required Maurer-Cartan membership check."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class NonTerminatingSeriesError(RuntimeError):
    pass


@dataclass(frozen=True)
class LInftyOne:
    """Handle for an L-infinity[1] algebra (possibly curved).

    ``arity_bound`` is what makes the Maurer-Cartan, twisting and gauge
    series finite.  An int n means every m_k with k > n vanishes.  A callable
    maps a tuple of elements to such an n for the brackets whose arguments
    are drawn from those elements (repetitions allowed); the derived-bracket
    algebras read it off the depth of their quadruple.  None means no bound
    is known: every series over the algebra then raises.

    ``components`` is the algebra's one grading: it lists an element's
    (degree, homogeneous part) pairs by ascending degree, a homogeneous
    element being its own one part, and :meth:`degree` reads from it.

    ``closed_residual``, when set, maps a Maurer-Cartan candidate to its
    residual sum_n (1/n!) m_n(phi, .., phi) in closed form; the
    derived-bracket algebras set it (:mod:`~derived_brackets.vdata`).  Only
    :func:`checked_mc_residual` reads it: the series of :func:`mc_residual`
    stays the definition.  An algebra built from another by
    ``dataclasses.replace`` with new brackets must set it back to None.
    """

    components: Callable[[Elt], list[tuple[int, Elt]]]
    m: Callable[[int, tuple], Elt]
    zero: Elt
    curved: bool = False
    arity_bound: int | Callable[[tuple], int] | None = None
    name: str = ""
    closed_residual: Callable[[Elt], Elt] | None = None

    def degree(self, x: Elt) -> int | None:
        """Degree of x if it is homogeneous and nonzero, else None."""
        return degree_of(self.components(x))


@dataclass(frozen=True)
class MCReport:
    """A Maurer-Cartan residual and how its certified series ended: "bound"
    (an int arity bound) or "filtration" (an argument-dependent one).
    ``terms_evaluated`` counts the vanishing certificate term too."""

    residual: Elt
    terms_evaluated: int
    terminated_by: str  # "bound" | "filtration"


def homogeneous_combinations(args: tuple, components: Callable):
    """Expand inhomogeneous arguments multilinearly.

    Yields ``(parts, degrees)``: the tuples of homogeneous parts, one part
    per slot, whose values sum to the value on ``args``, with the degree of
    each part.  ``components`` is called once per distinct argument, and
    nothing is yielded when an argument is zero.  A homogeneous argument is
    its own part, and an argument that is the identical object as its left
    neighbour shares that neighbour's decomposition, so the repeated slots
    of m_n(phi, .., phi) hold identical part objects and evaluators can
    reuse work across them.
    """
    graded: list[list[tuple[int, Elt]]] = []
    for i, a in enumerate(args):
        if i and a is args[i - 1]:
            graded.append(graded[-1])
            continue
        comps = components(a)
        if not comps:
            return
        graded.append(comps)
    for combo in itertools.product(*graded):
        yield tuple(p for _, p in combo), [d for d, _ in combo]


def add_slot_chains(combo: tuple, degrees: list[int], heads: list, tails: list,
                    chain: Callable, acc: dict) -> None:
    """Add the one-head patterns of a homogeneous combination into ``acc``.

    Slot pos of ``combo`` has degree ``degrees[pos]`` and two parts,
    ``heads[pos]`` and ``tails[pos]``.  For each pos with a nonzero head and
    no zero among the other tails, ``chain(degrees, pos, head, other tails)``
    (None where the pattern vanishes) is added times the Koszul sign
    (-1)^{|e_pos|(|e_1| + .. + |e_{pos-1}|)} of moving the head to the front.
    A slot that is the same object as its left neighbour (as in
    m_n(phi, .., phi)) reuses that neighbour's value; only its sign is new.
    The caller adds any other pattern (the all-tails one, a pair of heads).
    """
    zero = [t.is_zero() for t in tails]
    n_zero = sum(zero)
    if n_zero > 1:
        return
    prefix = 0  # the degrees before pos
    for pos, e in enumerate(combo):
        if not (pos and e is combo[pos - 1]):
            value = None
            if n_zero <= zero[pos] and not heads[pos].is_zero():
                value = chain(degrees, pos, heads[pos], tails[:pos] + tails[pos + 1:])
        if value is not None and not value.is_zero():
            add_terms(acc, (-value).terms if degrees[pos] % 2 and prefix % 2 else value.terms)
        prefix += degrees[pos]


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
    if n > MAX_RELATION_ARITY:
        raise ValueError(f"relation arity {n} exceeds max {MAX_RELATION_ARITY}")
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


def _arity(algebra: LInftyOne, elements: tuple) -> tuple[int, str]:
    """The algebra's arity bound over ``elements`` and its kind, "bound" (an
    int) or "filtration"; NonTerminatingSeriesError without a bound.  A
    filtration bound also rejects inputs outside F^1."""
    bound = algebra.arity_bound
    if bound is None:
        raise NonTerminatingSeriesError(
            f"cannot certify termination of a series: "
            f"{algebra.name or 'the algebra'} has no arity bound"
        )
    if isinstance(bound, int):
        return bound, "bound"
    return bound(elements), "filtration"


def _series(
    algebra: LInftyOne, phi: Elt, fixed: tuple = (), start: int = 0
) -> tuple[Elt, int, str]:
    """sum_{j >= start} (1/j!) m_{j+f}(phi, .., phi, fixed_1, .., fixed_f).

    Returns (sum, terms evaluated, how it ended).  Under an arity bound n
    the sum runs to arity n, and then the next term, which the bound says
    vanishes, is evaluated as a certificate: NonTerminatingSeriesError if it
    does not, and also when the algebra has no bound.
    """
    n, how = _arity(algebra, (phi,) + fixed)
    last = n - len(fixed)

    def term(j: int) -> Elt:
        return algebra.m(j + len(fixed), (phi,) * j + fixed)

    total = algebra.zero
    count = 0
    for j in range(start, last + 1):
        value = term(j)
        count += 1
        if not value.is_zero():
            total = total + value.scale(Fraction(1, math.factorial(j)))
    j = max(last + 1, start)
    count += 1
    if not term(j).is_zero():
        raise NonTerminatingSeriesError(
            f"arity bound {n} of {algebra.name or 'the algebra'} violated "
            f"by a nonzero series term of arity {j + len(fixed)}"
        )
    return total, count, how


def _require_degree_zero(algebra: LInftyOne, phi: Elt) -> None:
    if not phi.is_zero() and algebra.degree(phi) != 0:
        raise ValueError("Maurer-Cartan candidates must be homogeneous of degree 0")


def check_mc_candidate(algebra: LInftyOne, phi: Elt) -> None:
    """Raise what :func:`mc_residual` raises on phi before its first term: a
    ValueError unless phi is homogeneous of degree 0, NonTerminatingSeriesError
    when the algebra has no arity bound, and the bound's own input check."""
    _require_degree_zero(algebra, phi)
    _arity(algebra, (phi,))


def mc_residual(algebra: LInftyOne, phi: Elt) -> MCReport:
    """Maurer-Cartan residual sum_n (1/n!) m_n(phi, .., phi), starting at n = 0
    for curved algebras.  The algebra's arity bound ends the sum with a
    certificate; without one it raises NonTerminatingSeriesError."""
    _require_degree_zero(algebra, phi)
    total, count, terminated_by = _series(algebra, phi, start=0 if algebra.curved else 1)
    if not total.is_zero() and algebra.degree(total) != 1:
        raise AssertionError(
            "internal: Maurer-Cartan residuals are homogeneous of degree 1"
        )
    return MCReport(residual=total, terms_evaluated=count, terminated_by=terminated_by)


def checked_mc_residual(algebra: LInftyOne, phi: Elt) -> Elt:
    """The Maurer-Cartan residual of phi, for callers that only test or use
    its value: the algebra's ``closed_residual`` when it has one, after the
    checks of :func:`check_mc_candidate`, and otherwise the residual of
    :func:`mc_residual`.  Both routes reject the same inputs with the same
    errors, and where both apply they return equal residuals.  A closed form
    certifies its own finite sums: the derived-bracket ones raise
    NonTerminatingSeriesError when a term survives the quadruple's depth."""
    if algebra.closed_residual is None:
        return mc_residual(algebra, phi).residual
    check_mc_candidate(algebra, phi)
    return algebra.closed_residual(phi)


def twist(algebra: LInftyOne, alpha: Elt, check: bool = True) -> LInftyOne:
    """Twist by a Maurer-Cartan element: the n-th bracket of the twisted
    algebra is sum_k (1/k!) m_{n+k}(alpha, .., alpha, args).

    The Maurer-Cartan residual r of alpha is always computed, by
    :func:`checked_mc_residual` (a NonTerminatingSeriesError when it cannot
    be certified): it is the twisted curvature m_0, so the twisted algebra
    is curved exactly when r is nonzero.  With ``check`` enabled a nonzero r
    raises an :class:`MCError` carrying it instead.  The twisted algebra
    states no closed residual of its own: its Maurer-Cartan residuals are
    the series over the twisted brackets.
    """
    if not alpha.is_zero() and algebra.degree(alpha) != 0:
        raise ValueError("twisting elements must be homogeneous of degree 0")
    residual = checked_mc_residual(algebra, alpha)
    if check and not residual.is_zero():
        raise MCError("twist by a non-Maurer-Cartan element", residual)

    def twisted_m(k: int, args: tuple) -> Elt:
        if k == 0:
            return residual
        return _series(algebra, alpha, tuple(args))[0]

    # a twisted bracket is a sum of brackets on alpha and its arguments
    bound = algebra.arity_bound
    if callable(bound):
        def twisted_bound(elements: tuple) -> int:
            return bound((alpha,) + tuple(elements))
    else:
        twisted_bound = bound

    return dataclasses.replace(
        algebra,
        m=twisted_m,
        curved=not residual.is_zero(),
        arity_bound=twisted_bound,
        name=f"twist({algebra.name})" if algebra.name else "twisted",
        closed_residual=None,
    )


def gauge_field(algebra: LInftyOne, z: Elt, at: Elt) -> Elt:
    """Value at ``at`` of the gauge vector field of the degree -1 element z:

        Y^z|_at = m_1(z) + m_2(at, z) + (1/2!) m_3(at, at, z) + ...

    (the degree-0 base point commutes past z with no sign).
    """
    if not z.is_zero() and algebra.degree(z) != -1:
        raise ValueError("gauge directions must be homogeneous of degree -1")
    if not at.is_zero() and algebra.degree(at) != 0:
        raise ValueError("gauge base points must be homogeneous of degree 0")
    return _series(algebra, at, (z,))[0]


# -- degree-shift converter -----------------------------------------------------


@dataclass(frozen=True)
class LInfty:
    """An L-infinity algebra in the antisymmetric convention: brackets l_k of
    degree 2-k, chi-antisymmetric.  Elements are graded by ``components``,
    as in :class:`LInftyOne`."""

    components: Callable[[Elt], list[tuple[int, Elt]]]
    l: Callable[[int, tuple], Elt]
    zero: Elt
    arity_bound: int | Callable[[tuple], int] | None = None
    name: str = ""

    def degree(self, x: Elt) -> int | None:
        """Degree of x if it is homogeneous and nonzero, else None."""
        return degree_of(self.components(x))


def from_antisymmetric(v_algebra: LInfty) -> LInftyOne:
    """Shifted algebra on V[1]: same underlying elements, degree lowered by 1,
    m_k = (degree-shift sign) * l_k.  Degree compliance of every l_k value is
    checked on evaluation."""

    def shifted_components(x: Elt) -> list[tuple[int, Elt]]:
        return [(d - 1, part) for d, part in v_algebra.components(x)]

    def m(k: int, args: tuple) -> Elt:
        total = v_algebra.zero
        for combo, degrees in homogeneous_combinations(args, v_algebra.components):
            value = v_algebra.l(k, combo)
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
        components=shifted_components,
        m=m,
        zero=v_algebra.zero,
        curved=False,
        arity_bound=v_algebra.arity_bound,
        name=f"{v_algebra.name}[1]" if v_algebra.name else "shifted",
    )


def to_antisymmetric(algebra: LInftyOne) -> LInfty:
    """Inverse converter: the literal inverse of the degree-shift sign rule."""

    def unshifted_components(x: Elt) -> list[tuple[int, Elt]]:
        return [(d + 1, part) for d, part in algebra.components(x)]

    def l(k: int, args: tuple) -> Elt:
        total = algebra.zero
        for combo, degrees in homogeneous_combinations(args, algebra.components):
            value = algebra.m(k, combo)
            if not value.is_zero():
                total = total + value.scale(decalage_sign([d + 1 for d in degrees]))
        return total

    return LInfty(
        components=unshifted_components,
        l=l,
        zero=algebra.zero,
        arity_bound=algebra.arity_bound,
        name=algebra.name,
    )
