"""Graded-vector-space substrate: Koszul signs, unshuffles, degree shifts,
the two element bases of the package, and sparse exact-rational elements of
a finitely generated graded space.

:class:`SparseCombination` is the one container for sparse exact
combinations: ``HomElt`` here, the polynomial multivectors and forms of
``polygeo`` and the Courant model's ``SuperPoly`` subclass it and supply only
their keys' validation, degree and ``repr`` body.  :class:`DirectSum` is the
two-part element that carries the big and twisted-Poisson algebras.

Scalars are exact rationals, held as ``int`` while they are integral and as a
reduced ``fractions.Fraction`` only where a division leaves a remainder; no
floating point appears anywhere in this package.  ``int == Fraction`` holds
and the hashes agree, so the two forms of one value are interchangeable in
equality, hashing, ``str`` and JSON output.  A division keeps a ``Fraction``
operand (``Fraction(a, b)``), never ``/`` between two ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

ONE = 1
MINUS_ONE = -1


def as_fraction(value) -> int | Fraction:
    """Coerce an int, Fraction, 'p/q' string or (num, den) pair of integers
    to an exact scalar: an ``int`` when the value is integral
    (``Fraction(n, 1)`` included), else a reduced Fraction.  A bool, a float
    and a non-integer entry of a pair are rejected naming the coefficient,
    and so is a zero denominator (``ValueError``)."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    try:
        if isinstance(value, str):
            return as_fraction(Fraction(value))
        if isinstance(value, (list, tuple)) and len(value) == 2:
            num = json_int(value[0], f"numerator of coefficient {value!r}")
            den = json_int(value[1], f"denominator of coefficient {value!r}")
            return as_fraction(Fraction(num, den))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret coefficient {value!r} as an exact rational")


def json_int(value, what: str) -> int:
    """A JSON integer; a float, bool or string there is an input error."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def json_of(kind: type, value, what: str):
    """A JSON object (kind dict), list or string; any other value there is an
    input error naming the field."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def json_field(data: dict, where: str, name: str, kind: type | None = None):
    """Field ``name`` of the JSON object ``data`` read at ``where`` (a file,
    or a part of one), checked by :func:`json_of` when ``kind`` is given.  A
    missing field is an input error naming the field and ``where``."""
    if name not in data:
        raise ValueError(f'{where}: missing field "{name}"')
    value = data[name]
    return value if kind is None else json_of(kind, value, f'{where}: field "{name}"')


def add_terms(acc: dict, terms: Mapping) -> dict:
    """Add the sparse combination ``terms`` into ``acc`` in place and return
    it: coefficients that cancel are dropped, integral sums become ints."""
    for key, coef in terms.items():
        new = acc.get(key, 0) + coef
        if not new:
            acc.pop(key, None)
        elif type(new) is int or new.denominator != 1:
            acc[key] = new
        else:
            acc[key] = new.numerator
    return acc


def settle(acc: dict) -> dict:
    """The nonzero entries of an accumulated combination, integral
    coefficients as ints."""
    return {
        key: coef if type(coef) is int or coef.denominator != 1 else coef.numerator
        for key, coef in acc.items()
        if coef
    }


def scale_terms(terms: Mapping, scalar) -> dict:
    """The sparse combination ``terms`` times a nonzero scalar, integral
    products as ints."""
    return settle({key: coef * scalar for key, coef in terms.items()})


def degree_of(components: list) -> int | None:
    """The degree of an element from its ``components``: the degree of its
    one homogeneous part, or None when it is zero or inhomogeneous."""
    return components[0][0] if len(components) == 1 else None


class Permutation:
    """A permutation of {1..n}, stored as the tuple of 1-based images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __repr__(self) -> str:
        return f"Permutation{self.images}"

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("size mismatch in permutation composition")
        return Permutation(self(other(i)) for i in range(1, len(self) + 1))

    def sign(self) -> int:
        return -1 if inversion_parity(self.images) else 1


def inversion_parity(seq) -> int:
    """Parity (0 or 1) of the number of inversions of ``seq``: pairs i < j
    with seq[i] > seq[j].  Sorting ``seq`` by adjacent transpositions takes
    exactly that many swaps, so (-1)^parity is the sign of the reordering;
    every permutation and reordering sign in the package is computed here."""
    parity = 0
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if x > y:
                parity ^= 1
    return parity


def koszul_sign(sigma: Permutation, degrees: list[int] | tuple[int, ...]) -> int:
    """Koszul sign eps(sigma; v_1..v_n) for elements of the given degrees.

    The transposition of two adjacent elements u, w contributes (-1)^{|u||w|};
    the sign of an arbitrary permutation is the product over any decomposition
    into adjacent transpositions.  Only swaps of two odd elements count, so
    the sign is the inversion parity of the odd-degree entries of sigma.
    """
    if len(degrees) != len(sigma):
        raise ValueError("degrees/permutation size mismatch")
    odd = [i for i in sigma.images if degrees[i - 1] % 2]
    return MINUS_ONE if inversion_parity(odd) else ONE


def chi_sign(sigma: Permutation, degrees: list[int] | tuple[int, ...]) -> int:
    """chi(sigma) = eps(sigma) * sign(sigma)."""
    return koszul_sign(sigma, degrees) * sigma.sign()


def unshuffles(i: int, n: int) -> list[Permutation]:
    """All (i, n-i)-unshuffles: sigma(1)<...<sigma(i) and sigma(i+1)<...<sigma(n)."""
    if i < 0 or n < 0 or i > n:
        raise ValueError(f"invalid unshuffle type ({i}, {n - i})")
    out = []
    universe = range(1, n + 1)
    for front in itertools.combinations(universe, i):
        back = tuple(x for x in universe if x not in front)
        out.append(Permutation(front + back))
    return out


def decalage_sign(degrees: list[int] | tuple[int, ...]) -> int:
    """Degree-shift sign (-1)^{(n-1)|v_1| + (n-2)|v_2| + ... + |v_{n-1}|}.

    ``degrees`` are the degrees before the shift.  This is the sign relating
    an antisymmetric degree-(2-n) bracket on V to the symmetric degree-1
    bracket on V[1].
    """
    n = len(degrees)
    exponent = sum((n - idx) * d for idx, d in enumerate(degrees, start=1))
    return MINUS_ONE if exponent % 2 else ONE


@dataclass(frozen=True)
class GradedSpace:
    """A finite graded basis: ordered (name, degree) pairs with unique names."""

    basis: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.basis]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        object.__setattr__(self, "_degrees", {n: d for n, d in self.basis})

    @staticmethod
    def of(pairs: Iterable[tuple[str, int]]) -> "GradedSpace":
        return GradedSpace(tuple((str(n), int(d)) for n, d in pairs))

    def degree_of(self, name: str) -> int:
        try:
            return self._degrees[name]
        except KeyError:
            raise KeyError(f"unknown basis monomial {name!r}") from None

    def names(self) -> list[str]:
        return [n for n, _ in self.basis]

    def zero(self) -> "HomElt":
        return HomElt(self, {})

    def gen(self, name: str, coef=1) -> "HomElt":
        self.degree_of(name)
        return HomElt(self, {name: as_fraction(coef)})

    def element(self, terms: Mapping[str, object]) -> "HomElt":
        return HomElt(self, {k: as_fraction(v) for k, v in terms.items()})


class SparseCombination:
    """A sparse exact combination of keys: ``terms`` maps keys of one ambient
    space to nonzero scalars.

    The base of :class:`HomElt`, the polynomial multivectors and forms and
    the Courant model's ``SuperPoly``.  Subclasses name the ambient (a
    :class:`GradedSpace`, ``dims`` or ``dim``) by aliasing the ``ambient``
    slot, validate keys in their own ``__init__``, and supply the degree of
    one key (``_key_degree``), the ``repr`` body of one key
    (``_key_body``) and the message ``_mismatch`` for combining elements
    of different ambients.  Sums, negatives, scalings and components of
    valid elements are valid, so they are built by :meth:`_of` without that
    check.  Elements of different subclasses are never equal.
    """

    __slots__ = ("ambient", "terms")
    _mismatch = "ambient space mismatch"

    @classmethod
    def _of(cls, ambient, terms: dict) -> "SparseCombination":
        new = object.__new__(cls)
        new.ambient = ambient
        new.terms = terms
        return new

    def _check_ambient(self, other: "SparseCombination") -> None:
        if type(other) is not type(self) or (
            self.ambient is not other.ambient and self.ambient != other.ambient
        ):
            raise ValueError(self._mismatch)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(self.components()) <= 1

    def degree(self) -> int | None:
        """Degree if homogeneous and nonzero, else None."""
        return degree_of(self.components())

    def components(self) -> list:
        """(degree, homogeneous part) pairs by ascending degree; a homogeneous
        element is its own one part, and zero has none."""
        degrees = list(map(self._key_degree, self.terms))
        if len(set(degrees)) <= 1:
            return [(degrees[0], self)] if degrees else []
        by_degree: dict[int, dict] = {}
        for (key, coef), d in zip(self.terms.items(), degrees):
            by_degree.setdefault(d, {})[key] = coef
        return [(d, self._of(self.ambient, t)) for d, t in sorted(by_degree.items())]

    def __add__(self, other):
        self._check_ambient(other)
        return self._of(self.ambient, add_terms(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.ambient, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        scalar = as_fraction(scalar)
        if scalar == 0:
            return self._of(self.ambient, {})
        return self._of(self.ambient, scale_terms(self.terms, scalar))

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.ambient is other.ambient or self.ambient == other.ambient)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.ambient, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coef in sorted(self.terms.items()):
            body = self._key_body(key)
            if coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


class HomElt(SparseCombination):
    """Sparse rational linear combination of basis monomials of a GradedSpace.

    The ``_int_form`` slot holds the element's integer form once a
    structure-constant bracket has read it (``gla.integer_form``), and None
    until then.  Elements are immutable, so the form never goes stale.
    """

    __slots__ = ("_int_form",)
    space = SparseCombination.ambient
    _mismatch = "elements live in different graded spaces"

    def __init__(self, space: GradedSpace, terms: Mapping[str, Fraction]):
        clean = {}
        for name, coef in terms.items():
            space.degree_of(name)
            coef = as_fraction(coef)
            if coef != 0:
                clean[name] = coef
        self.space = space
        self.terms = clean
        self._int_form = None

    @classmethod
    def _of(cls, space: GradedSpace, terms: dict, int_form=None) -> "HomElt":
        new = object.__new__(cls)
        new.space = space
        new.terms = terms
        new._int_form = int_form
        return new

    def _key_degree(self, name: str) -> int:
        return self.space._degrees[name]

    def _key_body(self, name: str) -> str:
        return name


class DirectSum:
    """An element of a two-part direct sum V (+) W, held as its two parts.

    Arithmetic is componentwise.  Subclasses name the parts by aliasing the
    two slots and may validate in their own ``__init__``; sums, negatives and
    scalings of valid elements are valid, so they are built by :meth:`_of`
    without that check.  Elements of different subclasses are never equal.
    The grading comes from :func:`direct_sum_grading`.
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    @classmethod
    def _of(cls, first, second) -> "DirectSum":
        new = object.__new__(cls)
        new.first = first
        new.second = second
        return new

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

    def __add__(self, other: "DirectSum") -> "DirectSum":
        return self._of(self.first + other.first, self.second + other.second)

    def __sub__(self, other: "DirectSum") -> "DirectSum":
        return self._of(self.first - other.first, self.second - other.second)

    def __neg__(self) -> "DirectSum":
        return self._of(-self.first, -self.second)

    def scale(self, scalar) -> "DirectSum":
        return self._of(self.first.scale(scalar), self.second.scale(scalar))

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash((self.first, self.second))


def direct_sum_grading(cls: type, first: tuple, second: tuple):
    """The ``components`` of a :class:`DirectSum` subclass: the one grading
    of the sum, from which :func:`degree_of` reads an element's degree.

    ``first`` and ``second`` are ``(components, offset)`` for the two parts:
    a part of degree d sits in degree d + offset of the sum.  ``components``
    lists (degree, homogeneous element) by ascending degree.  A homogeneous
    element is its own one part and zero has none; otherwise a part is paired
    with the zero of the other part's space where only one part has that
    degree.
    """
    (comps1, off1), (comps2, off2) = first, second

    def components(e: DirectSum) -> list[tuple[int, DirectSum]]:
        parts1, parts2 = comps1(e.first), comps2(e.second)
        degrees = {d + off1 for d, _ in parts1} | {d + off2 for d, _ in parts2}
        if len(degrees) <= 1:
            return [(degrees.pop(), e)] if degrees else []
        by: dict[int, list] = {}
        for d, part in parts1:
            by[d + off1] = [part, e.second.scale(0)]
        for d, part in parts2:
            by.setdefault(d + off2, [e.first.scale(0), None])[1] = part
        return [(d, cls._of(p, q)) for d, (p, q) in sorted(by.items())]

    return components
