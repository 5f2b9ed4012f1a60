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
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from derived_brackets import sampling as S  # noqa: E402
from derived_brackets.graded import DirectSum, SparseCombination  # noqa: E402
from derived_brackets.polygeo import PolyMultivector  # noqa: E402
from derived_brackets.suites import _coiso_a_sampler  # noqa: E402

SEEDS = (0, 1, 2)
DRAWS = 4


def describe(value) -> str:
    """``repr`` plus coefficient types of an element, a direct sum or a
    tuple of them."""
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


SECTIONS = {"sampling": section_sampling}


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
