"""Koszul signs, unshuffles and the degree-shift dictionary.

Everything downstream is built on three small sign conventions; this script
walks through them on hand-sized examples.
"""

from derived_brackets.graded import (
    Permutation,
    chi_sign,
    decalage_sign,
    koszul_sign,
    unshuffles,
)

print("== Koszul signs ==")
swap = Permutation([2, 1])
print("swapping two odd elements:     ", koszul_sign(swap, [1, 1]))
print("swapping odd past even:        ", koszul_sign(swap, [2, 1]))
print("chi adds the permutation sign: ", chi_sign(swap, [0, 0]))

print()
print("== unshuffles ==")
for sigma in unshuffles(2, 4):
    print("  ", sigma.images)
print("count above = C(4, 2) =", len(unshuffles(2, 4)))

print()
print("== degree shift ==")
print("shift sign for degrees (1, 5):    ", decalage_sign([1, 5]))
print("shift sign for degrees (1, 1, 0): ", decalage_sign([1, 1, 0]))

print()
print("== shifting a Lie bracket ==")
from derived_brackets.gla import sample_gla
from derived_brackets.linfty import LInfty, from_antisymmetric

g = sample_gla()  # [h, e] = e with |h| = 0, |e| = 1
as_family = LInfty(
    components=lambda x: x.components(),
    l=lambda k, args: g.bracket(args[0], args[1]) if k == 2 else g.zero(),
    zero=g.zero(),
    arity_bound=2,
)
shifted = from_antisymmetric(as_family)
h, e = g.gen("h"), g.gen("e")
print("m2(h[1], e[1]) =", shifted.m(2, (h, e)), "   (sign (+1) since |h| = 0)")
print("m2(e[1], h[1]) =", shifted.m(2, (e, h)), "  (sign (-1) since |e| = 1)")
