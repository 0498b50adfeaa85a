"""Formal deformations of the incidence product and their moduli.

A deformation mod lam^(N+1) is one 2-cochain W valued in series
lam*k[lam]/(lam^(N+1)); it deforms the product associatively exactly when
it satisfies the Maurer-Cartan equation dW + W o W = 0, equivalently when
1 + W is a multiplicative cocycle in the truncated Witt group (the same
cochain W, read as 1 + W).  Gauge classes are then counted by N copies of
the degree-2 cohomology.
"""

import random
from fractions import Fraction

from posetdeform.deform import (
    MCElement,
    associativity_witness,
    gauge_equivalent,
    is_witt_cocycle,
    mc_check,
    moduli,
)
from posetdeform.posets import crown_poset, sphere_poset
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

sphere = sphere_poset()
cr4 = crown_poset()

# moduli dimensions: 0 on the circle-like crown, N on the sphere
for order in (1, 2, 3):
    print(
        "order %d: dim moduli cr4 = %d, sphere14 = %d"
        % (order, moduli(cr4, order)[0], moduli(sphere, order)[0])
    )

# a representative 2-cocycle z on the sphere deforms the product
z = moduli(sphere, 1)[1][0].term(1)
e = MCElement(1, {1: z})
print("\nmc_check(lam z):", mc_check(sphere, e)[0])
print("witt cocycle:   ", is_witt_cocycle(sphere, e.w))  # e.w read as 1 + W
print("associative:    ", associativity_witness(sphere, e) is None)

# scaling the class gives an inequivalent deformation
e2 = MCElement(1, {1: z.scale(Fraction(2))})
print("lam z ~ 2 lam z:", gauge_equivalent(sphere, e, e2) is not None)

# a value on a degenerate chain of cr4 that is not a cocycle
a, c = cr4.index("a"), cr4.index("c")
bad = MCElement(1, {1: SimpCochain(2, {(a, a, c): Fraction(1)})})
ok, witness = mc_check(cr4, bad)
print("\nbroken element on cr4: ok=%s witness=%s" % (ok, witness))
print("associativity fails at:", associativity_witness(cr4, bad))
