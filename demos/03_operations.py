"""The operad structure on nerve cochains: insertions, braces, bracket.

Cochains of degree n form the arity-n part of a non-symmetric operad;
the constant 2-cochain m is an associative multiplication for it.  The
derived operations (circle product, dot, differential, bracket) all
come from one generic layer that works for any carrier.
"""

import random

from posetdeform.opcore import (
    brace,
    bracket,
    circle,
    differential,
    dot,
    gamma,
)
from posetdeform.posets import diamond_poset
from posetdeform.simplicial import SimplicialCarrier

p = diamond_poset()
car = SimplicialCarrier(p)
rng = random.Random(0)

m = car.mult()
e = car.identity()
f = car.random_elem(2, rng)
g = car.random_elem(1, rng)

# insertions and the unit law
print("f o_1 e == f:", car.compose_at(f, 1, e) == f)
print("gamma(e; f) == f:", gamma(car, e, [f]) == f)

# m is square-zero for the circle product, so it induces a differential
print("m o m == 0:", circle(car, m, m).is_zero())
df = differential(car, f)
print("deg d(f) =", df.degree, " d(d(f)) == 0:", differential(car, df).is_zero())

# braces collect all ways of inserting several arguments at once
b = brace(car, f, [g, g])
print("f{g, g} degree:", b.degree)

# the bracket measures noncommutativity of the circle product; for two
# 2-cochains the shifted degrees are odd and the signs symmetrize
f2 = car.random_elem(2, rng)
lhs = bracket(car, f, f2)
rhs = circle(car, f, f2) + circle(car, f2, f)
print("[f, f2] == f o f2 + f2 o f:", lhs == rhs)

# dot is the associative cup-like product
h = dot(car, g, g)
print("deg g.g =", h.degree)
assert dot(car, dot(car, g, g), g) == dot(car, g, dot(car, g, g))
print("dot is associative on the sample")
