"""Nerve cochains versus Hochschild cochains of the incidence algebra.

The map phi reads a simplicial cochain as a relative Hochschild cochain
on the incidence algebra: both are one scalar per weak chain, so phi is
the identity on data.  The two carriers compose that data by unrelated
rules, yet phi matches every piece of structure: insertions, braces,
differential, dot, bracket.  The randomized verifier (the "iso" suite)
exercises exactly that, and the cohomology dimensions agree across all
three complexes.  hh_dims ranks the relative one on strict chains, the
normalized complex, by default; strict=False ranks it on weak chains.
"""

import random

from posetdeform.gsiso import phi, verify_morphism
from posetdeform.hochschild import RelHochschildCarrier, hh_dims, rel_eval
from posetdeform.posets import chain_poset, diamond_poset
from posetdeform.simplicial import SimplicialCarrier, cohomology_dims

p = diamond_poset()
simp = SimplicialCarrier(p)
rel = RelHochschildCarrier(p)

# phi sends the constant 2-cochain to the algebra multiplication; an
# element of kP is its coefficient dict on the intervals E[i, j]
m_rel = phi(simp.mult())
bot, mid, top = p.index("bot"), p.index("a"), p.index("top")
a, b, bot_top = {(bot, mid): 1}, {(mid, top): 1}, {(bot, top): 1}
print("phi(m) multiplies:", rel_eval(m_rel, [a, b]) == bot_top)

# it is the identity on data; the two sides differ only in how they compose
x = simp.random_elem(2, random.Random(1))
y = simp.random_elem(1, random.Random(2))
print("same data:", phi(x) is x)
print(
    "same insertion:",
    phi(simp.compose_at(x, 2, y)) == rel.compose_at(phi(x), 2, phi(y)),
)

# the randomized verifier checks commutation with all derived operations
rep = verify_morphism(simp, samples=10, seed=0)
print("verifier: checks=%d failed=%d" % (rep.checks, rep.failed))

# all three cochain complexes compute the same cohomology; the relative
# one is ranked on strict chains (the normalized complex) and on weak ones
for q in (chain_poset(2), chain_poset(3), p):
    print(
        "%-7s simplicial=%s relative=%s weak relative=%s full=%s"
        % (
            q.name,
            cohomology_dims(q, 2),
            hh_dims(q, 2, "relative"),
            hh_dims(q, 2, "relative", strict=False),
            hh_dims(q, 2, "full"),
        )
    )
