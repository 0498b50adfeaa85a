"""Simplicial cohomology of the nerve, in both chain bases.

Posets with a maximum are contractible; the crown cr4 is a circle and
the 14-element sphere poset is a 2-sphere.  The weak (all chains) and
strict (nondegenerate chains) complexes give the same answers.
"""

from posetdeform.linalg import chain_ranks
from posetdeform.posets import chain_poset, crown_poset, diamond_poset, sphere_poset
from posetdeform.simplicial import coboundary_matrix, cohomology_dims

for p in (chain_poset(3), diamond_poset(), crown_poset(), sphere_poset()):
    strict = cohomology_dims(p, 2, strict=True)
    weak = cohomology_dims(p, 2, strict=False)
    assert strict == weak
    print("%-9s betti (degrees 0..2): %s" % (p.name, strict))

# the sphere numbers come from two exact ranks, d1's first: d1 d0 = 0, so
# chain_ranks leaves out the rows of d0 at the pivot columns of d1
s = sphere_poset()
r1, r0 = chain_ranks(2, lambda t, skip: coboundary_matrix(s, 1 - t, True, skip))
print("\nsphere14 strict complex: C0=14, C1=36, C2=24")
print("rank d0 =", r0, " rank d1 =", r1)
print("b2 = 24 - rank d1 =", 24 - r1)
