"""Homotopy invariance as ground truth for the cohomology, the relative
Hochschild dimensions and the moduli dimension.

P, its opposite P^op and its subdivision sd(P), the poset of P's strict
chains under inclusion, have homeomorphic nerves, so the same nerve
cohomology.  kP, kP^op and k sd(P) are different algebras, so that their
relative HH agrees too follows from Gerstenhaber-Schack plus homotopy
invariance; it is not a restatement of either.  The moduli of order-n
deformations have dimension n dim H^2, computed from each poset's own
strict H^2 representatives, so it agrees on all three as well.

The core of P, what is left once its beat points are taken out, is a
smaller poset with a homotopy-equivalent nerve (Stong 1966), so it must
give the same answers too, while k core(P) is a smaller algebra."""

import pytest

from posetdeform.deform import moduli
from posetdeform.hochschild import hh_dims
from posetdeform.simplicial import cohomology_dims
from posetdeform.posets import chain_poset, crown_poset, diamond_poset, sphere_poset
from poset_builders import core, opposite_poset, product_poset, subdivision

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from poset_strategies import level_posets


def test_subdivision_of_the_bundled_posets(diamond, cr4, sphere):
    """sd(P) has one element per strict chain of P."""
    for p, n in ((diamond, 11), (cr4, 8), (sphere, 74)):
        sd = subdivision(p)
        assert sd.n == n
        assert cohomology_dims(sd, 3) == cohomology_dims(p, 3)
        assert hh_dims(sd, 2) == hh_dims(p, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(level_posets())
def test_op_and_subdivision_keep_cohomology_and_relative_hh(p):
    dims = [
        f(q, 2)
        for q in (p, opposite_poset(p), subdivision(p))
        for f in (cohomology_dims, hh_dims)
    ]
    assert dims == [dims[0]] * 6


# dim of the order-2 moduli: twice b_2 of the nerve
MODULI_2 = {"chain2": 0, "chain3": 0, "diamond": 0, "cr4": 0, "sphere": 2}


@pytest.mark.parametrize("poset_name", sorted(MODULI_2))
def test_op_and_subdivision_keep_the_moduli_dimension(request, poset_name):
    p = request.getfixturevalue(poset_name)
    dims = [moduli(q, 2)[0] for q in (p, opposite_poset(p), subdivision(p))]
    assert dims == [MODULI_2[poset_name]] * 3


@settings(max_examples=10, deadline=None, derandomize=True)
@given(level_posets())
def test_op_and_subdivision_keep_the_moduli_dimension_on_level_posets(p):
    dims = [moduli(q, 2)[0] for q in (p, opposite_poset(p), subdivision(p))]
    assert dims == [dims[0]] * 3 == [2 * cohomology_dims(p, 2)[2]] * 3


def invariants(p):
    """Nerve cohomology, strict and weak relative HH, to degree 3, and the
    order-2 moduli dimension."""
    return (cohomology_dims(p, 3), hh_dims(p, 3), hh_dims(p, 3, strict=False),
            moduli(p, 2)[0])


@pytest.mark.parametrize("build, size", [
    (diamond_poset, 1),
    (crown_poset, 4),
    (sphere_poset, 14),
    (lambda: product_poset(sphere_poset(), chain_poset(2)), 14),
    (lambda: product_poset(crown_poset(), chain_poset(3)), 4),
], ids=["diamond", "cr4", "sphere14", "sphere14*chain2", "cr4*chain3"])
def test_the_core_keeps_every_dimension(build, size):
    """diamond shrinks to a point, cr4 and sphere14 are their own cores,
    and a product with a chain shrinks back to the other factor: 28
    elements to the 14 of sphere14, a core that is not contractible."""
    p = build()
    c = core(p)
    assert c.n == size
    assert invariants(c) == invariants(p)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(level_posets(lower=1))
def test_the_core_keeps_every_dimension_on_level_posets(p):
    assert invariants(core(p)) == invariants(p)
