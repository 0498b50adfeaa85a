"""The cochain-level comparison map and its randomized verifier."""

import random
from fractions import Fraction

from posetdeform.hochschild import (
    IncElem,
    RelHochschildCarrier,
    as_element,
    rel_eval,
)
from posetdeform.gsiso import phi, verify_morphism
from posetdeform.opcore import SignFlip
from posetdeform.simplicial import SimpCochain, SimplicialCarrier


def test_round_trips(diamond):
    """Both carriers hold the same data, so phi is the identity on it:
    equal draws give equal cochains on either side, and phi(x) reads and
    writes back to x."""
    car = SimplicialCarrier(diamond)
    rel = RelHochschildCarrier(diamond)
    for n in range(4):
        x = car.random_elem(n, random.Random("iso:rt:%d" % n))
        f = rel.random_elem(n, random.Random("iso:rt:%d" % n))
        assert phi(x) == x == f
        assert SimpCochain.from_dict(diamond, phi(x).to_dict(diamond)) == x


def test_linearity_and_degree(diamond):
    car = SimplicialCarrier(diamond)
    rng = random.Random("iso:lin")
    x = car.random_elem(2, rng)
    y = car.random_elem(2, rng)
    c = Fraction(-5, 3)
    assert phi(x.scale(c) + y) == phi(x).scale(c).add(phi(y))
    assert phi(x).degree == 2


def test_structure_constants_map_to_their_counterparts(diamond):
    simp = SimplicialCarrier(diamond)
    rel = RelHochschildCarrier(diamond)
    assert phi(simp.identity()) == rel.identity()
    assert phi(simp.mult()) == rel.mult()


def test_coefficients_become_evaluations(chain2):
    i0, i1 = chain2.index("0"), chain2.index("1")
    x = SimpCochain(1, {(i0, i1): Fraction(5)})
    f = phi(x)
    assert rel_eval(f, [IncElem.basis(i0, i1)]) == IncElem.basis(i0, i1).scale(
        Fraction(5)
    )


def test_degree_zero_lands_on_the_diagonal(diamond):
    car = SimplicialCarrier(diamond)
    x = car.random_elem(0, random.Random("iso:d0"))
    e = as_element(phi(x))
    assert e == IncElem({(i, i): x.value((i,)) for i in range(diamond.n)})


def test_verifier_passes_on_two_element_chain(chain2):
    rep = verify_morphism(SimplicialCarrier(chain2), samples=50, seed=0)
    assert rep.ok and rep.failed == 0
    assert rep.checks > 0


def test_verifier_passes_on_crown(cr4):
    rep = verify_morphism(SimplicialCarrier(cr4), samples=5, seed=1)
    assert rep.ok and rep.failed == 0


def test_verifier_transcript_is_deterministic(chain2):
    car = SimplicialCarrier(chain2)
    a = verify_morphism(car, samples=5, seed=3).to_dict()
    b = verify_morphism(car, samples=5, seed=3).to_dict()
    assert a == b


def test_verifier_catches_mutation(chain2):
    rep = verify_morphism(SignFlip(SimplicialCarrier(chain2)), samples=5, seed=0)
    assert not rep.ok and rep.failed >= 1
    assert rep.failures and rep.failures[0]["check"]
