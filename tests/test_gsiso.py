"""The cochain-level comparison map and its randomized verifier."""

import random
from fractions import Fraction

import pytest

from posetdeform import gsiso
from posetdeform.hochschild import RelHochschildCarrier, as_element, rel_eval
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
    assert rel_eval(f, [{(i0, i1): 1}]) == {(i0, i1): Fraction(5)}


def test_degree_zero_lands_on_the_diagonal(diamond):
    car = SimplicialCarrier(diamond)
    x = car.random_elem(0, random.Random("iso:d0"))
    e = as_element(phi(x))
    assert e == {(i, i): v for i in range(diamond.n) if (v := x.value((i,)))}


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


# Mutants of the relative carrier's structure table.  verify_morphism
# below stops at its first failed check (FirstFailure), which is all a
# kill needs: the 432 mutants then take seconds rather than half a minute.


class Killed(Exception):
    """Raised by FirstFailure at the first check that fails."""


class FirstFailure(gsiso.SuiteReport):
    def check(self, name, degrees, ok, witness):
        if not ok:
            raise Killed(name, degrees)
        return super().check(name, degrees, ok, witness)


STRUCTURE_SHAPES = [
    (p, j, q) for p in range(1, 4) for j in range(1, p + 1) for q in range(4)
]


@pytest.mark.parametrize("poset_name", ["diamond", "cr4", "sphere"])
def test_a_wrong_structure_constant_is_killed(request, monkeypatch, poset_name):
    """One table entry (j, q, c) wrong, as 0, 2 or -1, for the first and
    the last output chain c of every shape (p, j, q) with p, q <= 3: the
    iso suite reports a failure on every such mutant.

    Every k derived on these posets is 1 (delta_a o_j delta_b =
    delta_c), which is checked too.  So a table keyed by c alone, without
    j or q, would read the right constant wherever its keys collide: it
    is an equivalent mutant, and no test can kill it."""
    poset = request.getfixturevalue(poset_name)
    true, derived = RelHochschildCarrier._structure, {}
    monkeypatch.setattr(gsiso, "SuiteReport", FirstFailure)
    survivors, mutants = [], 0
    for p, j, q in STRUCTURE_SHAPES:
        chains = poset.chains(p + q - 1)
        for c in (chains[0], chains[-1]):
            for wrong in (0, 2, -1):

                def structure(car, jj, qq, cc, target=(j, q, c), wrong=wrong):
                    if (jj, qq, cc) == target:
                        return wrong
                    if (jj, qq, cc) not in derived:  # the true table, shared by all mutants
                        derived[jj, qq, cc] = true(car, jj, qq, cc)
                    return derived[jj, qq, cc]

                monkeypatch.setattr(RelHochschildCarrier, "_structure", structure)
                mutants += 1
                try:
                    verify_morphism(SimplicialCarrier(poset), samples=3, seed=1, max_degree=3)
                    survivors.append((p, j, q, c, wrong))
                except Killed:
                    pass
    assert mutants == 144 and survivors == []
    assert len(derived) > 100 and set(derived.values()) == {1}
