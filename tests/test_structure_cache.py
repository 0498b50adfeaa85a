"""The relative carrier's kept evaluations against the derivation they
replace, and mutants that show a wrong evaluation, once kept, reaches
every output chain that reuses it.

RelHochschildCarrier._structure keeps delta_b's value on b's basis tuple,
keyed by b, and the k it reads off delta_a with that value in slot j,
keyed by (j, a, the value).  unit_route.structure derives the same k with
two fresh rel_eval calls for every (j, q, c).

Every k derived on a poset is 1, and every inner value is the unit
E[b[0], b[-1]].  So against the true rel_eval, a cache keyed by a alone,
or an inner cache keyed by b's end points, reads the right value wherever
its keys collide: either is an equivalent mutant, which no test of the
real carrier can kill, as a table keyed without j or q is (test_gsiso)."""

import pytest

from posetdeform import hochschild
from posetdeform.gsiso import verify_morphism
from posetdeform.hochschild import RelHochschildCarrier, as_element, hh_dims, rel_eval
from posetdeform.posets import sphere_poset
from posetdeform.simplicial import SimplicialCarrier
from unit_route import structure

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from poset_strategies import level_posets


def shapes(poset, length):
    """(j, q, chains) for every output chain length up to length: the
    chains of degree n = p + q - 1 and every q <= n and slot j <= p."""
    for n in range(length):
        chains = poset.chains(n)
        for q in range(n + 1):
            for j in range(1, n - q + 2):
                yield j, q, chains


def tables(car, length=5):
    """The carrier's k for every (j, q, c) with |c| <= length, all from
    one carrier, so that later shapes reuse what earlier ones evaluated."""
    return {(j, q, c): k for j, q, chains in shapes(car.poset, length)
            for c, k in zip(chains, car._table(j, q, chains))}


def reference(poset, length=5):
    return {(j, q, c): structure(j, q, c)
            for j, q, chains in shapes(poset, length) for c in chains}


@pytest.mark.parametrize("poset_name", ["diamond", "cr4", "sphere", "chain3"])
def test_tables_equal_the_fresh_derivation(request, poset_name):
    poset = request.getfixturevalue(poset_name)
    got = tables(RelHochschildCarrier(poset))
    assert got == reference(poset)
    assert set(got.values()) == {1}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(level_posets())
def test_tables_equal_the_fresh_derivation_on_level_posets(p):
    assert tables(RelHochschildCarrier(p)) == reference(p)


def test_rel_eval_count_of_hh_dims(monkeypatch):
    """A regression guard: hh_dims(sphere14, 2) evaluates each inner
    chain and each (j, a, inner value) it meets once, 430 calls in all on
    the weak complex (1,536 when each output chain took two fresh ones)
    and 284 on the strict one."""
    calls = [0]

    def counted(f, args):
        calls[0] += 1
        return rel_eval(f, args)

    monkeypatch.setattr(hochschild, "rel_eval", counted)
    for strict, count in ((False, 430), (True, 284)):
        calls[0] = 0
        assert hh_dims(sphere_poset(), 2, "relative", strict) == [1, 0, 1]
        assert calls[0] == count


class Doubled:
    """hochschild.rel_eval doctored to double its value for delta_chain in
    one role.  The two roles cannot be told apart by value: a's basis
    tuple with an inner value in slot j equals a's basis tuple, since the
    inner value is that unit.  They differ in where the arguments come
    from: an outer evaluation gets an inner value, made by rel_eval or
    as_element, and an inner one gets units only."""

    def __init__(self, monkeypatch, chain, outer):
        self.chain, self.outer, self.made, self.doubled = chain, outer, {}, 0
        monkeypatch.setattr(hochschild, "rel_eval", self.rel_eval)
        monkeypatch.setattr(hochschild, "as_element", self.as_element)

    def keep(self, x):  # alive, so no other object takes its id
        self.made[id(x)] = x
        return x

    def as_element(self, f):
        return self.keep(as_element(f))

    def rel_eval(self, f, args):
        got = rel_eval(f, args)
        if list(f.values) == [self.chain] and self.outer == any(id(x) in self.made for x in args):
            got = {xy: 2 * v for xy, v in got.items()}
            self.doubled += 1
        return self.keep(got)

    def reaches(self, j, q, c):
        """Whether c's pair has the doctored chain in the doctored role."""
        return self.chain == (c[:j] + c[j + q - 1 :] if self.outer else c[j - 1 : j + q])


@pytest.mark.parametrize("outer", [True, False], ids=["outer-a", "inner-b"])
def test_a_kept_wrong_evaluation_reaches_every_chain_that_reuses_it(
    diamond, monkeypatch, outer
):
    """The evaluations of the outer chain a = (bot, a, top), or of the
    inner chain b = (bot, a, top), doubled: the carrier keeps each wrong
    value and reads it for every (j, q, c) whose pair has that chain in
    that role, as the fresh derivation does, and nowhere else, though it
    evaluated the chain fewer times than it has such c.  The iso suite
    then fails, and hh_dims refuses the constant 2 on the weak complex and,
    for the outer chain, on the strict one.  In the strict complex the
    inner chain meets only rows that chain_ranks clears: that of
    (bot, top) in d_1, a pivot column of d_0, and those of d_2, all of
    them pivot columns of d_1 (rank 2 on two strict 2-chains).  There the
    doubled k is never read, and the dimensions stay true."""
    chain = tuple(map(diamond.index, ("bot", "a", "top")))
    mutant = Doubled(monkeypatch, chain, outer)
    got = tables(RelHochschildCarrier(diamond), length=4)
    evaluated = mutant.doubled
    assert got == reference(diamond, length=4)
    wrong = {key for key, k in got.items() if k != 1}
    assert wrong == {key for key in got if mutant.reaches(*key)}
    assert {got[key] for key in wrong} == {2}
    assert 0 < evaluated < len(wrong)
    rep = verify_morphism(SimplicialCarrier(diamond), samples=3, seed=1, max_degree=3)
    assert not rep.ok and rep.failed >= 1
    with pytest.raises(ValueError, match="overflow a slot"):
        hh_dims(diamond, 2, "relative", strict=False)
    if outer:
        with pytest.raises(ValueError, match="overflow a slot"):
            hh_dims(diamond, 2, "relative")
    else:
        assert hh_dims(diamond, 2, "relative") == [1, 0, 0]
