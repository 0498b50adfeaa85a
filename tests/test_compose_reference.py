"""Each carrier's compose_at against the all-chains / all-tuples loop.

compose_at enumerates pairs of entries of f and g that glue in slot j.
The reference functions below visit every chain (or basis tuple) of the
output degree instead and read the value there straight from the
composition formula; they must give the same cochain on every input."""

import random
from fractions import Fraction

import pytest

from posetdeform import hochschild
from posetdeform.hochschild import (
    FullHochschildCarrier,
    RelHochschildCarrier,
    TooLarge,
    as_element,
    rel_eval,
)
from posetdeform.opcore import SlotOutOfRange
from posetdeform.scalars import TruncSeries
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

DEGREES = [
    (p, q, j) for p in range(1, 4) for q in range(0, 4) for j in range(1, p + 1)
]


def simplicial_reference(car, f, j, g):
    p, q = f.degree, g.degree
    out = {}
    for c in car.poset.chains(p + q - 1):
        a = f.value(c[:j] + c[j + q - 1 :])
        if not a:
            continue
        b = g.value(c[j - 1 : j + q])
        if not b:
            continue
        out[c] = a * b
    return SimpCochain(p + q - 1, out)


def unit_args(chain):
    """The basis tuple (E[chain[0], chain[1]], ...) of a chain."""
    return [{iv: 1} for iv in zip(chain, chain[1:])]


def relative_reference(car, f, j, g):
    p, q = f.degree, g.degree
    out = {}
    g_elem = as_element(g) if q == 0 else None
    for c in car.poset.chains(p + q - 1):
        if q == 0:
            inner = g_elem
        else:
            inner = rel_eval(g, unit_args(c[j - 1 : j + q]))
            if not inner:
                continue
        args = unit_args(c[:j]) + [inner] + unit_args(c[j + q - 1 :])
        coeff = rel_eval(f, args).get((c[0], c[-1]))
        if coeff is not None:
            out[c] = coeff
    return SimpCochain(p + q - 1, out)


def as_table(c):
    """A full cochain, keyed (x_1, ..., x_n, y), as the table
    {(x_1, ..., x_n): {y: coefficient of E[y]}}."""
    table = {}
    for key in c.values:
        table.setdefault(key[:-1], {})[key[-1]] = c.value(key)
    return table


def full_reference(car, f, j, g):
    p, q = f.degree, g.degree
    ftab, gtab = as_table(f), as_table(g)
    out = {}
    for t in car.tuples(p + q - 1):
        inner = gtab.get(t[j - 1 : j - 1 + q])
        if inner is None:
            continue
        acc = {}
        for K, s in inner.items():
            ft = ftab.get(t[: j - 1] + (K,) + t[j - 1 + q :], {})
            for y, v in ft.items():
                acc[y] = acc.get(y, 0) + s * v
        for y, v in acc.items():
            if v:
                out[t + (y,)] = v
    return SimpCochain(p + q - 1, out)


def simp_inputs(car, n, rng):
    """A dense random cochain, three single-chain basis cochains and the
    zero cochain of degree n."""
    chains = car.poset.chains(n)
    basis = [SimpCochain(n, {c: Fraction(1)}) for c in rng.sample(chains, 3)]
    return [car.random_elem(n, rng)] + basis + [SimpCochain(n)]


def full_inputs(car, n, rng):
    """As simp_inputs, on basis tuples.  random_elem gives each tuple a
    one-term value; the second dense cochain gives every tuple up to
    three terms, so that several terms of g(u) can land on one output
    tuple and have to be summed there.  In degrees 1 and 2 the carrier's
    identity() and mult() come too, with their groupings built."""
    ivs = car.poset.intervals()
    multi = SimpCochain(n, {
        t + (iv,): Fraction(rng.randint(-3, 3))
        for t in car.tuples(n)
        for iv in rng.sample(ivs, 3)
    })
    basis = []
    for _ in range(3):
        t = tuple(rng.choice(ivs) for _ in range(n))
        iv = rng.choice(ivs)
        basis.append(SimpCochain(n, {t + (iv,): 1}))
    units = {1: [car.identity()], 2: [car.mult()]}.get(n, [])
    return [car.random_elem(n, rng), multi] + basis + units + [SimpCochain(n)]


CASES = [
    ("simplicial", "diamond"),
    ("simplicial", "cr4"),
    ("relative", "diamond"),
    ("relative", "cr4"),
    ("full", "chain2"),
    ("full", "diamond"),
]

CARRIERS = {
    "simplicial": (SimplicialCarrier, simplicial_reference, simp_inputs),
    "relative": (RelHochschildCarrier, relative_reference, simp_inputs),
    "full": (FullHochschildCarrier, full_reference, full_inputs),
}


@pytest.mark.parametrize("kind,poset_name", CASES)
def test_compose_at_matches_reference(request, kind, poset_name):
    poset = request.getfixturevalue(poset_name)
    cls, reference, inputs = CARRIERS[kind]
    car = cls(poset)
    rng = random.Random("compose-ref:%s:%s" % (kind, poset_name))
    compared = 0
    ivs = poset.intervals()
    for p, q, j in DEGREES:
        if kind == "full":
            try:
                outputs = {t + (y,) for t in car.tuples(p + q - 1) for y in ivs}
            except TooLarge:
                continue
        else:
            outputs = set(poset.chains(p + q - 1))
        for f in inputs(car, p, rng):
            for g in inputs(car, q, rng):
                got = car.compose_at(f, j, g)
                assert got == reference(car, f, j, g), (p, q, j)
                assert set(got.values) <= outputs
                compared += 1
    # all 24 (p, q, j), less the three with 9**5 output tuples for the
    # full carrier on diamond; 5 inputs of each degree
    assert compared >= 21 * 25


# Cached indexes.  A cochain keeps its groupings by end points and by slot
# interval (SimpCochain.grouped) for its whole life, and the carrier's
# identity() and mult() carry their slot indexes from the start, so most
# compositions run on warm indexes.  Each composition below is checked
# against the reference evaluated on index-free copies of its arguments.


def fresh(x):
    """x as a new cochain with no index built."""
    return SimpCochain._of(x.degree, x.values, x.den)


def warm_sequence(car, f, g):
    """(f, j, g) triples that reuse f, g and the constants in every role:
    each slot of f twice over, then g as the f side and f as the g side,
    then f with its own slot indexes built, then identity() and mult()
    on either side."""
    out = [(f, j, g) for _ in range(2) for j in range(1, f.degree + 1)]
    out += [(g, j, f) for j in range(1, g.degree + 1)]
    for j in range(1, f.degree + 1):
        f.grouped(car.slot(j))
    out += [(f, j, g) for j in range(1, f.degree + 1)]
    for c in (car.identity(), car.mult()):
        out += [(c, j, x) for j in range(1, c.degree + 1) for x in (f, g, c)]
        out += [(x, j, c) for x in (f, g) for j in range(1, x.degree + 1)]
    return out


@pytest.mark.parametrize("kind,poset_name", CASES)
def test_compose_at_on_warm_indexes(request, kind, poset_name):
    poset = request.getfixturevalue(poset_name)
    cls, reference, inputs = CARRIERS[kind]
    car = cls(poset)
    rng = random.Random("compose-warm:%s:%s" % (kind, poset_name))
    compared = 0
    for p, q in ((1, 0), (1, 1), (2, 1), (1, 2), (2, 2)):
        for f in inputs(car, p, rng)[:2]:
            g = inputs(car, q, rng)[rng.randrange(2)]
            for a, j, b in warm_sequence(car, f, g):
                # the full reference walks every key of the output degree
                if kind == "full" and len(poset.intervals()) ** (a.degree + b.degree) > 10**4:
                    continue
                want = reference(car, fresh(a), j, fresh(b))
                assert car.compose_at(a, j, b) == want, (a.degree, j, b.degree)
                compared += 1
    assert compared >= 150


def test_an_index_is_not_part_of_the_cochain(diamond):
    car = SimplicialCarrier(diamond)
    x = car.random_elem(2, random.Random("index-eq"))
    y = fresh(x)
    assert x.grouped((0, -1)) is x.grouped((0, -1))
    x.grouped(car.slot(2))
    assert x == y and y == x
    assert repr(x) == repr(y)
    assert x.to_dict(diamond) == y.to_dict(diamond)
    assert car.mult() == fresh(car.mult()) == car.constant(2)


# The relative carrier's structure table.  Each test keeps one carrier
# for many compositions, so most pairs are found in the table, and counts
# the rel_eval calls compose_at makes.  The table is keyed by (j, q) and
# the output chain c, which determines the pair: a = c[:j] + c[j+q-1:]
# and b = c[j-1:j+q].  Under it, the carrier keeps each evaluation it
# makes: delta_b on b's basis tuple, keyed by b, and delta_a with that
# value in slot j, keyed by (j, a, the value).  So a composition owes one
# call for each inner chain b with q >= 1 and one for each (j, a, inner
# value) that the carrier has not evaluated before, and none for a pair
# met before.  A composition of two dense cochains (compose_sum's list
# path) meets every pair of its shape; any other meets the pairs of
# entries that glue.


def dense(poset, x):
    """compose_sum's rule for its list path, restated: x is int-valued and
    nonzero on at least half the chains of its degree."""
    return 2 * len(x.values) >= len(poset.chains(x.degree)) and all(
        type(v) is int for v in x.values.values()
    )


class Ledger:
    """The rel_eval calls a carrier on poset owes, from the evaluations it
    has made: seen holds each inner chain b and each (j, a, inner terms)."""

    def __init__(self, poset):
        self.poset = poset
        self.seen = set()

    def owed(self, f, j, g):
        q = g.degree
        if dense(self.poset, f) and dense(self.poset, g):
            met = [(c[:j] + c[j + q - 1 :], c[j - 1 : j + q])
                   for c in self.poset.chains(f.degree + q - 1)]
        else:
            met = [(a, b) for a in f.values for b in g.values
                   if (b[0], b[-1]) == a[j - 1 : j + 1]]
        n = 0
        for a, b in met:
            delta_b = SimpCochain(q, {b: 1})
            if q == 0:
                inner = as_element(delta_b)
            else:
                inner = rel_eval(delta_b, unit_args(b))
                n += b not in self.seen
                self.seen.add(b)
            key = (j, a, frozenset(inner.items()))
            n += key not in self.seen
            self.seen.add(key)
        return n


@pytest.fixture
def rel_eval_calls(monkeypatch):
    """Counts the calls compose_at makes to hochschild.rel_eval; the
    references call the unwrapped function."""
    calls = [0]

    def counted(f, args):
        calls[0] += 1
        return rel_eval(f, args)

    monkeypatch.setattr(hochschild, "rel_eval", counted)
    return calls


def check_relative(car, ledger, calls, f, j, g):
    before = calls[0]
    got = car.compose_at(f, j, g)
    assert calls[0] - before == ledger.owed(f, j, g), (f.degree, g.degree, j)
    assert got == relative_reference(car, f, j, g), (f.degree, g.degree, j)


@pytest.mark.parametrize("poset_name", ["diamond", "cr4"])
def test_relative_table_over_one_carrier(request, rel_eval_calls, poset_name):
    """Every (p, q, j), q = 0 and every slot among them, twice over with
    new random cochains and then once more with the first round's, which
    the table answers without evaluating anything."""
    car = RelHochschildCarrier(request.getfixturevalue(poset_name))
    ledger = Ledger(car.poset)
    rng = random.Random("rel-table:%s" % poset_name)
    first = []
    for rnd in range(2):
        for p, q, j in DEGREES:
            for f in simp_inputs(car, p, rng)[:2]:
                for g in simp_inputs(car, q, rng)[:2]:
                    check_relative(car, ledger, rel_eval_calls, f, j, g)
                    if rnd == 0:
                        first.append((f, j, g))
    calls = rel_eval_calls[0]
    for f, j, g in first:
        check_relative(car, ledger, rel_eval_calls, f, j, g)
    assert rel_eval_calls[0] == calls > 0


def test_relative_tables_of_two_posets(diamond, cr4, rel_eval_calls):
    """Two carriers alive at once, composing in turn: diamond and cr4
    share element indices, so their chains are the same tuples, yet
    each carrier derives its own table."""
    cars = [RelHochschildCarrier(diamond), RelHochschildCarrier(cr4)]
    ledgers = [Ledger(diamond), Ledger(cr4)]
    rng = random.Random("rel-table:two")
    for p, q, j in DEGREES:
        for car, ledger in zip(cars, ledgers):
            f, g = car.random_elem(p, rng), car.random_elem(q, rng)
            check_relative(car, ledger, rel_eval_calls, f, j, g)
    assert ledgers[0].seen & ledgers[1].seen


def test_relative_table_with_series_values(diamond, rel_eval_calls):
    """Series values as deform builds them (den 1, never reduced), with
    products of two multiples of lam that vanish at order 1 and must
    leave no entry."""
    car = RelHochschildCarrier(diamond)
    ledger = Ledger(diamond)
    rng = random.Random("rel-table:series")
    values = [TruncSeries(1, cs) for cs in ((1,), (0, 1), (2, -1), (0, -3), (Fraction(1, 2), 1))]

    def series_elem(n):
        return SimpCochain(n, {c: rng.choice(values) for c in car.poset.chains(n)})

    for p, q, j in DEGREES:
        if p + q > 4:
            continue
        check_relative(car, ledger, rel_eval_calls, series_elem(p), j, series_elem(q))
    m = SimpCochain(2, {c: TruncSeries.one(1) for c in car.poset.chains(2)})
    for j in (1, 2):
        check_relative(car, ledger, rel_eval_calls, m, j, m)


def test_relative_slot_out_of_range(diamond):
    car = RelHochschildCarrier(diamond)
    rng = random.Random("rel-table:slots")
    x = {n: car.random_elem(n, rng) for n in range(3)}
    car.compose_at(x[2], 1, x[1])
    for p, j in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (2, -1)):
        with pytest.raises(SlotOutOfRange):
            car.compose_at(x[p], j, x[1])
