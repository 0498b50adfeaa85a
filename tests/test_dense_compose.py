"""compose_sum's list path against its dict path.

compose_sum sums into a list indexed like poset.chains(degree) when every
factor of every term is dense (SimplicialCarrier.vector: int-valued and
nonzero on at least half the chains of its degree), and into a dict
otherwise.  dict_sum below forces the dict path on any terms; both must
give the same canonical cochain on the simplicial and relative carriers
and through SignFlip, for densities on both sides of the rule, sums that
mix dense and sparse terms, degree-0 g, sums that cancel, levels of one
chain, terms scaled by neither 1 nor -1, and a sum too long to fold in
one nest of maps."""

import random
from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdeform.hochschild import RelHochschildCarrier
from posetdeform.opcore import SignFlip
from posetdeform.posets import Poset, chain_poset, crown_poset, diamond_poset
from posetdeform.simplicial import SimpCochain, SimplicialCarrier, compose_sum
from test_compose_reference import dense

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
DIAMOND = diamond_poset()
CARRIERS = {
    "simplicial": SimplicialCarrier(DIAMOND),
    "relative": RelHochschildCarrier(DIAMOND),
    "simplicial+signflip": SignFlip(SimplicialCarrier(DIAMOND)),
    "relative+signflip": SignFlip(RelHochschildCarrier(DIAMOND)),
}


def dict_sum(car, degree, terms):
    """compose_sum with a dict accumulator, whatever the factors."""
    den, out = lcm(*[f.den * g.den for _, f, _, g in terms]), {}
    for e, f, j, g in terms:
        s = den // (f.den * g.den)
        car.compose_into(out, -s if e % 2 else s, f, j, g)
    return SimpCochain._reduced(degree, {k: v for k, v in out.items() if v}, den)


@st.composite
def cochains(draw, degree, dense):
    """Values a/den on a chosen number of chains: for a dense cochain the
    least dense size, all chains or any size between; else none, one, the
    size just below the least dense one, or any size below it."""
    chains = DIAMOND.chains(degree)
    least = (len(chains) + 1) // 2
    if dense:
        sizes = [st.sampled_from([least, len(chains)]), st.integers(least, len(chains))]
    else:
        sizes = [st.sampled_from([0, 1, least - 1]), st.integers(0, least - 1)]
    size = draw(st.one_of(sizes))
    picked = draw(st.permutations(chains))[:size]
    nums = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=size, max_size=size))
    den = draw(st.integers(1, 4))
    return SimpCochain(degree, {c: Fraction(a, den) for c, a in zip(picked, nums)})


@st.composite
def sums(draw):
    """An output degree 0..4 and one to three terms (e, f, j, g) of it,
    f of arity 1..3 and g of arity 0..3.  Half the time every factor is
    dense; else each is dense or not at random, so dense and sparse terms
    mix.  A term may be followed by its negative, and a quarter of the
    time the sum is one term and its negative, which cancel."""
    degree, all_dense = draw(st.integers(0, 4)), draw(st.booleans())

    def factor(n):
        return draw(cochains(n, all_dense or draw(st.booleans())))

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(max(1, degree - 2), min(3, degree + 1)))
        f, j = factor(p), draw(st.integers(1, p))
        term = (draw(st.integers(0, 1)), f, j, factor(degree - p + 1))
        terms.append(term)
        if draw(st.booleans()):
            terms.append((term[0] + 1,) + term[1:])
    if draw(st.integers(0, 3)) == 0:
        terms = [terms[0], (terms[0][0] + 1,) + terms[0][1:]]
    return degree, terms


@pytest.mark.parametrize("kind", list(CARRIERS))
@SETTINGS
@given(data=st.data())
def test_list_path_matches_the_dict_path(kind, data):
    car = CARRIERS[kind]
    degree, terms = data.draw(sums())
    got, want = compose_sum(car, degree, terms), dict_sum(car, degree, terms)
    assert got == want
    assert got.den > 0 and all(got.values.values())
    listed = all(dense(DIAMOND, x) for _, f, _, g in terms for x in (f, g))
    assert (got._vec is not None) == listed
    if listed:
        poset, vec = got._vec
        assert poset is DIAMOND
        assert vec == [got.values.get(c, 0) for c in DIAMOND.chains(degree)]
    if len(terms) == 2 and terms[1] == (terms[0][0] + 1,) + terms[0][1:]:
        assert got == SimpCochain(degree) and got.den == 1


def test_one_cochain_on_two_posets_in_turn():
    """Diamond and cr4 share element indices, not chains: a cochain on
    chains of both, dense on both, composed on each carrier in turn, reads
    the vector of that carrier's chains each time."""
    cr4 = crown_poset()
    rng = random.Random("dense:two-posets")
    shared = {n: [c for c in DIAMOND.chains(n) if c in set(cr4.chains(n))] for n in range(4)}

    def on_both(n):
        return SimpCochain(n, {c: rng.choice([-2, -1, 1, 3]) for c in shared[n]})

    for kind in (SimplicialCarrier, RelHochschildCarrier):
        cars = [kind(DIAMOND), kind(cr4)]
        for p, q in ((1, 1), (2, 1), (1, 0), (2, 2), (3, 1)):
            f, g = on_both(p), on_both(q)
            for car in cars + cars:
                assert dense(car.poset, f) and dense(car.poset, g)
                for j in range(1, p + 1):
                    got = car.compose_at(f, j, g)
                    assert got == dict_sum(car, p + q - 1, [(0, f, j, g)])
                    assert got._vec[0] is car.poset
                    want = [got.values.get(c, 0) for c in car.poset.chains(p + q - 1)]
                    assert got._vec[1] == want
                assert f._vec[0] is car.poset


def test_a_cached_vector_reads_no_chains(monkeypatch):
    """A second vector(x) on one carrier returns the list kept on x without
    calling Poset.chains; a vector kept for diamond is not returned on
    cr4, which shares its element indices, and cr4's is built instead."""
    cr4 = crown_poset()
    shared = [c for c in DIAMOND.chains(1) if c in set(cr4.chains(1))]
    x = SimpCochain(1, {c: 1 for c in shared})
    on_diamond, on_cr4 = SimplicialCarrier(DIAMOND), SimplicialCarrier(cr4)
    first = on_diamond.vector(x)
    assert first == [x.values.get(c, 0) for c in DIAMOND.chains(1)]
    calls, chains = [], Poset.chains

    def counted(self, *args, **kwargs):
        calls.append(self)
        return chains(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "chains", counted)
    assert on_diamond.vector(x) is first and calls == []
    want = [x.values.get(c, 0) for c in chains(cr4, 1)]
    assert want != first
    assert on_cr4.vector(x) == want and calls == [cr4]


def test_a_dense_cochain_off_the_chains_is_refused():
    """A dense cochain with a key that is not a chain of the carrier's
    poset raises on the list path rather than losing that entry."""
    cr4 = crown_poset()
    f = SimpCochain(2, {c: 1 for c in DIAMOND.chains(2)})
    g = SimplicialCarrier(DIAMOND).random_elem(1, random.Random("dense:off"))
    for kind in (SimplicialCarrier, RelHochschildCarrier):
        car = kind(cr4)
        assert 2 * len(f.values) >= len(cr4.chains(2))
        with pytest.raises(ValueError, match="not a chain of"):
            car.compose_at(f, 1, g)


def test_one_chain_levels():
    """chain_poset(1) has one chain in each level, so every plan gathers
    one position: each factor must still give a sequence, and sums of
    dense terms there agree with the dict path on the four carriers."""
    point = chain_poset(1)
    cars = [SimplicialCarrier(point), RelHochschildCarrier(point)]
    rng = random.Random("dense:one-chain")

    def one(n):
        value = Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 3))
        return SimpCochain(n, {(0,) * (n + 1): value})

    for car in cars + [SignFlip(c) for c in cars]:
        for degree in range(4):
            terms = []
            for e in range(3):
                p = rng.randint(max(1, degree - 2), degree + 1)
                terms.append((e, one(p), rng.randint(1, p), one(degree - p + 1)))
            for some in (terms[:1], terms):
                got = compose_sum(car, degree, some)
                assert got == dict_sum(car, degree, some)
                assert got._vec[0] is point and got.values == {
                    c: v for c, v in zip(point.chains(degree), got._vec[1]) if v}


@pytest.mark.parametrize("kind", list(CARRIERS))
def test_a_long_sum_folds_a_bounded_depth(kind):
    """200,000 copies of one dense term sum to 200,000 times it: the list
    path builds its running sum every FOLD_DEPTH terms, where one map
    nested per term would overflow the interpreter's stack, and so does a
    lincomb of 200,000 copies of the composite's vector."""
    car = CARRIERS[kind]
    rng = random.Random("dense:long")
    f, g = (SimplicialCarrier(DIAMOND).random_elem(1, rng) for _ in range(2))
    got = compose_sum(car, 1, [(0, f, 1, g)] * 200_000)
    assert got._vec is not None
    assert got == car.compose_at(f, 1, g).scale(200_000)
    summed = SimpCochain.lincomb(1, [(0, car.compose_at(f, 1, g))] * 200_000)
    assert summed._values is None and summed == got


@pytest.mark.parametrize("kind", list(CARRIERS))
def test_sums_over_unequal_denominators(kind):
    """Terms whose f.den and g.den differ, so that compose_sum scales each
    by den // (f.den * g.den), neither 1 nor -1, in both signs."""
    car = CARRIERS[kind]
    rng = random.Random("dense:dens")

    def on(n, den):
        return SimpCochain(n, {c: Fraction(rng.choice([-3, -1, 1, 2, 5]), den)
                               for c in DIAMOND.chains(n)})

    for (p, q), j in zip(((2, 1), (1, 2), (2, 2), (3, 1), (1, 0)), (1, 1, 2, 3, 1)):
        degree = p + q - 1
        terms = [(0, on(p, 2), j, on(q, 3)), (1, on(p, 5), j, on(q, 1)),
                 (0, on(p, 1), 1, on(q, 4)), (1, on(p, 3), j, on(q, 2))]
        den = lcm(*[f.den * g.den for _, f, _, g in terms])
        assert all(den // (f.den * g.den) not in (1, -1) for _, f, _, g in terms)
        for some in (terms[:1], terms[:2], terms):
            got = compose_sum(car, degree, some)
            assert got._vec is not None and got == dict_sum(car, degree, some)


def test_equal_vectors_on_two_posets_are_not_equal_cochains():
    """(a < b, c) and (a, b < c) each have four weak 1-chains, not the
    same four: equal vectors kept on each are different cochains, and the
    arithmetic on the pair, which reads it off values, agrees with the
    dict forms, as is_zero and scale do on each."""
    left = Poset.from_relations("abc", [("a", "b")], name="left")
    right = Poset.from_relations("abc", [("b", "c")], name="right")
    assert len(left.chains(1)) == len(right.chains(1)) == 4
    assert left.chains(1) != right.chains(1)
    vec = [2, 0, -3, 4]
    x, y = (SimpCochain(1, dict(zip(p.chains(1), vec))) for p in (left, right))
    for p, z in ((left, x), (right, y)):
        assert SimplicialCarrier(p).vector(z) == vec and z._vec[0] is p
    assert x != y and not x == y
    for add in (True, False):
        keys = set(x.values) | set(y.values)
        want = SimpCochain(1, {c: x.value(c) + (1 if add else -1) * y.value(c) for c in keys})
        assert (x + y if add else x - y) == want
    for p, z in ((left, x), (right, y)):
        assert not z.is_zero() and (z - z).is_zero()
        for c in (Fraction(-5, 6), -1, 1, 3):
            got = z.scale(c)
            assert got._vec[0] is p
            assert got == SimpCochain(1, {ch: c * z.value(ch) for ch in z.values})


def test_dense_arithmetic_keeps_only_vectors():
    """A list-path result builds no values through ==, is_zero(), +, -
    and scale on dense operands, nor do the results; the first read of
    each one's values gives what the dict path gives."""
    car = SimplicialCarrier(DIAMOND)
    rng = random.Random("dense:lazy")
    f, g, h = (car.random_elem(n, rng) for n in (2, 1, 2))
    x = car.compose_at(f, 1, g)
    ops = {
        "x": lambda a, b: a,
        "x + h": lambda a, b: a + b,
        "x - h": lambda a, b: a - b,
        "x - x": lambda a, b: a - a,
        "-x": lambda a, b: -a,
        "x * 4/9": lambda a, b: a.scale(Fraction(4, 9)),
        "x * 6": lambda a, b: a.scale(6),
    }
    got = {name: op(x, h) for name, op in ops.items()}
    assert got["x + h"] == h + x and got["x - h"] != got["x + h"]
    assert got["x - x"].is_zero() and not got["x"].is_zero()
    assert -got["-x"] == x and got["x * 6"] == got["x * 4/9"].scale(Fraction(27, 2))
    assert all(z._values is None for z in got.values())

    def plain(z):  # the same cochain with its values dict and no vector
        return SimpCochain._of(z.degree, dict(z.values), z.den)

    assert got["x"].values == dict_sum(car, 2, [(0, f, 1, g)]).values
    for name, op in ops.items():
        want = op(plain(x), plain(h))
        assert want._vec is None and got[name].den == want.den
        assert got[name].values == want.values, name
