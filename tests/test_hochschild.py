"""Incidence algebras, relative and full Hochschild carriers."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from posetdeform.deform import _layer
from posetdeform.hochschild import (
    FullHochschildCarrier,
    RelHochschildCarrier,
    TooLarge,
    as_element,
    hh_dims,
    rel_eval,
)
from posetdeform import posets
from posetdeform.opcore import differential
from posetdeform.posets import Poset, chain_poset, sphere_poset
from posetdeform.scalars import OrderMismatch, TruncSeries
from posetdeform.simplicial import SimpCochain, cohomology_dims, compose_sum
from incidence_helpers import inc_add, inc_mul, inc_scale, inc_unit, include_relative
from poset_builders import opposite_poset


def rand_inc(p, rng):
    terms = {}
    for iv in p.intervals():
        if rng.random() < 0.6 and (v := Fraction(rng.randint(-3, 3))):
            terms[iv] = v
    return terms


def rand_diagonal(p, rng):
    return {(i, i): v for i in range(p.n) if (v := Fraction(rng.randint(-3, 3)))}


def algebra_product(p):
    """The product of kP as the package computes it: rel_eval of the
    relative mult()."""
    m = RelHochschildCarrier(p).mult()
    return lambda a, b: rel_eval(m, [a, b])


def test_basis_products(chain2):
    mul = algebra_product(chain2)
    i0, i1 = chain2.index("0"), chain2.index("1")
    e00, e01, e11 = {(i0, i0): 1}, {(i0, i1): 1}, {(i1, i1): 1}
    assert mul(e00, e01) == e01
    assert mul(e01, e11) == e01
    assert mul(e01, e01) == {}
    assert mul(e11, e01) == {}


def test_unit_and_associativity(diamond):
    rng = random.Random("hoch:alg")
    mul = algebra_product(diamond)
    unit = inc_unit(diamond)
    for _ in range(20):
        a, b, c = (rand_inc(diamond, rng) for _ in range(3))
        assert mul(unit, a) == a
        assert mul(a, unit) == a
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, inc_add(b, c)) == inc_add(mul(a, b), mul(a, c))


def test_ring_mismatch(chain2):
    """Scalars refuse to mix: a series plus a Fraction raises TypeError,
    series of different orders raise OrderMismatch.  (A Fraction times a
    series is a scalar multiple, so products of the two kinds are fine.)"""
    a = {(0, 1): 1}
    b = {(0, 1): TruncSeries.one(1)}
    c = {(0, 1): TruncSeries.one(2)}
    with pytest.raises(TypeError):
        inc_add(a, b)
    with pytest.raises(TypeError):
        inc_add(b, a)
    with pytest.raises(OrderMismatch):
        inc_add(b, c)
    with pytest.raises(OrderMismatch):
        algebra_product(chain2)(b, {(1, 1): TruncSeries.one(2)})
    f = SimpCochain(1, {(0, 1): Fraction(1)})
    g = SimpCochain(1, {(0, 1): TruncSeries.one(1)})
    h = SimpCochain(1, {(0, 1): TruncSeries.one(2)})
    with pytest.raises(TypeError):
        f.add(g)
    with pytest.raises(OrderMismatch):
        g.add(h)
    with pytest.raises(OrderMismatch):
        rel_eval(g, [{(0, 1): TruncSeries.one(2)}])


def test_evaluation_against_coefficients(chain2):
    # a coefficient on the chain (0,1) is read back by evaluating on the
    # matching interval basis element
    i0, i1 = chain2.index("0"), chain2.index("1")
    f = SimpCochain(1, {(i0, i1): Fraction(5)})
    out = rel_eval(f, [{(i0, i1): 1}])
    assert out == {(i0, i1): Fraction(5)}


def test_evaluation_is_balanced_over_the_diagonal(diamond):
    """Diagonal factors slide out of the slots or across them."""
    car = RelHochschildCarrier(diamond)
    rng = random.Random("hoch:bal")
    for _ in range(15):
        f = car.random_elem(2, rng)
        a1, a2 = rand_inc(diamond, rng), rand_inc(diamond, rng)
        s = rand_diagonal(diamond, rng)
        lhs = rel_eval(f, [inc_mul(s, a1), a2])
        assert lhs == inc_mul(s, rel_eval(f, [a1, a2]))
        mid = rel_eval(f, [inc_mul(a1, s), a2])
        assert mid == rel_eval(f, [a1, inc_mul(s, a2)])
        rhs = rel_eval(f, [a1, inc_mul(a2, s)])
        assert rhs == inc_mul(rel_eval(f, [a1, a2]), s)


def test_evaluation_is_multilinear(diamond):
    car = RelHochschildCarrier(diamond)
    rng = random.Random("hoch:lin")
    f = car.random_elem(2, rng)
    a, a2, b = (rand_inc(diamond, rng) for _ in range(3))
    c = Fraction(3, 2)
    lhs = rel_eval(f, [inc_add(a, inc_scale(a2, c)), b])
    rhs = inc_add(rel_eval(f, [a, b]), inc_scale(rel_eval(f, [a2, b]), c))
    assert lhs == rhs


def test_composition_matches_evaluation(diamond):
    """compose_at must agree with substitution of evaluations."""
    car = RelHochschildCarrier(diamond)
    ivs = diamond.intervals()
    rng = random.Random("hoch:comp")
    checked = 0
    while checked < 100:
        p = rng.randint(1, 3)
        q = rng.randint(0, 3)
        if not 1 <= p + q - 1 <= 3:
            continue
        j = rng.randint(1, p)
        f = car.random_elem(p, rng)
        g = car.random_elem(q, rng)
        h = car.compose_at(f, j, g)
        args = [{rng.choice(ivs): 1} for _ in range(p + q - 1)]
        inner = rel_eval(g, args[j - 1 : j - 1 + q]) if q else as_element(g)
        expect = rel_eval(f, args[: j - 1] + [inner] + args[j - 1 + q :])
        assert rel_eval(h, args) == expect
        checked += 1


def test_degree_zero_as_element(diamond):
    f = SimpCochain(0, {(i,): Fraction(i + 1) for i in range(diamond.n)})
    e = as_element(f)
    assert e == {(i, i): Fraction(i + 1) for i in range(diamond.n)}


def test_relative_identity_and_mult(diamond):
    car = RelHochschildCarrier(diamond)
    e = car.identity()
    m = car.mult()
    rng = random.Random("hoch:unit")
    a, b = rand_inc(diamond, rng), rand_inc(diamond, rng)
    assert rel_eval(e, [a]) == a
    assert rel_eval(m, [a, b]) == inc_mul(a, b)


def test_inclusion_commutes_with_structure(chain2, diamond):
    for p in (chain2, diamond):
        rel = RelHochschildCarrier(p)
        full = FullHochschildCarrier(p)
        rng = random.Random("hoch:incl:%s" % p.name)
        for _ in range(5):
            pf = rng.randint(1, 2)
            qf = rng.randint(0, 2)
            if pf + qf - 1 > 2:
                continue
            j = rng.randint(1, pf)
            f = rel.random_elem(pf, rng)
            g = rel.random_elem(qf, rng)
            lhs = include_relative(rel.compose_at(f, j, g))
            rhs = full.compose_at(include_relative(f), j, include_relative(g))
            assert lhs == rhs
        x = rel.random_elem(1, rng)
        assert include_relative(differential(rel, x)) == differential(
            full, include_relative(x)
        )


def test_full_cochain_arithmetic(chain2):
    car = FullHochschildCarrier(chain2)
    rng = random.Random("hoch:full")
    x = car.random_elem(1, rng)
    y = car.random_elem(1, rng)
    assert x + y == y + x
    z = x + x.scale(Fraction(-1))
    assert z.is_zero()


def test_full_identity_acts_as_unit(chain2):
    car = FullHochschildCarrier(chain2)
    e = car.identity()
    f = car.random_elem(2, random.Random("hoch:fe"))
    assert car.compose_at(f, 1, e) == f
    assert car.compose_at(f, 2, e) == f


# The full carrier's constants as the FullCochain tables of earlier
# versions held them, written in the key format (x_1, ..., x_n, y):
# identity sends E[x] to E[x], mult sends (E[i, j], E[j, k]) to E[i, k].
FULL_IDENTITY = {
    "chain2": [(0, 0), (0, 1), (1, 1)],
    "diamond": [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)],
}
FULL_MULT = {
    "chain2": [
        ((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 1), (0, 1)),
        ((0, 1), (1, 1), (0, 1)), ((1, 1), (1, 1), (1, 1)),
    ],
    "diamond": [
        ((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 1), (0, 1)),
        ((0, 0), (0, 2), (0, 2)), ((0, 0), (0, 3), (0, 3)),
        ((0, 1), (1, 1), (0, 1)), ((0, 1), (1, 3), (0, 3)),
        ((1, 1), (1, 1), (1, 1)), ((1, 1), (1, 3), (1, 3)),
        ((0, 2), (2, 2), (0, 2)), ((0, 2), (2, 3), (0, 3)),
        ((2, 2), (2, 2), (2, 2)), ((2, 2), (2, 3), (2, 3)),
        ((0, 3), (3, 3), (0, 3)), ((1, 3), (3, 3), (1, 3)),
        ((2, 3), (3, 3), (2, 3)), ((3, 3), (3, 3), (3, 3)),
    ],
}


@pytest.mark.parametrize("poset_name", ["chain2", "diamond"])
def test_full_constants_built_once(request, poset_name):
    car = FullHochschildCarrier(request.getfixturevalue(poset_name))
    assert car.identity() is car.identity()
    assert car.mult() is car.mult()
    assert car.identity() == SimpCochain(1, {(x, x): 1 for x in FULL_IDENTITY[poset_name]})
    assert car.mult() == SimpCochain(2, {key: 1 for key in FULL_MULT[poset_name]})


def test_size_caps(sphere):
    car = FullHochschildCarrier(sphere)
    with pytest.raises(TooLarge):
        car.tuples(3)
    with pytest.raises(TooLarge):
        hh_dims(sphere, 3, "full")
    # the weak relative complex has no degree cap, only posets.CHAIN_BUDGET
    assert hh_dims(sphere, 5, "relative", strict=False) == [1, 0, 1, 0, 0, 0]
    assert hh_dims(sphere, 5, "relative") == cohomology_dims(sphere, 5) == [1, 0, 1, 0, 0, 0]


def test_full_cap_refuses_before_any_interval_is_built():
    """chain150 has 11,325 intervals, past FULL_TABLE_LIMIT in degree 1.
    The cap counts them from the up-sets, so hh_dims refuses the poset
    with no weak 1-chain enumerated (none is cached on it)."""
    p = chain_poset(150)
    with pytest.raises(TooLarge, match=r"^11325\*\*1 basis tuples exceeds the full-complex cap$"):
        hh_dims(p, 0, "full")
    assert (1, False) not in p._chains


def test_relative_chains_are_counted_against_the_budget(monkeypatch):
    """The weak relative complex to degree 2 is keyed by the weak chains to
    degree 3, which sphere14 has 1,220 vertices' worth of; they are
    counted against posets.CHAIN_BUDGET, as cohomology_dims counts them,
    before any is enumerated.  The poset is a fresh one: Poset.chains
    counts a level only the first time it builds it."""
    sphere = sphere_poset()
    assert sum((k + 1) * c for k, c in enumerate(sphere.chain_counts(3))) == 1220
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1219)
    with pytest.raises(TooLarge):
        hh_dims(sphere, 2, "relative", strict=False)
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1220)
    assert hh_dims(sphere, 2, "relative", strict=False) == [1, 0, 1]


@pytest.mark.parametrize("which", ["relative", "full"])
def test_a_negative_degree_is_refused_as_cohomology_dims_refuses_it(diamond, which):
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        cohomology_dims(diamond, -1)
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        hh_dims(diamond, -1, which)
    assert hh_dims(diamond, 0, which) == [1]


def test_dimension_tables(chain2, diamond):
    assert hh_dims(chain2, 2, "relative") == [1, 0, 0]
    assert hh_dims(chain2, 2, "full") == [1, 0, 0]
    assert hh_dims(diamond, 2, "relative") == [1, 0, 0]


def test_full_hh_of_the_largest_chain_under_the_cap():
    """21 intervals: 21**3 basis tuples in degree 3, just under the cap,
    and 21**4 rows, each found by its mixed-radix index."""
    assert hh_dims(chain_poset(6), 2, "full") == [1, 0, 0]


def _s3_face_poset():
    """Face poset of the boundary of the 4-simplex, a 3-sphere: the 30
    nonempty proper subsets of {0, ..., 4} ordered by inclusion."""
    faces = [
        "".join(c) for k in range(1, 5) for c in combinations("01234", k)
    ]
    pairs = [
        (a, b)
        for a in faces
        for b in faces
        if len(b) == len(a) + 1 and set(a) <= set(b)
    ]
    return Poset.from_relations(faces, pairs, name="s3_5")


def test_relative_hh_of_the_two_sphere_up_to_degree_3(sphere):
    """Gerstenhaber-Schack: HH* of the incidence algebra is the nerve's
    cohomology, here the 2-sphere's."""
    assert hh_dims(sphere, 3, "relative") == [1, 0, 1, 0]


def test_relative_hh_of_the_three_sphere():
    s3 = _s3_face_poset()
    assert s3.n == 30
    assert hh_dims(s3, 3, "relative") == [1, 0, 0, 1] == cohomology_dims(s3, 3)


def test_relative_hh_in_degree_4(sphere):
    """Degree 4, the weak complex's cap, lies above the top cohomology of
    both spheres: there the relative complex, strict and weak, must give
    0 as the nerve does."""
    s3 = _s3_face_poset()
    assert cohomology_dims(sphere, 4) == [1, 0, 1, 0, 0]
    assert cohomology_dims(s3, 4) == [1, 0, 0, 1, 0]
    for strict in (True, False):
        assert hh_dims(sphere, 4, "relative", strict) == [1, 0, 1, 0, 0]
        assert hh_dims(s3, 4, "relative", strict) == [1, 0, 0, 1, 0]


def test_relative_hh_of_the_opposite_three_sphere():
    """P and P^op have the same nerve, so the same dimensions."""
    assert hh_dims(opposite_poset(_s3_face_poset()), 2, "relative") == [1, 0, 0]


def test_series_ring_cochains(chain2):
    """Relative cochains and algebra elements evaluate over series too."""
    one = TruncSeries.one(1)
    car = RelHochschildCarrier(chain2)
    m = SimpCochain(2, {c: one for c in chain2.chains(2)})
    i0, i1 = chain2.index("0"), chain2.index("1")
    a = {(i0, i1): one}
    b = {(i1, i1): one}
    assert rel_eval(m, [a, b]) == a
    assert rel_eval(m.scale(2), [a, b]) == inc_scale(a, 2)
    lam = TruncSeries(1, (0, 1))
    assert rel_eval(m, [inc_scale(a, lam), inc_scale(b, lam)]) == {}
    assert not TruncSeries(1) and TruncSeries.one(1) and lam


def test_full_kernel_composes_series_values(diamond):
    """A series-valued full cochain S = sum_k L_k lam^k composes with
    identity() and mult(), in every slot, on either side and signed, as
    each layer L_k does: the full kernel sums series as the other two do."""
    car, order = FullHochschildCarrier(diamond), 2
    rng = random.Random("full-kernel:series")
    for n in (1, 2):
        layers = [car.random_elem(n, rng) for _ in range(order + 1)]
        keys = set().union(*[x.values for x in layers])
        s = SimpCochain(n, {k: TruncSeries(order, [x.value(k) for x in layers]) for k in keys})
        for c in (car.identity(), car.mult()):
            pairs = [(s, j, c) for j in range(1, n + 1)]
            pairs += [(c, j, s) for j in range(1, c.degree + 1)]
            for (f, j, g), e in [(fjg, e) for fjg in pairs for e in (0, 1)]:
                deg = f.degree + g.degree - 1
                got = compose_sum(car, deg, [(e, f, j, g)])
                assert got.den == 1 and all(got.values.values())
                for k, x in enumerate(layers):
                    fk, gk = (x if f is s else f), (x if g is s else g)
                    assert _layer(deg, got.values, k) == compose_sum(car, deg, [(e, fk, j, gk)])
