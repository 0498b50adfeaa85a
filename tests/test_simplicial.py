"""Simplicial cochains on poset nerves and their cohomology."""

import inspect
import random
from fractions import Fraction

import pytest

from posetdeform import linalg, simplicial
from posetdeform.hochschild import RelHochschildCarrier
from posetdeform.linalg import rank
from posetdeform.posets import Poset, UnknownElement, chain_poset
from posetdeform.scalars import TruncSeries
from posetdeform.simplicial import (
    SimpCochain,
    SimplicialCarrier,
    coboundary_matrix,
    cohomology_dims,
)
from poset_builders import (
    RP2_6,
    S3_5,
    TORUS7,
    face_poset,
    levels_poset,
    opposite_poset,
    subdivide,
)


def test_compose_on_two_element_chain(chain2):
    car = SimplicialCarrier(chain2)
    rng = random.Random("simp:c2")
    f = car.random_elem(1, rng)
    g = car.random_elem(1, rng)
    h = car.compose_at(f, 1, g)
    i0, i1 = chain2.index("0"), chain2.index("1")
    assert h.value((i0, i1)) == f.value((i0, i1)) * g.value((i0, i1))


def test_vanishing_series_products_leave_no_entry(chain2):
    """lam * lam is 0 at order 1: composing the constant lam with itself
    gives the zero cochain on both carriers, with no zero-series entries."""
    for car in (SimplicialCarrier(chain2), RelHochschildCarrier(chain2)):
        lam = SimpCochain(1, {c: TruncSeries(1, (0, 1)) for c in chain2.chains(1)})
        got = car.compose_at(lam, 1, lam)
        assert got == SimpCochain(1) and got.is_zero()


def test_constants(diamond):
    car = SimplicialCarrier(diamond)
    e, m = car.identity(), car.mult()
    assert e.degree == 1 and m.degree == 2
    for c in diamond.chains(1):
        assert e.value(c) == 1
    # degenerate chains included
    v = diamond.index("a")
    assert e.value((v, v)) == 1


def test_cochain_arithmetic(diamond):
    car = SimplicialCarrier(diamond)
    rng = random.Random("simp:arith")
    x = car.random_elem(2, rng)
    y = car.random_elem(2, rng)
    assert x.add(y) == y.add(x)
    assert x.add(y.scale(Fraction(-1))) == x - y
    z = x - x
    assert z.is_zero() and z.values == {}
    assert (Fraction(2) * x).value(next(iter(x.values))) == 2 * x.value(
        next(iter(x.values))
    )


def test_value_defaults_to_zero(diamond):
    x = SimpCochain(1, {})
    assert x.value(diamond.chains(1)[0]) == 0


def test_serialization_round_trip(diamond):
    car = SimplicialCarrier(diamond)
    x = car.random_elem(2, random.Random("simp:ser"))
    d = x.to_dict(diamond)
    assert d["degree"] == 2
    y = SimpCochain.from_dict(diamond, d)
    assert y == x


def test_from_dict_rejects_unknown_labels(diamond):
    bad = {"degree": 1, "entries": [{"chain": ["a", "nope"], "value": "1"}]}
    with pytest.raises(UnknownElement):
        SimpCochain.from_dict(diamond, bad)


def test_random_elem_is_deterministic(diamond):
    car = SimplicialCarrier(diamond)
    a = car.random_elem(2, random.Random("fixed"))
    b = car.random_elem(2, random.Random("fixed"))
    assert a == b


def randint_elem(car, n, rng):
    """random_elem's draws as rng.randint makes them, the reference for
    its getrandbits route: a in -3..3 and then b in 1..3 per chain."""
    vals = {}
    for c in car.poset.chains(n):
        v = rng.randint(-3, 3) * (6 // rng.randint(1, 3))
        if v:
            vals[c] = v
    return SimpCochain._reduced(n, vals, 6)


def test_random_elem_draws_the_randint_stream(diamond):
    """50 seeds, degrees 0..5: the same cochain, its vector the same
    values, and the generator left in the same state."""
    car = SimplicialCarrier(diamond)
    for seed in range(50):
        for n in range(6):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got, want = car.random_elem(n, got_rng), randint_elem(car, n, want_rng)
            assert got == want, (seed, n)
            assert got_rng.getstate() == want_rng.getstate(), (seed, n)
            poset, vec = got._vec
            assert poset is diamond
            assert vec == [got.values.get(c, 0) for c in diamond.chains(n)]


def test_contractible_posets(chain3, diamond):
    assert cohomology_dims(chain3, 2) == [1, 0, 0]
    assert cohomology_dims(diamond, 2) == [1, 0, 0]
    assert cohomology_dims(chain_poset(1), 2) == [1, 0, 0]


def test_crown_circle(cr4):
    assert cohomology_dims(cr4, 2) == [1, 1, 0]
    assert cohomology_dims(cr4, 2, strict=False) == [1, 1, 0]
    # the strict complex behind the numbers: d0 is 4x4 of rank 3 and
    # there are no strict 2-chains at all
    d0 = coboundary_matrix(cr4, 0, strict=True)
    assert (d0.rows, d0.cols) == (4, 4) and rank(d0) == 3
    d1 = coboundary_matrix(cr4, 1, strict=True)
    assert d1.rows == 0


def test_sphere(sphere):
    assert cohomology_dims(sphere, 2) == [1, 0, 1]
    d0 = coboundary_matrix(sphere, 0, strict=True)
    d1 = coboundary_matrix(sphere, 1, strict=True)
    assert (d0.rows, d0.cols) == (36, 14) and rank(d0) == 13
    assert (d1.rows, d1.cols) == (24, 36) and rank(d1) == 23


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize(
    "facets,n,betti",
    [
        (subdivide(subdivide(TORUS7)), 1512, [1, 2, 1]),
        (subdivide(S3_5), 540, [1, 0, 0, 1]),
        (RP2_6, 31, [1, 0, 0]),
    ],
    ids=["sd2-torus7", "sd-s3_5", "rp2_6"],
)
def test_betti_numbers_of_triangulated_spaces(facets, n, betti, opposite):
    """The nerve of a face poset, or of its opposite, is the barycentric
    subdivision of the complex, so its Betti numbers are the space's;
    chi from the strict chain counts is their alternating sum."""
    p = face_poset(facets)
    if opposite:
        p = opposite_poset(p)
    top = len(betti) - 1
    assert p.n == n
    assert cohomology_dims(p, top) == betti
    assert p.chains(top + 1, strict=True) == ()
    chi = sum((-1) ** k * len(p.chains(k, strict=True)) for k in range(top + 1))
    assert chi == sum((-1) ** k * b for k, b in enumerate(betti))


@pytest.mark.parametrize("opposite", [False, True])
def test_subdivided_3_sphere_fits_a_small_fill_budget(opposite, monkeypatch):
    """Pivoting on the last live row, no elimination of the subdivided
    3-sphere holds 50,000 entries in either orientation; pivoting on the
    first, its strict d_2 held 80,648 and, on the opposite, 465,353."""
    p = face_poset(subdivide(S3_5))
    if opposite:
        p = opposite_poset(p)
    monkeypatch.setattr(linalg, "FILL_BUDGET", 50_000)
    assert cohomology_dims(p, 3) == [1, 0, 0, 1]


def test_four_levels_of_twelve_to_degree_2():
    """The ordinal sum of four 12-element antichains is a wedge of 3-spheres,
    so it has no H^1 and no H^2."""
    assert cohomology_dims(levels_poset(4, 12), 2) == [1, 0, 0]


def test_four_levels_of_twelve_fit_a_fill_budget_of_100000(monkeypatch):
    """Row by row, no row of the strict d_2 fills in before it is reached:
    it holds at most 89,549 entries, where the column sweep, each column
    reducing every live row at once, held 155,809."""
    monkeypatch.setattr(linalg, "FILL_BUDGET", 100_000)
    assert cohomology_dims(levels_poset(4, 12), 2) == [1, 0, 0]


def product(a, b):
    """The entries of a * b, as a dict (row, col) -> value without zeros."""
    rows = {}
    for (r, c), v in b.entries.items():
        rows.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), v in a.entries.items():
        for c, w in rows.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


def dropped_face_mutant(i):
    """coboundary_matrix from its own source, with face position i left out
    of every row."""
    src = inspect.getsource(simplicial.coboundary_matrix)
    loop = "for i, face in enumerate(faces):"
    assert src.count(loop) == 1
    ns = dict(vars(simplicial))
    exec(src.replace(loop, loop + "\n        if i == %d:\n            continue" % i), ns)
    return ns["coboundary_matrix"]


@pytest.mark.parametrize(
    "facets,betti",
    [(TORUS7, [1, 2, 1]), (subdivide(S3_5), [1, 0, 0, 1])],
    ids=["torus7", "sd-s3_5"],
)
def test_every_dropped_face_is_caught(facets, betti, monkeypatch):
    """d_{n+1} d_n = 0 on the strict and the weak complex, n < top.  With
    face position i >= 1 left out of every row, some such product is not
    0.  Face 0 left out leaves the alternating sum of faces 1..n+1, which
    still satisfy the simplicial identities among themselves, so it
    squares to 0: the Betti numbers catch it."""
    p = face_poset(facets)
    top = len(betti) - 1

    def squares(cob):
        return (
            product(cob(p, n + 1, strict), cob(p, n, strict))
            for strict in (True, False)
            for n in range(top)
        )

    assert not any(squares(coboundary_matrix))
    for i in range(1, top + 1):
        assert any(squares(dropped_face_mutant(i))), i
    mutant = dropped_face_mutant(0)
    assert not any(squares(mutant))
    monkeypatch.setattr(simplicial, "coboundary_matrix", mutant)
    assert cohomology_dims(p, top) != betti


def test_weak_and_strict_dims_agree(chain2, chain3, diamond, cr4):
    for p in (chain2, chain3, diamond, cr4):
        assert cohomology_dims(p, 2, strict=True) == cohomology_dims(
            p, 2, strict=False
        )


def test_cochain_refuses_floats():
    """A float value is refused, not read as its binary value; ints,
    Fractions and strings build the same exact cochain."""
    with pytest.raises(TypeError):
        SimpCochain(1, {(0, 0): 0.1})
    with pytest.raises(TypeError):
        SimpCochain(0, [((0,), 2.0)])
    x = SimpCochain(1, {(0, 0): "1/3", (0, 1): 2})
    assert x == SimpCochain(1, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2)})
    assert (x.den, x.values) == (3, {(0, 0): 1, (0, 1): 6})


def test_diff_witness_names_a_chain(diamond):
    car = SimplicialCarrier(diamond)
    x = SimpCochain(1)
    y = car.constant(1)
    w = car.diff_witness(x, y)
    assert w != "" and "(" in w
    assert car.diff_witness(x, x) == ""
