"""opcore's one-pass signed sums against the route they replaced.

circle, brace, dot, differential, bracket and curvature fill one dict
through each carrier's compose_into and reduce once (compose_sum).  The
reference (lincomb_route) builds one compose_at per slot, each reduced
by its own gcd, and merges them with SimpCochain.lincomb.  Both must give
the same canonical cochain on the simplicial, relative and full carriers,
for operands with different denominators, for sums that cancel to zero,
and for the series-valued cochain of an MCElement."""

import random
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import lincomb_route as ref
from posetdeform.deform import MCElement, moduli
from posetdeform.hochschild import FullHochschildCarrier, RelHochschildCarrier
from posetdeform.opcore import brace, bracket, circle, curvature, differential, dot
from posetdeform.posets import diamond_poset, sphere_poset
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
DIAMOND = diamond_poset()
CARRIERS = {
    "simplicial": SimplicialCarrier(DIAMOND),
    "relative": RelHochschildCarrier(DIAMOND),
    "full": FullHochschildCarrier(DIAMOND),
}
RATS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@lru_cache(maxsize=None)
def keys(kind, n):
    """The basis keys of degree n: weak chains, or for the full carrier
    every tuple of argument intervals followed by an output interval."""
    if kind != "full":
        return DIAMOND.chains(n)
    return tuple(t + (y,) for t in CARRIERS["full"].tuples(n) for y in DIAMOND.intervals())


@st.composite
def cochains(draw, kind, degree):
    picked = draw(st.lists(st.sampled_from(keys(kind, degree)), unique=True, max_size=12))
    return SimpCochain(degree, {k: draw(RATS) for k in picked})


@st.composite
def operands(draw, kind):
    """x, y of arity 0..3 and z of arity 0..2 with values a/b, b <= 12;
    a quarter of the time y is x, so that [x, x] cancels for odd arity."""
    x = draw(cochains(kind, draw(st.integers(0, 3))))
    y = x if draw(st.integers(0, 3)) == 0 else draw(cochains(kind, draw(st.integers(0, 3))))
    return x, y, draw(cochains(kind, draw(st.integers(0, 2))))


def one_pass_and_reference(car, x, y, z):
    """(name, one-pass value, reference value) for every sum on x, y, z."""
    out = [
        ("circle", circle(car, x, y), ref.circle(car, x, y)),
        ("brace1", brace(car, x, [y]), ref.brace(car, x, [y])),
        ("brace2", brace(car, x, [y, z]), ref.brace(car, x, [y, z])),
        ("dot", dot(car, x, y), ref.dot(car, x, y)),
        ("differential", differential(car, x), ref.differential(car, x)),
        ("bracket", bracket(car, x, y), ref.bracket(car, x, y)),
    ]
    if x.degree == 2:
        out.append(("curvature", curvature(car, x), ref.curvature(car, x)))
    return out


def check(car, x, y, z):
    for name, got, want in one_pass_and_reference(car, x, y, z):
        assert got == want, name
        assert got.den > 0 and all(got.values.values()), name


@pytest.mark.parametrize("kind", list(CARRIERS))
@SETTINGS
@given(data=st.data())
def test_one_pass_sums_match_the_lincomb_route(kind, data):
    car = CARRIERS[kind]
    x, y, z = data.draw(operands(kind))
    check(car, x, y, z)
    # sums that cancel: d d x, and [x, x] for even shifted degree
    dd = differential(car, differential(car, x))
    assert dd == ref.differential(car, ref.differential(car, x)) == SimpCochain(x.degree + 2)
    if x.degree % 2:
        assert bracket(car, x, x) == SimpCochain(2 * x.degree - 1)


@pytest.mark.parametrize("kind", list(CARRIERS))
def test_cancelling_sums_on_the_constants(kind):
    """m o m, [m, m] and d m are zero; d of the identity and of a unit
    key are not, and all of them match the reference."""
    car = CARRIERS[kind]
    m, e = car.mult(), car.identity()
    for x, y in ((m, m), (e, m), (m, e), (e, e)):
        check(car, x, y, e)
    for zero in (circle(car, m, m), bracket(car, m, m), differential(car, m)):
        assert zero.is_zero()
    assert not differential(car, e).is_zero()


@st.composite
def mc_elements(draw):
    """An MCElement of order 1..4 on the diamond with up to three layers."""
    order = draw(st.integers(1, 4))
    layers = draw(st.lists(st.integers(1, order), unique=True, max_size=3))
    return MCElement(order, {n: draw(cochains("simplicial", 2)) for n in layers})


@pytest.mark.parametrize("kind", ["simplicial", "relative"])
@SETTINGS
@given(data=st.data())
def test_one_pass_sums_on_series_values(kind, data):
    """The series-valued W of an MCElement (den 1, never reduced): every
    sum of W with itself, and mc_check's defect dW + W o W."""
    w = data.draw(mc_elements()).w
    check(CARRIERS[kind], w, w, w)


def test_curvature_of_mc_elements_cancels():
    """On genuine MC elements (the moduli basis of sphere14, one and two
    layers deep) the one-pass defect and the reference are both zero; a
    random element has a nonzero defect, the same on both routes."""
    sphere = sphere_poset()
    car = SimplicialCarrier(sphere)
    for order in (1, 2):
        for e in moduli(sphere, order)[1]:
            assert curvature(car, e.w).is_zero() and ref.curvature(car, e.w).is_zero()
    rng = random.Random("compose-sum:mc")
    bad = MCElement(2, {1: car.random_elem(2, rng), 2: car.random_elem(2, rng)})
    got = curvature(car, bad.w)
    assert not got.is_zero() and got == ref.curvature(car, bad.w)
