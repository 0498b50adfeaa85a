"""mc_check's curvature on ints at lam = 2**b against the series route.

The reference is the route mc_check took before it evaluated W at
lam = 2**b: opcore.curvature on the TruncSeries values of W, truncated
by the series product itself, and the witness read off that.  On every
input the int route must give the same truncated defect, chain by chain
and coefficient by coefficient, and the same verdict and witness.
Comparing the coefficients, not only the verdict, is what catches a
wrong slot width or a digit read unsigned: the lowest nonzero digit of a
chain stays the lowest one under either mistake."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdeform import deform
from posetdeform.deform import MAX_ORDER, MCElement, mc_check
from posetdeform.opcore import SignFlip, curvature
from posetdeform.posets import chain_poset, diamond_poset, sphere_poset
from posetdeform.scalars import digits, kronecker
from posetdeform.simplicial import SimpCochain, SimplicialCarrier
from test_deform import NoDifferential, exp_coboundary

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
# chain4 has strict 3-chains, where the linear and quadratic terms of an
# MC element can cancel; the weak 3-chains of the others all repeat a vertex
POSETS = {
    p.name: (p, SimplicialCarrier(p))
    for p in (diamond_poset(), sphere_poset(), chain_poset(4))
}
CARRIERS = {
    "simplicial": lambda car: car,
    "signflip": SignFlip,
    "nodifferential": NoDifferential,
}
NUMS = st.integers(-(2**200), 2**200)
DENS = st.integers(1, 2**64)


def reference_mc_check(p, e, car):
    """mc_check as it was: the curvature of the series-valued W."""
    defect = curvature(car, e.w).values
    if not defect:
        return True, None
    n, ch = min(
        (next(k for k, a in enumerate(s.num) if a), ch) for ch, s in defect.items()
    )
    return False, (n, tuple(p.chain_labels(ch)))


@st.composite
def elements(draw):
    """A poset, a carrier and an element on it: sparse layers of values
    up to 2**200 over dens up to 2**64 at any order, or, a third of the
    time, exp(d(psi) lam**j) at an order up to 12 with 2j <= order, an MC
    element whose quadratic term the linear one cancels on chain4."""
    p, simp = POSETS[draw(st.sampled_from(sorted(POSETS)))]
    car = CARRIERS[draw(st.sampled_from(sorted(CARRIERS)))](simp)
    if draw(st.integers(0, 2)):
        order = draw(st.one_of(st.integers(1, 6), st.integers(1, MAX_ORDER)))
        chains = p.chains(2)
        entries = draw(st.lists(
            st.tuples(st.integers(1, order), st.integers(0, len(chains) - 1), NUMS, DENS),
            max_size=6,
        ))
        layers = {}
        for n, k, a, b in entries:
            layers.setdefault(n, {})[chains[k]] = Fraction(a, b)
        return p, car, MCElement(order, {n: SimpCochain(2, v) for n, v in layers.items()})
    order = draw(st.integers(2, 12))
    chains = p.chains(1)
    psi = SimpCochain(1, {
        chains[k]: Fraction(draw(st.integers(-(2**20), 2**20)), draw(st.integers(1, 2**20)))
        for k in draw(st.lists(st.integers(0, len(chains) - 1), min_size=1, max_size=3))
    })
    return p, car, exp_coboundary(p, order, draw(st.integers(1, order // 2)), psi)


@SETTINGS
@given(elements())
def test_mc_check_matches_the_series_route(case):
    p, car, e = case
    want = curvature(car, e.w)
    assert deform._defect(car, e.w, e.order) == want.values
    assert mc_check(p, e, car) == reference_mc_check(p, e, car)


def test_the_cases_reach_both_verdicts_and_cancellation():
    """The strategy above draws MC elements whose quadratic term is not
    zero, as well as failing ones, on every carrier."""
    seen = set()

    @SETTINGS
    @given(elements())
    def collect(case):
        p, car, e = case
        simp = POSETS[p.name][1]
        ok = mc_check(p, e, car)[0]
        quadratic = not curvature(NoDifferential(simp), e.w).is_zero()
        seen.add((type(car).__name__, ok, ok and quadratic))

    collect()
    for name in ("SimplicialCarrier", "SignFlip", "NoDifferential"):
        assert (name, False, False) in seen
    assert ("SimplicialCarrier", True, True) in seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 80).flatmap(
    lambda b: st.tuples(
        st.just(b),
        st.lists(st.integers(-(2 ** (b - 1)), 2 ** (b - 1) - 1), min_size=1, max_size=8),
        st.integers(0, 8),
    )
))
def test_digits_read_back_what_kronecker_packs(case):
    """Any coefficients in [-2**(b-1), 2**(b-1)) come back from their value
    at lam = 2**b, lowest first, padded with zeros; digits past n are
    dropped, as mc_check drops the truncation."""
    b, num, n = case
    v = kronecker(num, b)
    assert v == sum(a * 2 ** (b * k) for k, a in enumerate(num))
    assert digits(v, b, n) == (num + [0] * n)[: n + 1]
    assert digits(v & ((1 << b * (n + 1)) - 1), b, n) == digits(v, b, n)
