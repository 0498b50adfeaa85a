"""SimpCochain's int numerators over one denominator against plain
dicts of Fractions.

A cochain stores values[chain] / den with gcd(den, *values) == 1.  The
references below keep one Fraction per chain and do the arithmetic the
obvious way; on every input the stored cochain must read the same values,
and after every operation it must be in that canonical form, since
equality compares den and values directly."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_builders import le

from posetdeform.hochschild import RelHochschildCarrier
from posetdeform.posets import diamond_poset
from posetdeform.scalars import TruncSeries
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
DIAMOND = diamond_poset()
CARRIERS = {
    "simplicial": SimplicialCarrier(DIAMOND),
    "relative": RelHochschildCarrier(DIAMOND),
}
RATS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


def ref_of(vals):
    """The reference: nonzero values as Fractions."""
    return {ch: Fraction(v) for ch, v in vals.items() if v}


def ref_add(a, b):
    out = dict(a)
    for ch, v in b.items():
        out[ch] = out.get(ch, 0) + v
    return {ch: v for ch, v in out.items() if v}


def ref_compose(f, p, j, g, q):
    """(f o_j g)(c) = f(c[:j] + c[j+q-1:]) * g(c[j-1:j+q]) on every chain c
    of the output degree: face restriction, which the relative carrier
    must match too (Gerstenhaber-Schack)."""
    out = {}
    for c in DIAMOND.chains(p + q - 1):
        v = f.get(c[:j] + c[j + q - 1 :], 0) * g.get(c[j - 1 : j + q], 0)
        if v:
            out[c] = v
    return out


def assert_matches(x, degree, ref):
    """x is canonical and reads ref, straight from its storage and
    through value()."""
    assert x.degree == degree
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v for v in x.values.values())
    assert gcd(x.den, *x.values.values()) == 1
    assert set(x.values) == set(ref)
    for ch, v in ref.items():
        assert Fraction(x.values[ch], x.den) == v
    for ch in DIAMOND.chains(degree):
        got = x.value(ch)
        assert type(got) is Fraction and got == ref.get(ch, 0)


@st.composite
def cochain_data(draw, degree=None):
    n = draw(st.integers(0, 2)) if degree is None else degree
    picked = draw(st.lists(st.sampled_from(DIAMOND.chains(n)), unique=True, max_size=10))
    return n, {ch: draw(RATS) for ch in picked}


@st.composite
def addends(draw):
    """Two same-degree cochains: independent, or the second one cancelling
    the first to zero or to an integer on part of its support."""
    n, a = draw(cochain_data())
    mode = draw(st.sampled_from(["independent", "cancel", "integral"]))
    if mode == "independent":
        _, b = draw(cochain_data(n))
    else:
        b = {}
        for ch, v in a.items():
            k = draw(st.integers(-2, 2)) if mode == "integral" else 0
            b[ch] = k - Fraction(v)
    return n, a, b


@SETTINGS
@given(cochain_data())
def test_construction_reads_the_values(data):
    n, vals = data
    assert_matches(SimpCochain(n, vals), n, ref_of(vals))
    # strings parse to the same cochain
    strs = {ch: str(Fraction(v)) for ch, v in vals.items()}
    assert SimpCochain(n, strs) == SimpCochain(n, vals)


@SETTINGS
@given(addends())
def test_add_matches_reference(data):
    n, a, b = data
    x, y = SimpCochain(n, a), SimpCochain(n, b)
    want = ref_add(ref_of(a), ref_of(b))
    assert_matches(x.add(y), n, want)
    assert_matches(y + x, n, want)
    assert_matches(x - x, n, {})


@st.composite
def signed_terms(draw):
    """Up to four terms (e, values) of one degree, with mixed dens; half
    the time one more term cancels the sum of the others to zero."""
    n, _ = draw(cochain_data())
    terms = [
        (draw(st.integers(0, 3)), draw(cochain_data(n))[1])
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):
        total = {}
        for e, vals in terms:
            total = ref_add(total, {ch: (-1) ** e * v for ch, v in ref_of(vals).items()})
        terms.append((1, total))
    return n, terms


@SETTINGS
@given(signed_terms())
def test_lincomb_matches_the_fold_of_add_and_scale(data):
    n, terms = data
    xs = [(e, SimpCochain(n, vals)) for e, vals in terms]
    folded, want = SimpCochain(n), {}
    for (e, x), (_, vals) in zip(xs, terms):
        folded = folded.add(x.scale((-1) ** e))
        want = ref_add(want, {ch: (-1) ** e * v for ch, v in ref_of(vals).items()})
    got = SimpCochain.lincomb(n, xs)
    assert got == folded
    assert_matches(got, n, want)


def test_lincomb_of_series_cochains():
    """Series values (den 1, never reduced): the same sum as the fold, no
    entry that is a zero series, and zero when the terms cancel."""
    zero = TruncSeries(2)
    values = [
        TruncSeries(2, cs)
        for cs in ((1,), (0, 1), (2, -1, 3), (0, 0, -1), (Fraction(1, 2), 1), (-1,))
    ]
    chains = DIAMOND.chains(1)
    rng = random.Random("lincomb-series")
    xs = [
        (e, SimpCochain(1, {c: rng.choice(values) for c in rng.sample(chains, 6)}))
        for e in (0, 1, 2, 3, 1)
    ]
    folded = SimpCochain(1)
    for e, x in xs:
        folded = folded + x.scale((-1) ** e)
    got = SimpCochain.lincomb(1, xs)
    assert got == folded and got.den == 1
    assert all(v for v in got.values.values())
    for c in chains:
        want = sum((x.values.get(c, zero) * (-1) ** e for e, x in xs), zero)
        assert got.values.get(c, zero) == want
    assert SimpCochain.lincomb(1, xs + [(1, got)]) == SimpCochain(1)


@SETTINGS
@given(
    cochain_data(),
    st.one_of(
        st.sampled_from([0, 1, -1, Fraction(-1)]),
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
    ),
)
def test_scale_matches_reference(data, c):
    n, vals = data
    x = SimpCochain(n, vals)
    want = {ch: c * v for ch, v in ref_of(vals).items() if c * v}
    assert_matches(x.scale(c), n, want)
    assert_matches(-x, n, {ch: -v for ch, v in ref_of(vals).items()})


@SETTINGS
@given(cochain_data(), st.data())
def test_equal_cochains_built_differently_are_equal(data, draw):
    """Sums of parts, scaling there and back, and ints against Fractions
    all land on one stored form."""
    n, vals = data
    x = SimpCochain(n, vals)
    parts = {ch: draw.draw(RATS) for ch in vals}
    rest = {ch: Fraction(v) - Fraction(parts[ch]) for ch, v in vals.items()}
    y = SimpCochain(n, parts) + SimpCochain(n, rest)
    assert y == x and y.den == x.den and y.values == x.values
    c = draw.draw(st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool))
    assert x.scale(c).scale(1 / c) == x
    as_fractions = SimpCochain(n, {ch: Fraction(v) for ch, v in vals.items()})
    assert as_fractions == x


def test_halves_sum_to_one():
    ch = DIAMOND.chains(1)[0]
    half = SimpCochain(1, {ch: Fraction(1, 2)})
    one = half + half
    assert one == SimpCochain(1, {ch: 1}) and one.den == 1 and one.values == {ch: 1}
    assert_matches(one, 1, {ch: Fraction(1)})


@SETTINGS
@given(cochain_data())
def test_to_dict_from_dict_round_trip(data):
    n, vals = data
    x = SimpCochain(n, vals)
    doc = json.loads(json.dumps(x.to_dict(DIAMOND)))
    y = SimpCochain.from_dict(DIAMOND, doc)
    assert y == x
    assert_matches(y, n, ref_of(vals))


@SETTINGS
@given(
    st.sampled_from(sorted(CARRIERS)),
    st.integers(1, 3),
    st.integers(0, 2),
    st.data(),
)
def test_compose_at_matches_reference(kind, p, q, draw):
    j = draw.draw(st.integers(1, p))
    _, f = draw.draw(cochain_data(p))
    _, g = draw.draw(cochain_data(q))
    got = CARRIERS[kind].compose_at(SimpCochain(p, f), j, SimpCochain(q, g))
    assert_matches(got, p + q - 1, ref_compose(ref_of(f), p, j, ref_of(g), q))


def reference_from_dict(poset, d):
    """SimpCochain.from_dict's entry loop before it mapped labels in one
    comprehension and read plain strings with int(): every label through
    Poset.index, every order through le, every value through
    Fraction."""
    vals = {}
    for e in d["entries"]:
        ch = tuple(map(poset.index, e["chain"]))
        if not all(le(poset, a, b) for a, b in zip(ch, ch[1:])):
            raise ValueError("%r is not a chain" % (e["chain"],))
        if ch in vals:
            raise ValueError("chain %r is listed twice" % (e["chain"],))
        v = e["value"]
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise ValueError("value %r is not a string or an integer" % (v,))
        try:
            vals[ch] = Fraction(v)
        except ZeroDivisionError:
            raise ValueError("value %r divides by zero" % (v,)) from None
    return SimpCochain(len(d["entries"][0]["chain"]) - 1, vals)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type and the message must match
        return type(exc), str(exc)


SPECIAL_VALUES = [
    " 1/2", "+3", "1.5", "1e3", "1_0", "١", "3/0", "-0/5", True, False, "", "-",
    "--3", "-+3", "1/-2", "1/", "/2", "0x10", "007", "-0", "1 /2", "²", "1/2/3",
    "\t4\n", None, 1.5, [1], 12, -7,
]
VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.integers(-(2**70), 2**70),
    st.fractions().map(str),
    st.text(alphabet="0123456789-+/ ._e١²", max_size=8),
)
LABELS = st.one_of(st.sampled_from(DIAMOND.labels), st.sampled_from(["zz", 7]))


def check_from_dict(entries):
    doc = {"degree": 1, "entries": [{"chain": c, "value": v} for c, v in entries]}
    got = outcome(SimpCochain.from_dict, DIAMOND, doc)
    assert got == outcome(reference_from_dict, DIAMOND, doc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.lists(LABELS, min_size=2, max_size=2), VALUES),
                min_size=1, max_size=3))
def test_from_dict_reads_values_and_chains_as_fraction_does(entries):
    """The int() fast path for plain ASCII n and n/d, the one-comprehension
    label map and the up-set bit test accept and reject the same documents
    as the Fraction and Poset.le route, with the same values and the same
    error messages."""
    check_from_dict(entries)


@pytest.mark.parametrize("v", SPECIAL_VALUES, ids=repr)
def test_from_dict_reads_each_special_value_as_fraction_does(v):
    bot = DIAMOND.labels[0]
    check_from_dict([([bot, bot], v)])
