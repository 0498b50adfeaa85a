"""TruncSeries' int numerators over one denominator against plain lists
of Fractions, and the face-sparse Witt coboundary against the loop over
every face.

A series stores coefficient n as num[n] / den with gcd(den, *num) == 1.
The references below are the tuple-of-Fraction algorithms the series
type used before: one Fraction per coefficient, every sum and product
reduced by Fraction itself.  On every input the stored series must read
the reference's coefficients, and after every operation it must be in
that canonical form, since equality and hashing compare den and num
directly."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdeform.deform import witt_coboundary
from posetdeform.posets import diamond_poset
from posetdeform.scalars import TruncSeries, format_rat
from posetdeform.simplicial import SimpCochain

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
DIAMOND = diamond_poset()
F0, F1 = Fraction(0), Fraction(1)


# -- the reference: one Fraction per coefficient ------------------------------


def ref_mul(a, b):
    n = len(a) - 1
    out = [F0] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            if b[j] != 0:
                out[i + j] += x * b[j]
    return out


def ref_inverse(a):
    n = len(a) - 1
    inv0 = F1 / a[0]
    out = [inv0] + [F0] * n
    for k in range(1, n + 1):
        s = F0
        for i in range(1, k + 1):
            if a[i] != 0:
                s += a[i] * out[k - i]
        out[k] = -inv0 * s
    return out


def ref_log(a):
    n = len(a) - 1
    out = [F0] * (n + 1)
    for k in range(1, n + 1):
        s = k * a[k]
        for m in range(1, k):
            if out[m] != 0 and a[k - m] != 0:
                s -= m * out[m] * a[k - m]
        out[k] = s / k
    return out


def ref_exp(u):
    n = len(u) - 1
    out = [F1] + [F0] * n
    for k in range(1, n + 1):
        s = F0
        for m in range(1, k + 1):
            if u[m] != 0 and out[k - m] != 0:
                s += m * u[m] * out[k - m]
        out[k] = s / k
    return out


def assert_series(s, ref):
    """s is canonical and reads ref, from its storage and through coeffs;
    it equals, and hashes like, the series built from ref."""
    n = len(ref) - 1
    assert s.order == n
    assert type(s.den) is int and s.den > 0
    assert type(s.num) is tuple and len(s.num) == n + 1
    assert all(type(a) is int for a in s.num)
    assert gcd(s.den, *s.num) == 1
    assert [Fraction(a, s.den) for a in s.num] == ref
    assert all(type(c) is Fraction for c in s.coeffs) and list(s.coeffs) == ref
    assert bool(s) == any(ref)
    built = TruncSeries(n, ref)
    assert s == built and hash(s) == hash(built)


# -- strategies ---------------------------------------------------------------

# a/b with |a| <= 6 and 1 <= b <= 12, zero first so that examples shrink to it
SMALL_VALUES = sorted(
    {Fraction(a, b) for a in range(-6, 7) for b in range(1, 13)}, key=abs
)
SMALL = st.sampled_from(SMALL_VALUES)
NONZERO = st.sampled_from(SMALL_VALUES[1:])
# denominators of 40 to 50 bits, as gauge witnesses at order 20 carry
BIG = st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(2**40, 2**50))


@st.composite
def coeff_lists(draw, order=None, const=None):
    """order + 1 Fractions: small, mostly zero, with large denominators,
    or the coefficients of exp of a small series, whose denominators
    grow like k! times a power of the small ones."""
    n = draw(st.integers(0, 20)) if order is None else order
    kind = draw(st.sampled_from(["small", "sparse", "big", "exp"]))
    if kind == "small":
        cs = draw(st.lists(SMALL, min_size=n + 1, max_size=n + 1))
    elif kind == "sparse":
        cs = [F0] * (n + 1)
        for k in draw(st.lists(st.integers(0, n), max_size=3)):
            cs[k] = draw(NONZERO)
    elif kind == "big":
        cs = draw(st.lists(st.one_of(SMALL, BIG), min_size=n + 1, max_size=n + 1))
    else:
        cs = ref_exp([F0] + draw(st.lists(SMALL, min_size=n, max_size=n)))
        scale = draw(st.one_of(st.just(F1), NONZERO))
        cs = [c * scale for c in cs]
    if const is not None:
        cs[0] = Fraction(const)
    return cs


@st.composite
def series_pairs(draw):
    """Two lists of one order: independent, or the second cancelling the
    first to zero or to integers on some coefficients."""
    a = draw(coeff_lists())
    mode = draw(st.sampled_from(["independent", "cancel", "integral"]))
    if mode == "independent":
        b = draw(coeff_lists(len(a) - 1))
    else:
        b = [
            (draw(st.integers(-2, 2)) if mode == "integral" else 0) - x
            if draw(st.booleans()) else x
            for x in a
        ]
    return a, b


def as_given(draw, cs):
    """cs written as a caller might: ints where integral, Fractions,
    strings, with trailing zeros left off."""
    forms = []
    for c in cs:
        kind = draw(st.sampled_from(["fraction", "string", "int"]))
        if kind == "string":
            forms.append(str(c))
        elif kind == "int" and c.denominator == 1:
            forms.append(int(c))
        else:
            forms.append(c)
    while forms and draw(st.booleans()) and not forms[-1]:
        forms.pop()
    return forms


# -- the series type ----------------------------------------------------------


@SETTINGS
@given(coeff_lists(), st.data())
def test_construction_reads_the_coefficients(cs, data):
    s = TruncSeries(len(cs) - 1, cs)
    assert_series(s, cs)
    assert TruncSeries(len(cs) - 1, as_given(data.draw, cs)) == s
    assert TruncSeries(len(cs) - 1, [str(c) for c in cs]) == s


@SETTINGS
@given(series_pairs())
def test_add_sub_neg_match_reference(pair):
    a, b = pair
    n = len(a) - 1
    x, y = TruncSeries(n, a), TruncSeries(n, b)
    assert_series(x + y, [p + q for p, q in zip(a, b)])
    assert_series(y + x, [p + q for p, q in zip(a, b)])
    assert_series(x - y, [p - q for p, q in zip(a, b)])
    assert_series(-x, [-p for p in a])
    assert_series(x - x, [F0] * (n + 1))


@SETTINGS
@given(
    coeff_lists(),
    st.one_of(
        st.sampled_from([0, 1, -1, Fraction(-1), Fraction(0)]),
        st.integers(-9, 9),
        NONZERO,
        BIG,
    ),
)
def test_scalar_mul_matches_reference(cs, c):
    s = TruncSeries(len(cs) - 1, cs)
    want = [c * x for x in cs]
    assert_series(s * c, want)
    assert_series(c * s, want)


@SETTINGS
@given(series_pairs())
def test_series_mul_matches_reference(pair):
    a, b = pair
    n = len(a) - 1
    x, y = TruncSeries(n, a), TruncSeries(n, b)
    want = ref_mul(a, b)
    assert_series(x * y, want)
    assert_series(y * x, want)


@SETTINGS
@given(coeff_lists(), NONZERO)
def test_inverse_matches_reference(cs, c0):
    cs = [c0] + cs[1:]
    s = TruncSeries(len(cs) - 1, cs)
    inv = s.inverse()
    assert_series(inv, ref_inverse(cs))
    assert_series(s * inv, [F1] + [F0] * (len(cs) - 1))


@SETTINGS
@given(coeff_lists(const=1))
def test_log_matches_reference(cs):
    assert_series(TruncSeries(len(cs) - 1, cs).log(), ref_log(cs))


@SETTINGS
@given(coeff_lists(const=0))
def test_exp_matches_reference(cs):
    s = TruncSeries(len(cs) - 1, cs)
    e = s.exp()
    assert_series(e, ref_exp(cs))
    assert e.log() == s


@SETTINGS
@given(series_pairs(), NONZERO)
def test_equal_series_built_differently_are_equal(pair, c):
    """Sums of parts, scaling there and back, and a log/exp round trip all
    land on one stored form, with one hash."""
    a, b = pair
    n = len(a) - 1
    x, y = TruncSeries(n, a), TruncSeries(n, b)
    for z in ((x + y) - y, (x * c) * (1 / c), -(-x)):
        assert z == x and hash(z) == hash(x)
        assert z.den == x.den and z.num == x.num
    if a[0] == 1:
        assert x.log().exp() == x
    assert (x == y) == (a == b)
    assert x != TruncSeries(n + 1, a) and x != a and x != tuple(a)


@SETTINGS
@given(coeff_lists())
def test_strings_round_trip(cs):
    s = TruncSeries(len(cs) - 1, cs)
    strings = s.to_strings()
    assert strings == [format_rat(c) for c in cs]
    back = TruncSeries(len(strings) - 1, strings)
    assert back == s
    assert_series(back, cs)


# -- the face-sparse Witt coboundary ------------------------------------------


def ref_coboundary(p, degree, order, values):
    """The alternating face product over every face, absent faces read as
    1, on Fraction lists."""
    one = [F1] + [F0] * order
    out = {}
    for ch in p.chains(degree + 1):
        acc = one
        for i in range(degree + 2):
            f = values.get(ch[:i] + ch[i + 1 :], one)
            acc = ref_mul(acc, f if i % 2 == 0 else ref_inverse(f))
        if acc != one:
            out[ch] = acc
    return out


@st.composite
def witt_cochains(draw):
    """A Witt cochain of degree 1 or 2 on the diamond that is 1 on most
    chains, so most products meet absent faces."""
    degree = draw(st.integers(1, 2))
    order = draw(st.integers(0, 6))
    chains = draw(
        st.lists(st.sampled_from(DIAMOND.chains(degree)), unique=True, max_size=6)
    )
    values = {}
    for ch in chains:
        cs = draw(coeff_lists(order, const=1))
        if any(cs[1:]):
            values[ch] = cs
    return degree, order, values


@SETTINGS
@given(witt_cochains())
def test_witt_coboundary_matches_every_face_loop(data):
    degree, order, values = data
    # a Witt cochain holds each unit u as the series u - 1
    c = SimpCochain(degree, {ch: TruncSeries(order, [F0] + cs[1:]) for ch, cs in values.items()})
    got = witt_coboundary(DIAMOND, c)
    want = ref_coboundary(DIAMOND, degree, order, values)
    assert got.degree == degree + 1
    assert set(got.values) == set(want)
    for ch, cs in want.items():
        assert cs[0] == F1
        assert_series(got.values[ch], [F0] + cs[1:])
