"""Exact scalars: rationals, truncated series, and the Witt group."""

import random
from fractions import Fraction

import pytest

from posetdeform.scalars import (
    DomainError,
    NotInvertible,
    OrderMismatch,
    TruncSeries,
    format_rat,
)


def series(order, *coeffs):
    return TruncSeries(order, [Fraction(c) for c in coeffs])


def rand_series(rng, order, first=None):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
    if first is not None:
        cs[0] = Fraction(first)
    return TruncSeries(order, cs)


def test_mul_truncates():
    # (1+x)(1-x) = 1 - x^2 exactly at order 2
    assert series(2, 1, 1) * series(2, 1, -1) == series(2, 1, 0, -1)


def test_inverse_is_geometric_series():
    assert series(2, 1, 1).inverse() == series(2, 1, -1, 1)
    x = series(3, 1, 1)
    assert x * x.inverse() == TruncSeries.one(3)


def test_zero_sum_is_zero():
    z = TruncSeries(1)
    assert not z + z


def test_log_of_one_plus_x():
    assert series(2, 1, 1).log() == series(2, 0, 1, Fraction(-1, 2))


def test_exp_of_x():
    assert TruncSeries(2, (0, 1)).exp() == series(2, 1, 1, Fraction(1, 2))


def test_log_exp_round_trip():
    x = series(2, 0, 1, -2)
    assert x.exp().log() == x


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        series(1, 1, 0) + series(2, 1, 0, 0)
    with pytest.raises(OrderMismatch):
        series(1, 1, 0) * series(2, 1, 0, 0)


def test_inverse_needs_nonzero_constant():
    with pytest.raises(NotInvertible):
        TruncSeries(3, (0, 1)).inverse()


def test_log_exp_domain_checks():
    with pytest.raises(DomainError):
        series(2, 2, 0, 0).log()
    with pytest.raises(DomainError):
        series(2, 1, 0, 0).exp()


def test_ring_axioms_randomized():
    rng = random.Random("scalars:ring")
    for _ in range(60):
        order = rng.randint(0, 5)
        a, b, c = (rand_series(rng, order) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncSeries(order)


def test_witt_group_randomized():
    """Multiplicative group laws and the log homomorphism on Witt units,
    the series with constant term 1, at orders <= 6."""
    rng = random.Random("scalars:witt")
    for _ in range(60):
        order = rng.randint(1, 6)
        a = rand_series(rng, order, first=1)
        b = rand_series(rng, order, first=1)
        one = TruncSeries.one(order)
        assert a * a.inverse() == one
        assert a * b == b * a
        assert (a * b).log() == a.log() + b.log()
        assert a.log().exp() == a


def test_series_refuses_floats():
    """A float coefficient is refused, not read as its binary value;
    ints, Fractions and strings build the same exact series."""
    with pytest.raises(TypeError):
        TruncSeries(1, [1, 0.1])
    with pytest.raises(TypeError):
        TruncSeries(0, [1.0])
    with pytest.raises(TypeError):
        TruncSeries(1, ["1", 0.5])
    s = TruncSeries(2, [1, "1/10", Fraction(-2, 3)])
    assert s == TruncSeries(2, [Fraction(1), Fraction(1, 10), "-2/3"])
    assert (s.num, s.den) == ((30, 3, -20), 30)


def test_rational_strings():
    assert format_rat(Fraction(-3, 7)) == "-3/7"
    assert format_rat(Fraction(4)) == "4"
    assert Fraction(format_rat(Fraction(-3, 7))) == Fraction(-3, 7)
    assert Fraction(format_rat(Fraction(4))) == Fraction(4)


def test_series_string_round_trip():
    x = series(2, 1, Fraction(-1, 2), 3)
    assert TruncSeries(2, x.to_strings()) == x
    assert x.to_strings() == ["1", "-1/2", "3"]


def test_ring_handles():
    """Each scalar kind carries its own zero test and refuses the other."""
    assert not TruncSeries(2)
    assert TruncSeries.one(2) and TruncSeries(2, (0, 1))
    assert not TruncSeries(2, [0, 0, 0]) and TruncSeries(2, [0, 0, 1])
    assert not Fraction(0) and Fraction(1, 3)
    with pytest.raises(TypeError):
        TruncSeries.one(2) + Fraction(1)
    with pytest.raises(TypeError):
        Fraction(1) + TruncSeries.one(2)
