"""Exact scalar arithmetic.

Three layers: arbitrary-precision rationals (``fractions.Fraction``, kept
canonical by the stdlib), truncated power series in a formal parameter
``lam`` with rational coefficients, and the multiplicative group of series
with constant term 1 ("Witt units"), which carries an exact log/exp pair
onto series with constant term 0.

No floats anywhere; every operation is exact.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


class OrderMismatch(ValueError):
    """Binary operation between series truncated at different orders."""


class NotInvertible(ValueError):
    """Multiplicative inverse of a series with zero constant term."""


class DomainError(ValueError):
    """log needs constant term 1; exp needs constant term 0."""


def format_rat(q):
    """Render a rational as ``p/q``, or plain ``p`` for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class TruncSeries:
    """Power series mod lam**(order+1), stored as an exact coefficient tuple.

    coeffs[n] multiplies lam**n.  Instances are immutable; all arithmetic
    returns new objects.  Mixing truncation orders raises OrderMismatch
    rather than silently re-truncating.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("got %d coefficients for order %d" % (len(cs), order))
        cs.extend([F0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls(order, (F1,))

    @classmethod
    def lam(cls, order):
        if order < 1:
            return cls(order)
        return cls(order, (F0, F1))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _match(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("expected TruncSeries, got %r" % (other,))
        if self.order != other.order:
            raise OrderMismatch(
                "orders differ: %d vs %d" % (self.order, other.order)
            )

    def __add__(self, other):
        self._match(other)
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        self._match(other)
        return TruncSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return TruncSeries(self.order, [a * f for a in self.coeffs])
        self._match(other)
        n = self.order
        out = [F0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def inverse(self):
        a = self.coeffs
        if a[0] == 0:
            raise NotInvertible("constant term is zero")
        n = self.order
        inv0 = F1 / a[0]
        out = [inv0] + [F0] * n
        for k in range(1, n + 1):
            s = F0
            for i in range(1, k + 1):
                if a[i] != 0:
                    s += a[i] * out[k - i]
            out[k] = -inv0 * s
        return TruncSeries(n, out)

    def log(self):
        """log of a series with constant term 1.  Exact, via n*l_n =
        n*a_n - sum_{m<n} m*l_m*a_{n-m}."""
        a = self.coeffs
        if a[0] != 1:
            raise DomainError("log needs constant term 1")
        n = self.order
        out = [F0] * (n + 1)
        for k in range(1, n + 1):
            s = k * a[k]
            for m in range(1, k):
                if out[m] != 0 and a[k - m] != 0:
                    s -= m * out[m] * a[k - m]
            out[k] = Fraction(s, k)
        return TruncSeries(n, out)

    def exp(self):
        """exp of a series with constant term 0 (so the result is a unit)."""
        u = self.coeffs
        if u[0] != 0:
            raise DomainError("exp needs constant term 0")
        n = self.order
        out = [F1] + [F0] * n
        for k in range(1, n + 1):
            s = F0
            for m in range(1, k + 1):
                if u[m] != 0 and out[k - m] != 0:
                    s += m * u[m] * out[k - m]
            out[k] = Fraction(s, k)
        return TruncSeries(n, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "TruncSeries(%d, %s)" % (self.order, [format_rat(c) for c in self.coeffs])

    def to_strings(self):
        return [format_rat(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, strings):
        return cls(len(strings) - 1, [Fraction(s) for s in strings])


class WittElem:
    """A truncated series with constant term 1, as an element of the
    multiplicative group 1 + lam*Q[lam] mod lam**(order+1)."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not isinstance(value, TruncSeries):
            raise TypeError("WittElem wraps a TruncSeries")
        if value.coeffs[0] != 1:
            raise DomainError("Witt unit needs constant term 1")
        self.value = value

    @property
    def order(self):
        return self.value.order

    @classmethod
    def one(cls, order):
        return cls(TruncSeries.one(order))

    @classmethod
    def from_log(cls, series):
        """exp: series with constant term 0 -> Witt unit."""
        return cls(series.exp())

    def log(self):
        return self.value.log()

    def __mul__(self, other):
        if not isinstance(other, WittElem):
            raise TypeError("can only multiply Witt units together")
        return WittElem(self.value * other.value)

    def inverse(self):
        return WittElem(self.value.inverse())

    def __eq__(self, other):
        return isinstance(other, WittElem) and self.value == other.value

    def __hash__(self):
        return hash(("witt", self.value))

    def __repr__(self):
        return "WittElem(%s)" % (self.value.to_strings(),)
