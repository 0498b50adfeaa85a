"""Exact scalar arithmetic.

Two layers: arbitrary-precision rationals (``fractions.Fraction``, kept
canonical by the stdlib) and truncated power series in a formal parameter
``lam`` with rational coefficients.  The series with constant term 1 are
the "Witt units", a multiplicative group that log and exp carry exactly
onto the series with constant term 0; they are plain TruncSeries.  A
Witt cochain (deform) holds each unit u as the series u - 1, constant
term 0, and log refuses a unit whose constant term is not 1.

A series is stored as int numerators over one reduced positive
denominator, the form simplicial.SimpCochain uses, so its arithmetic runs
on ints.  Fractions remain only at the boundary: the constructor takes
them (or ints, or strings), and coeffs and to_strings give them, for
output and for the right-hand sides of linear systems.

No floats anywhere: every operation is exact, and a float input is refused.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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


def rational(c):
    """c as an int or Fraction: c itself if it is one, else Fraction(*ratio(c))."""
    return c if isinstance(c, (int, Fraction)) else Fraction(*ratio(c))


def ratio(c):
    """c as ints (n, d), d > 0, not reduced: a plain ASCII string n or n/d
    through int() alone, anything else, and a zero d, through Fraction
    (which raises ZeroDivisionError for the latter).  A float raises
    TypeError: its binary value is not the number written."""
    if isinstance(c, str) and c.isascii():
        n, slash, d = c.partition("/")
        if n.removeprefix("-").isdigit() and (d.isdigit() or not slash):
            d = int(d) if slash else 1
            if d:
                return int(n), d
    if isinstance(c, float):
        raise TypeError("%r is a float; pass an int, a Fraction or a string" % (c,))
    q = Fraction(c)
    return q.numerator, q.denominator


def kronecker(num, b):
    """The int polynomial with coefficients num, lowest first, at lam = 2**b."""
    return sum(a << b * k for k, a in enumerate(num))


def digits(v, b, n):
    """Digits 0..n of v in signed base 2**b, each in [-2**(b-1), 2**(b-1))."""
    out, half, mask = [], 1 << (b - 1), (1 << b) - 1
    for _ in range(n + 1):
        out.append(((v + half) & mask) - half)
        v = (v - out[-1]) >> b
    return out


def _push(out, den, s, t):
    """Append s/t (t > 0) to out, a list of int numerators over den, and
    return the new den.

    inverse, log and exp find coefficient k as s / t from the numerators
    of coefficients 0..k-1, where t carries den.  Here s/t is reduced, and
    den grows to lcm(den, t), rescaling out, only when t does not divide
    it.  So den stays the lcm of the reduced denominators: the finished
    list is canonical with no further gcd, and its numerators grow only as
    far as its values need, not by a power of the input's den per step.
    """
    g = gcd(s, t)
    if g != 1:
        s, t = s // g, t // g
    q, r = divmod(den, t)
    if r:
        new = lcm(den, t)
        f = new // den
        out[:] = [x * f for x in out]
        den, q = new, new // t
    out.append(s * q)
    return den


class TruncSeries:
    """Power series mod lam**(order+1) with rational coefficients.

    The coefficient of lam**n is num[n] / den: num is a tuple of order + 1
    ints over one int den > 0, with gcd(den, *num) == 1, so the zero
    series has den 1.  That form is unique, so equality and hashing
    compare order, den and num directly.  +, -, and products with a
    scalar or a series run on ints and reduce by one gcd at the end;
    inverse, log and exp run their recurrences on ints and reduce each new
    coefficient once (_push).  coeffs is the same series as a tuple of
    Fractions, built on each read, for output and for callers that want
    rationals.  Instances are immutable; all arithmetic returns new
    objects.  Mixing truncation orders raises OrderMismatch rather than
    silently re-truncating.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [rational(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("got %d coefficients for order %d" % (len(cs), order))
        # numerators over the lcm of reduced denominators need no gcd
        den = lcm(*[c.denominator for c in cs])
        self.order = order
        self.num = tuple([c.numerator * (den // c.denominator) for c in cs]
                         + [0] * (order + 1 - len(cs)))
        self.den = den

    @classmethod
    def _of(cls, order, num, den):
        """Wrap a canonical numerator tuple over den without checking."""
        s = cls.__new__(cls)
        s.order = order
        s.num = num
        s.den = den
        return s

    @classmethod
    def _reduced(cls, order, num, den):
        """Wrap order + 1 int numerators over den > 0, divided by their gcd."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                return cls._of(order, tuple([a // g for a in num]), den // g)
        return cls._of(order, tuple(num), den)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @property
    def coeffs(self):
        return tuple([Fraction(a, self.den) for a in self.num])

    def __bool__(self):
        return any(self.num)

    def _match(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("expected TruncSeries, got %r" % (other,))
        if self.order != other.order:
            raise OrderMismatch(
                "orders differ: %d vs %d" % (self.order, other.order)
            )

    def __add__(self, other):
        self._match(other)
        d = lcm(self.den, other.den)
        sa, sb = d // self.den, d // other.den
        return TruncSeries._reduced(
            self.order, [a * sa + b * sb for a, b in zip(self.num, other.num)], d
        )

    def __neg__(self):
        return TruncSeries._of(self.order, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries._reduced(
                self.order,
                [a * other.numerator for a in self.num],
                self.den * other.denominator,
            )
        self._match(other)
        n = self.order
        a, rb = self.num, other.num[::-1]
        # coefficient k is a[0] b[k] + ... + a[k] b[0]; rb[n - k:] is b[k], ..., b[0]
        out = [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]
        return TruncSeries._reduced(n, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """1/self for a nonzero constant term, by b_0 = 1/a_0 and
        a_0*b_k = -sum_{i=1..k} a_i*b_{k-i}, summed over the nonzero a_i
        (see _push)."""
        a, d, n = self.num, self.den, self.order
        if a[0] == 0:
            raise NotInvertible("constant term is zero")
        if a[0] < 0:  # 1/(A/d) = (-d)/(-A), so a[0] * den below is > 0
            a, d = [-x for x in a], -d
        terms = [(i, x) for i, x in enumerate(a) if i and x]
        out = []
        den = _push(out, 1, d, a[0])
        for k in range(1, n + 1):
            s = 0
            for i, x in terms:
                if i > k:
                    break
                s -= x * out[k - i]
            den = _push(out, den, s, a[0] * den)
        return TruncSeries._of(n, tuple(out), den)

    def log(self):
        """log of a series with constant term 1.  Exact, via n*l_n =
        n*a_n - sum_{m<n} m*l_m*a_{n-m}, summed over the nonzero l_m
        (see _push)."""
        a, d, n = self.num, self.den, self.order
        if a[0] != d:
            raise DomainError("log needs constant term 1")
        out, den, support = [0], 1, []
        for k in range(1, n + 1):
            s = k * a[k] * den
            for m in support:
                s -= m * out[m] * a[k - m]
            if s:
                support.append(k)
                den = _push(out, den, s, k * d * den)
            else:
                out.append(0)
        return TruncSeries._of(n, tuple(out), den)

    def exp(self):
        """exp of a series with constant term 0 (so the result is a unit),
        via n*e_n = sum_{m<=n} m*u_m*e_{n-m}, summed over the nonzero u_m
        (see _push)."""
        u, d, n = self.num, self.den, self.order
        if u[0] != 0:
            raise DomainError("exp needs constant term 0")
        terms = [(m, m * x) for m, x in enumerate(u) if x]
        out, den = [1], 1
        for k in range(1, n + 1):
            s = 0
            for m, x in terms:
                if m > k:
                    break
                s += x * out[k - m]
            den = _push(out, den, s, k * d * den)
        return TruncSeries._of(n, tuple(out), den)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.order, self.den, self.num))

    def __repr__(self):
        return "TruncSeries(%d, %s)" % (self.order, self.to_strings())

    def to_strings(self):
        return [format_rat(c) for c in self.coeffs]

