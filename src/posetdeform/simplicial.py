"""Simplicial cochains on the nerve of a finite poset.

A degree-n cochain is a rational-valued function on weak n-chains,
stored sparsely as int numerators over one reduced denominator
(SimpCochain).  The partial composition

    (f o_j g)(c_0, ..., c_{p+q-1})
        = f(c_0, ..., c_{j-1}, c_{j+q-1}, ..., c_{p+q-1})
          * g(c_{j-1}, ..., c_{j+q-1})

makes the graded space an operad; composing with a degree-0 argument
repeats the vertex c_{j-1}.  The constant cochains 1 in degrees 1 and 2
are the operadic identity and the multiplication, and through them the
whole opcore structure (braces, dot, differential, bracket) applies.

SimpCochain is the cochain type of every carrier (the full Hochschild
carrier keys it by intervals, see its docstring) and carries all the
arithmetic; Carrier holds what all carriers share, the built-once
identity() and mult().  Nerve cohomology dimensions are computed from the
classical alternating face-sum coboundary on either the weak or the
strict chain basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .linalg import SparseMat, chain_ranks, dims_from_ranks
from .scalars import TruncSeries, format_rat, rational

class ArityMismatch(ValueError):
    """Argument list length does not match the arity being saturated."""


class SlotOutOfRange(ValueError):
    """compose_at or compose_sum with j outside 1..degree of f."""


def _times(values, s):
    """A new dict of values, each times s."""
    return dict(values) if s == 1 else {ch: v * s for ch, v in values.items()}


class SimpCochain:
    """One scalar per key, stored sparsely: values maps keys of degree + 1
    entries to nonzero scalars; anything absent reads as zero.  For a
    simplicial or relative Hochschild cochain the key is a weak chain (a
    tuple of element indices); for a full Hochschild cochain of degree n it
    is (x_1, ..., x_n, y), the n argument intervals and then the output
    interval (see hochschild).  The carriers differ only in what the keys
    mean and how they compose.  to_dict and from_dict are for chain-keyed
    cochains only; full cochains are never serialized.

    Rational values are int numerators over one denominator: the value on
    a key is values[key] / den, with den > 0 and gcd(den, *values) == 1.
    That form is unique, so equality compares den and values directly, and
    add, scale and compose_at run on ints and reduce by one gcd at the end.
    Fractions appear only in the constructor, value(), to_dict, from_dict.
    No operation changes a cochain in place: each returns a new one, so
    one cochain can be shared, as the carriers share identity() and mult(),
    and grouped can cache groupings of its values (not in ==, repr, JSON).
    Series values (scalars.TruncSeries: deform.MCElement.w and
    deform.deformation_product) have den 1, are never reduced and take int
    scalars only; opcore runs on them unchanged, composing them with the
    int-valued mult().  The two kinds refuse to be added (TypeError), as
    do series of different orders (scalars.OrderMismatch)."""

    __slots__ = ("degree", "values", "den", "_ix")

    def __init__(self, degree, values=()):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self._ix = None
        vals = {}
        items = values.items() if isinstance(values, dict) else values
        for ch, v in items:
            if len(ch) != degree + 1:
                raise ValueError(
                    "chain %r has %d entries, expected %d" % (ch, len(ch), degree + 1)
                )
            if not isinstance(v, (int, Fraction, TruncSeries)):
                v = rational(v)
            if v:
                vals[tuple(ch)] = v
        # numerators over the lcm of reduced denominators need no gcd
        dens = [v.denominator for v in vals.values() if not isinstance(v, (int, TruncSeries))]
        self.den = den = lcm(*dens)
        self.values = vals if not dens else {
            ch: v if isinstance(v, TruncSeries) else v.numerator * (den // v.denominator)
            for ch, v in vals.items()
        }

    @classmethod
    def _of(cls, degree, values, den=1):
        """Wrap canonical numerators over den without copying or checking."""
        c = cls.__new__(cls)
        c.degree = degree
        c.values = values
        c.den = den
        c._ix = None
        return c

    @classmethod
    def _reduced(cls, degree, values, den):
        """Wrap nonzero int numerators over den > 0, divided by their gcd."""
        if den != 1:
            g = gcd(den, *values.values())
            if g != 1:
                den //= g
                values = {ch: v // g for ch, v in values.items()}
        return cls._of(degree, values, den)

    def value(self, chain):
        v = self.values.get(chain, 0)
        return v if isinstance(v, TruncSeries) else Fraction(v, self.den)

    def is_zero(self):
        return not self.values

    @classmethod
    def lincomb(cls, degree, terms):
        """The sum of (-1)**e x over a list of terms (e, x), x of this
        degree, in one pass: each x's numerators, times lcm(dens) // x.den
        and signed, are summed into one dict, whose zeros go and gcd is
        taken at the end, as in compose_sum."""
        den, out = lcm(*[x.den for _, x in terms]), {}
        for e, x in terms:
            if x.degree != degree:
                raise ValueError("degree mismatch in cochain sum")
            s = -(den // x.den) if e % 2 else den // x.den
            if not out:
                out = _times(x.values, s)
                continue
            for ch, v in x.values.items():
                if s != 1:
                    v = -v if s == -1 else v * s
                cur = out.get(ch)
                out[ch] = v if cur is None else cur + v
        return cls._reduced(degree, {ch: v for ch, v in out.items() if v}, den)

    def add(self, other):
        return SimpCochain.lincomb(self.degree, [(0, self), (0, other)])

    def grouped(self, at):
        """{key[at]: [(key, value), ...]} over values, for a tuple of key
        positions at (one position gives bare entries), built once and cached."""
        ix = self._ix = self._ix or {}
        if at not in ix:
            got, pick = ix.setdefault(at, {}), itemgetter(*at)
            for key, v in self.values.items():
                got.setdefault(pick(key), []).append((key, v))
        return ix[at]

    def scale(self, c):
        """c * self for an int or Fraction c: the numerators times
        c.numerator over den times c.denominator."""
        if not c:
            return SimpCochain(self.degree)
        out = _times(self.values, c.numerator)
        if c.denominator == 1 and c.numerator in (1, -1):
            return SimpCochain._of(self.degree, out, self.den)
        return SimpCochain._reduced(self.degree, out, self.den * c.denominator)

    __add__ = add

    def __sub__(self, other):
        return SimpCochain.lincomb(self.degree, [(0, self), (1, other)])

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, f):
        return self.scale(f)

    def __eq__(self, other):
        return (
            isinstance(other, SimpCochain)
            and self.degree == other.degree
            and self.den == other.den
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self):
        return "SimpCochain(deg=%d, %d entries)" % (self.degree, len(self.values))

    def to_dict(self, poset):
        entries = [
            {"chain": list(poset.chain_labels(ch)), "value": format_rat(self.value(ch))}
            for ch in sorted(self.values)
        ]
        return {"degree": self.degree, "entries": entries}

    @classmethod
    def from_dict(cls, poset, d):
        """Inverse of to_dict.  Raises ValueError (or TypeError, KeyError)
        on anything that is not a cochain on this poset: a document that is
        not an object, a bad degree or entries list, a chain that is not a
        list of labels, an entry on a tuple that is not a weak chain or on
        a chain listed before, or a value that is not an exact rational
        written as a string or an int."""
        if not isinstance(d, dict):
            raise ValueError("a cochain must be a JSON object")
        degree, entries = d.get("degree"), d.get("entries", [])
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
            raise ValueError("degree %r is not an integer >= 0" % (degree,))
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and "chain" in e and "value" in e for e in entries
        ):
            raise ValueError("entries must be a list of objects with a chain and a value")
        vals = {}
        for e in entries:
            if not isinstance(e["chain"], list):
                raise ValueError("chain %r is not a list" % (e["chain"],))
            ch = poset.chain_indices(e["chain"])
            if not all(poset.le(a, b) for a, b in zip(ch, ch[1:])):
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
        return cls(degree, vals)


class Carrier:
    """What every carrier shares, whatever the keys of its SimpCochains
    mean.  A carrier is an operad with multiplication: from the subclass,
    the kernel compose_into(out, s, f, j, g), adding s f o_j g to a dict of
    numerators over f.den * g.den, and compose_at(f, j, g), the one-term
    compose_sum; identity() and mult(), built once by its _build(n) and
    shared, since no operation changes a cochain in place, with their
    grouping by each slot (grouped(self.slot(j))), the f side of the
    kernel.  The arithmetic is SimpCochain's own.  The suites also read
    poset, random_elem(n, rng) and diff_witness(x, y)."""

    def __init__(self, poset):
        self.poset = poset
        self._constants = {}

    # perfbench/spans.py's _agree_counts calls car.is_zero on agree's car
    def is_zero(self, x):
        return x.is_zero()

    def identity(self):
        return self._shared(1)

    def mult(self):
        return self._shared(2)

    def _shared(self, n):
        got = self._constants.get(n)
        if got is None:
            got = self._constants[n] = self._build(n)
            for j in range(1, n + 1):
                got.grouped(self.slot(j))
        return got


def compose_sum(car, degree, terms):
    """The sum of (-1)**e f o_j g over terms (e, f, j, g) in one pass: each
    car.compose_into adds its numerators, over the lcm of the f.den * g.den
    and signed, into one dict, whose zeros go and gcd is taken at the end.
    A slot j outside 1..f.degree raises SlotOutOfRange."""
    den, out = lcm(*[f.den * g.den for _, f, _, g in terms]), {}
    for e, f, j, g in terms:
        if not 1 <= j <= f.degree:
            raise SlotOutOfRange("slot %d invalid for arity %d" % (j, f.degree))
        s = den // (f.den * g.den)
        car.compose_into(out, -s if e % 2 else s, f, j, g)
    return SimpCochain._reduced(degree, {k: v for k, v in out.items() if v}, den)


def slot_walk(f, j, g):
    """The entries (a, x) of f to walk, and g's entries grouped by their
    ends (b[0], b[-1]) ((x,) has ends (x, x)), each a's to meet at
    (a[j-1], a[j]).  Those of f are read off its slot index when it has one
    (the constants do) and g has fewer groups than f has entries: only the
    ones on g's intervals; else they are all of f's."""
    by_ends = g.grouped((0, -1))
    by_slot = f._ix and f._ix.get((j - 1, j))
    if by_slot is not None and len(by_ends) < len(f.values):
        return [ax for ends in by_ends for ax in by_slot.get(ends, ())], by_ends
    return f.values.items(), by_ends


class SimplicialCarrier(Carrier):
    """Operad carrier of simplicial cochains on one poset, composing by
    face restriction.  hochschild.RelHochschildCarrier inherits everything
    here but compose_at and compose_into."""

    name = "simplicial"

    slot = staticmethod(lambda j: (j - 1, j))  # key positions of slot j's interval

    def compose_at(self, f, j, g):
        """f o_j g by face restriction, the one-term compose_sum."""
        return compose_sum(self, f.degree + g.degree - 1, [(0, f, j, g)])

    def compose_into(self, out, s, f, j, g):
        """Add s (f o_j g) into out by face restriction.  An output chain
        c = a[:j-1] + b + a[j+1:] glues f's chain a and g's chain b, which
        fills a's slot-j interval: it runs from a[j-1] to a[j].  So each
        entry of f meets only g's group of chains with those ends
        (slot_walk), and each pair adds one product: (f/D) o_j (g/E) =
        (f o_j g)/(DE), so numerators multiply as they are.  s scales each
        value of f once, if not 1 (-1 negates: no gcd for a series)."""
        entries, by_ends = slot_walk(f, j, g)
        get = out.get
        for a, x in entries:
            group = by_ends.get(a[j - 1 : j + 1])
            if group:
                if s != 1:
                    x = -x if s == -1 else x * s
                head, tail = a[: j - 1], a[j + 1 :]
                for b, y in group:
                    c, v = head + b + tail, x * y
                    cur = get(c)
                    out[c] = v if cur is None else cur + v

    def constant(self, n, value=1):
        return SimpCochain(n, {c: value for c in self.poset.chains(n)})

    def _build(self, n):
        return self.constant(n)

    def random_elem(self, n, rng):
        # a/b with a in -3..3 and b in 1..3, drawn a then b, as a * (6 // b) over 6
        vals = {}
        for c in self.poset.chains(n):
            v = rng.randint(-3, 3) * (6 // rng.randint(1, 3))
            if v:
                vals[c] = v
        return SimpCochain._reduced(n, vals, 6)

    def diff_witness(self, x, y):
        """First basis chain where two same-degree cochains differ."""
        keys = sorted(set(x.values) | set(y.values))
        for ch in keys:
            if x.value(ch) != y.value(ch):
                return str(tuple(self.poset.chain_labels(ch)))
        return ""


def coboundary_matrix(poset, n, strict=False, skip=()):
    """Matrix of the classical alternating face sum C^n -> C^{n+1} on the
    weak (default) or strict chain basis: rows are (n+1)-chains, columns
    n-chains, entry (-1)**i for dropping vertex i.  The rows whose index
    is in skip are left empty (see cohomology_dims)."""
    src = poset.chains(n, strict=strict)
    dst = poset.chains(n + 1, strict=strict)
    col = {c: k for k, c in enumerate(src)}
    m = SparseMat(len(dst), len(src))
    entries = m.entries
    for r, ch in enumerate(dst):
        if r in skip:
            continue
        row = {}
        for i in range(n + 2):
            k = col.get(ch[:i] + ch[i + 1 :])
            if k is not None:
                row[k] = row.get(k, 0) + (-1 if i % 2 else 1)
        # a chain repeats a vertex only in consecutive runs, and a run's
        # alternating signs sum to 0 or +-1, so every sum here is 0 or +-1
        for k, v in row.items():
            if v:
                entries[(r, k)] = v
    return m


def cohomology_dims(poset, max_n, strict=True):
    """Nerve cohomology dimensions [dim H^0, ..., dim H^max_n] over Q.

    The chains are counted first (Poset.chain_counts raises TooLarge past
    posets.CHAIN_BUDGET), then enumerated bottom-up, one cached level at a
    time, so no call of Poset.chains recurses more than one level.  The
    ranks come top-down, d_max_n first, from one chain_ranks pass that
    clears: d_{n+1} d_n = 0 and the rows of d_n are the (n+1)-chains, the
    columns of d_{n+1}, so the rows of d_n at the pivot columns of d_{n+1}
    are never built, and the rank stays the same."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    poset.chain_counts(max_n + 1, strict=strict)
    sizes = [len(poset.chains(n, strict=strict)) for n in range(max_n + 2)]
    ranks = chain_ranks(
        max_n + 1, lambda t, skip: coboundary_matrix(poset, max_n - t, strict, skip)
    )
    return dims_from_ranks(sizes[: max_n + 1], ranks[::-1])
