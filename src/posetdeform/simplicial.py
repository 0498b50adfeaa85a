"""Simplicial cochains on the nerve of a finite poset.

A degree-n cochain is a rational-valued function on weak n-chains,
stored sparsely.  The partial composition

    (f o_j g)(c_0, ..., c_{p+q-1})
        = f(c_0, ..., c_{j-1}, c_{j+q-1}, ..., c_{p+q-1})
          * g(c_{j-1}, ..., c_{j+q-1})

makes the graded space an operad; composing with a degree-0 argument
repeats the vertex c_{j-1}.  The constant cochains 1 in degrees 1 and 2
are the operadic identity and the multiplication, and through them the
whole opcore structure (braces, dot, differential, bracket) applies.

Nerve cohomology dimensions are computed from the classical alternating
face-sum coboundary on either the weak or the strict chain basis.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import SparseMat, dims_from_ranks, rank
from .opcore import SlotOutOfRange
from .scalars import TruncSeries, format_rat

F0 = Fraction(0)
F1 = Fraction(1)
_UNIT = {1: F1, -1: -F1}


class SimpCochain:
    """One scalar per weak chain, stored sparsely: values maps weak chains
    (tuples of element indices) to nonzero scalars; anything absent reads
    as zero.  This is the data of a simplicial cochain and of a relative
    Hochschild cochain alike (see hochschild); the carriers differ only in
    how they compose it.

    Scalars are Fractions, or TruncSeries where a deformed product is
    evaluated (deform.deformation_product).  Each kind brings its own zero
    test and refuses to mix with the other (TypeError), and series of
    different orders refuse to mix (scalars.OrderMismatch)."""

    __slots__ = ("degree", "values")

    def __init__(self, degree, values=()):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        vals = {}
        items = values.items() if isinstance(values, dict) else values
        for ch, v in items:
            if len(ch) != degree + 1:
                raise ValueError(
                    "chain %r has %d entries, expected %d" % (ch, len(ch), degree + 1)
                )
            if not isinstance(v, (Fraction, TruncSeries)):
                v = Fraction(v)
            if v:
                vals[tuple(ch)] = v
        self.values = vals

    @classmethod
    def _of(cls, degree, values):
        """Wrap a dict that already has tuple keys of the right length and
        nonzero values, without copying or checking it."""
        c = cls.__new__(cls)
        c.degree = degree
        c.values = values
        return c

    def value(self, chain):
        return self.values.get(chain, F0)

    def is_zero(self):
        return not self.values

    def add(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in cochain sum")
        out = dict(self.values)
        for ch, v in other.values.items():
            cur = out.get(ch)
            if cur is None:
                out[ch] = v
                continue
            nv = cur + v
            if nv:
                out[ch] = nv
            else:
                del out[ch]
        return SimpCochain._of(self.degree, out)

    def scale(self, f):
        if not f:
            return SimpCochain(self.degree)
        # series have zero divisors, so a product of nonzero values can vanish
        return SimpCochain._of(
            self.degree, {ch: nv for ch, v in self.values.items() if (nv := f * v)}
        )

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, f):
        return self.scale(f)

    def __eq__(self, other):
        return (
            isinstance(other, SimpCochain)
            and self.degree == other.degree
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self):
        return "SimpCochain(deg=%d, %d entries)" % (self.degree, len(self.values))

    def to_dict(self, poset):
        entries = [
            {"chain": list(poset.chain_labels(ch)), "value": format_rat(v)}
            for ch, v in sorted(self.values.items())
        ]
        return {"degree": self.degree, "entries": entries}

    @classmethod
    def from_dict(cls, poset, d):
        """Inverse of to_dict.  Raises ValueError (or TypeError, KeyError)
        on anything that is not a cochain on this poset: a document that is
        not an object, a chain that is not a list of labels, an entry on a
        tuple that is not a weak chain or on a chain listed before, or a
        value that is not an exact rational written as a string or an int."""
        if not isinstance(d, dict):
            raise ValueError("a cochain must be a JSON object")
        vals = {}
        for e in d.get("entries", ()):
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
        return cls(d["degree"], vals)


class SimplicialCarrier:
    """Operad carrier of simplicial cochains on one poset, composing by
    face restriction.  hochschild.RelHochschildCarrier inherits everything
    here except compose_at."""

    name = "simplicial"

    def __init__(self, poset):
        self.poset = poset

    def chains(self, n):
        return self.poset.chains(n)

    def arity(self, x):
        return x.degree

    def zero(self, n):
        return SimpCochain(n)

    def add(self, x, y):
        return x.add(y)

    def scale(self, c, x):
        return x.scale(c)

    def equal(self, x, y):
        return x == y

    def is_zero(self, x):
        return x.is_zero()

    def compose_at(self, f, j, g):
        """f o_j g by face restriction, enumerating pairs of supports.

        An output chain c is the pair (a, b) glued in slot j: a = f's
        chain with its interval (a[j-1], a[j]) filled in by b = g's chain
        from a[j-1] to a[j], c = a[:j-1] + b + a[j+1:].  So g's chains
        are grouped by their end points (a degree-0 chain (x,) by (x, x))
        and each chain of f meets only its own group; every output comes
        from exactly one pair and costs one product."""
        p = f.degree
        if p < 1 or not 1 <= j <= p:
            raise SlotOutOfRange("slot %d invalid for arity %d" % (j, p))
        by_ends = {}
        for b, y in g.values.items():
            by_ends.setdefault((b[0], b[-1]), []).append((b, y))
        out = {}
        for a, x in f.values.items():
            group = by_ends.get(a[j - 1 : j + 1])
            if group is None:
                continue
            head, tail = a[: j - 1], a[j + 1 :]
            for b, y in group:
                out[head + b + tail] = x * y
        return SimpCochain._of(p + g.degree - 1, out)

    def constant(self, n, value=F1):
        return SimpCochain(n, {c: value for c in self.chains(n)})

    def identity(self):
        return self.constant(1)

    def mult(self):
        return self.constant(2)

    def random_elem(self, n, rng):
        vals = {}
        for c in self.chains(n):
            vals[c] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return SimpCochain(n, vals)

    def diff_witness(self, x, y):
        """First basis chain where two same-degree cochains differ."""
        keys = sorted(set(x.values) | set(y.values))
        for ch in keys:
            if x.value(ch) != y.value(ch):
                return str(tuple(self.poset.chain_labels(ch)))
        return ""


def coboundary_matrix(poset, n, strict=False):
    """Matrix of the classical alternating face sum C^n -> C^{n+1} on the
    weak (default) or strict chain basis: rows are (n+1)-chains, columns
    n-chains, entry (-1)**i for dropping vertex i."""
    src = poset.chains(n, strict=strict)
    dst = poset.chains(n + 1, strict=strict)
    col = {c: k for k, c in enumerate(src)}
    m = SparseMat(len(dst), len(src))
    entries = m.entries
    for r, ch in enumerate(dst):
        row = {}
        for i in range(n + 2):
            k = col.get(ch[:i] + ch[i + 1 :])
            if k is not None:
                row[k] = row.get(k, 0) + (-1 if i % 2 else 1)
        # a chain repeats a vertex only in consecutive runs, and a run's
        # alternating signs sum to 0 or +-1, so every sum here is 0 or +-1
        for k, v in row.items():
            if v:
                entries[(r, k)] = _UNIT[v]
    return m


def cohomology_dims(poset, max_n, strict=True):
    """Nerve cohomology dimensions [dim H^0, ..., dim H^max_n] over Q."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    sizes = [len(poset.chains(n, strict=strict)) for n in range(max_n + 1)]
    ranks = [rank(coboundary_matrix(poset, n, strict=strict)) for n in range(max_n + 1)]
    return dims_from_ranks(sizes, ranks)
