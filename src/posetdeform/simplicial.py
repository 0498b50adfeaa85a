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
Each output chain c comes from one pair only, a = c[:j] + c[j+q-1:] and
b = c[j-1:j+q]: for dense f and g (SimplicialCarrier.vector: int-valued,
nonzero on at least half the chains of their degree) the carrier reads
the values of those pairs by two itemgetters per shape (p, j, q), and
compose_sum folds each term's lazy products into the one list it builds
per sum, all in C-level maps over ints.  That list is the result: a dense
composite keeps only its vector, which ==, is_zero, sums and scaling read
when every operand keeps one for the same poset, and builds its values
dict the first time something reads it by key.

SimpCochain is the cochain type of every carrier (the full Hochschild
carrier keys it by intervals, see its docstring) and carries all the
arithmetic; Carrier holds what all carriers share, the built-once
identity() and mult().  Nerve cohomology dimensions are computed from the
classical alternating face-sum coboundary on either the weak or the
strict chain basis.
"""

from fractions import Fraction
from itertools import compress, count, filterfalse, repeat, takewhile
from math import gcd, lcm
from operator import add, eq, floordiv, itemgetter, mul, sub

from .linalg import SparseMat, chain_ranks, dims_from_ranks
from .scalars import TruncSeries, format_rat, ratio, rational

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
    That form is unique, so equality compares den and values directly (or
    the vectors below), and add, scale and compose_at run on ints and
    reduce by one gcd at the end.
    Fractions appear only in the constructor, value() and to_dict, and in
    from_dict for a value not written as plain n or n/d (scalars.ratio).
    No operation changes a cochain in place: each returns a new one, so
    one cochain can be shared, as the carriers share identity() and mult(),
    and grouped and SimplicialCarrier.vector can cache groupings of its
    values and its dense vector on it.  A dense composite (_gathered)
    starts with the vector only and builds values on first read; ==,
    is_zero, lincomb (so +, -) and scale run on the vectors, and return
    vector-only cochains, when every operand keeps an int vector for one
    poset object (_kept_poset), and on values otherwise.
    Series values (scalars.TruncSeries: deform.MCElement.w, the Witt
    cochains of deform, which are series cochains read as 1 + value, and
    deform.deformation_product) have den 1, are never reduced and take int
    scalars only; no caller in the package composes them (mc_check
    evaluates W at lam = 2**B), though the simplicial and relative kernels
    can.  The two kinds refuse to be added (TypeError), as do series of
    different orders (scalars.OrderMismatch).  A zero of negative degree
    (opcore.brace) is made only through _of; the constructor refuses it."""

    __slots__ = ("degree", "_values", "den", "_ix", "_vec")

    def __init__(self, degree, values=()):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self._ix = self._vec = None
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
        self._values = vals if not dens else {
            ch: v if isinstance(v, TruncSeries) else v.numerator * (den // v.denominator)
            for ch, v in vals.items()
        }

    @classmethod
    def _of(cls, degree, values, den=1):
        """Wrap canonical numerators over den without copying or checking."""
        c = cls.__new__(cls)
        c.degree = degree
        c._values = values
        c.den = den
        c._ix = c._vec = None
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

    @classmethod
    def _gathered(cls, poset, degree, vec, den):
        """Wrap int numerators over den > 0, given as a list indexed like
        poset.chains(degree) (zeros included), divided by their gcd: the
        cochain keeps the list as its vector (SimplicialCarrier.vector) and
        builds no values until they are read."""
        if den != 1:
            g = gcd(den, *vec)
            if g != 1:
                den, vec = den // g, list(map(floordiv, vec, repeat(g)))
        c = cls._of(degree, None, den)
        c._vec = (poset, vec)
        return c

    @property
    def values(self):
        """{key: nonzero numerator}; for a cochain kept only as a vector
        (_gathered), built from it on the first read and cached."""
        got = self._values
        if got is None:
            poset, vec = self._vec
            chains = poset._chains[self.degree, False]  # built with the vector
            got = self._values = dict(compress(zip(chains, vec), vec))
        return got

    @staticmethod
    def _kept_poset(xs):
        """The one poset object every x of xs keeps a vector for (a kept
        vector is int-valued), if there is one; else None."""
        poset = None
        for x in xs:
            kept = x._vec
            if kept is None or kept[1] is None or (poset is not None and kept[0] is not poset):
                return None
            poset = kept[0]
        return poset

    def value(self, chain):
        v = self.values.get(chain, 0)
        return v if isinstance(v, TruncSeries) else Fraction(v, self.den)

    def is_zero(self):
        got = self._values
        return not got if got is not None else not any(self._vec[1])

    @classmethod
    def lincomb(cls, degree, terms):
        """The sum of (-1)**e x over a list of terms (e, x), x of this
        degree, in one pass: each x's numerators, times lcm(dens) // x.den
        and signed, are summed into one dict, whose zeros go and gcd is
        taken at the end, as in compose_sum.  When every x keeps a vector
        for one poset, the vectors are summed as compose_sum's list path
        sums its terms, and the result keeps only its vector."""
        den = lcm(*[x.den for _, x in terms])
        if any(x.degree != degree for _, x in terms):
            raise ValueError("degree mismatch in cochain sum")
        poset = SimpCochain._kept_poset([x for _, x in terms])
        if poset is not None:
            out = []
            for e, x in terms:
                if len(out) == FOLD_DEPTH:
                    out[:] = [(list(_folded(out)), 1)]
                out.append((x._vec[1], -(den // x.den) if e % 2 else den // x.den))
            return cls._gathered(poset, degree, list(_folded(out)), den)
        out = {}
        for e, x in terms:
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
        c.numerator over den times c.denominator, on the vector if self
        keeps one."""
        if not c:
            return SimpCochain(self.degree)
        poset = self._kept_poset([self])
        if poset is not None:
            vec = list(map(mul, self._vec[1], repeat(c.numerator)))
            return SimpCochain._gathered(poset, self.degree, vec, self.den * c.denominator)
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
        if not (isinstance(other, SimpCochain) and self.degree == other.degree
                and self.den == other.den):
            return False
        if self._kept_poset([self, other]) is not None:
            return self._vec[1] == other._vec[1]
        return self.values == other.values

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
        a chain listed before, a value that is not an exact rational
        written as a string or an int, and, after all of those, a chain of
        the wrong length.  One reduction over the lcm of the dens as written."""
        degree, rows = cls._entries(poset, d, {})
        den = lcm(*[q for a, q in rows.values() if a])
        vals = {ch: a * (den // q) for ch, (a, q) in rows.items() if a}
        return cls._reduced(degree, vals, den)

    @staticmethod
    def _entries(poset, d, known):
        """The degree of a to_dict document and its entries {chain: (a, q)},
        a/q each value as written (scalars.ratio), checked as from_dict says.
        known memoizes, for one reading on one poset, each label tuple's
        chain and each value's (a, q): MCElement.from_dict passes one dict
        to all its layers, so each distinct chain is mapped and checked once."""
        if not isinstance(d, dict):
            raise ValueError("a cochain must be a JSON object")
        degree, entries = d.get("degree"), d.get("entries", [])
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
            raise ValueError("degree %r is not an integer >= 0" % (degree,))
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and "chain" in e and "value" in e for e in entries
        ):
            raise ValueError("entries must be a list of objects with a chain and a value")
        rows, ix, up = {}, poset._index, poset.upsets
        for e in entries:
            labs = e["chain"]
            if not isinstance(labs, list):
                raise ValueError("chain %r is not a list" % (labs,))
            try:
                ch = known.get(key := tuple(labs))
            except TypeError:  # an unhashable label: the map below raises
                ch = None
            if ch is None:
                ch = tuple([ix[lab] if lab in ix else poset.index(lab) for lab in labs])
                if not all(up[a] >> b & 1 for a, b in zip(ch, ch[1:])):
                    raise ValueError("%r is not a chain" % (labs,))
                known[key] = ch
            if ch in rows:
                raise ValueError("chain %r is listed twice" % (labs,))
            v = e["value"]
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ValueError("value %r is not a string or an integer" % (v,))
            got = known.get(v)
            if got is None:
                try:
                    got = known[v] = ratio(v)
                except ZeroDivisionError:
                    raise ValueError("value %r divides by zero" % (v,)) from None
            rows[ch] = got
        for ch in rows:
            if len(ch) != degree + 1:
                raise ValueError(
                    "chain %r has %d entries, expected %d" % (ch, len(ch), degree + 1)
                )
        return degree, rows


class Carrier:
    """The carrier interface: what every carrier shares, whatever the keys
    of its SimpCochains mean.  A carrier is an operad with multiplication:
    from the subclass, the kernel compose_into(out, s, f, j, g), adding
    s f o_j g to a dict of numerators over f.den * g.den (or, given a
    list by compose_sum, appending f o_j g's lazy products, indexed like
    the chains, with s), and compose_at(f, j, g),
    the one-term compose_sum; identity() and mult() (a fixed associative
    arity-2 element, m o m = 0), built once by its _build(n) and shared,
    since no operation changes a cochain in place, with their grouping by
    each slot (grouped(self.slot(j))), the f side of the kernel.  The
    arithmetic (degree, +, unary -, == and is_zero()) is SimpCochain's
    own; every caller composes int numerators (deform.mc_check evaluates
    W at lam = 2**B first).  The suites also read poset,
    random_elem(n, rng) and diff_witness(x, y)."""

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


# how many dense terms compose_sum folds lazily before it builds their
# running sum into a list: a fold nests a map or two per term, and CPython
# recurses through them in C, which overflows the stack some 100,000 deep
FOLD_DEPTH = 32


def compose_sum(car, degree, terms):
    """The sum of (-1)**e f o_j g over terms (e, f, j, g) in one pass: each
    car.compose_into adds its numerators, over the lcm of the f.den * g.den
    and signed, into one accumulator, whose zeros go and gcd is taken at
    the end.  When every f and g is dense (SimplicialCarrier.vector) the
    accumulator is a list of (products, s), each term's lazy products
    indexed like poset.chains(degree) and its scale s, which _folded sums:
    one list is built, for the whole sum (and every FOLD_DEPTH terms of a
    longer one), and _gathered keeps it as the result's vector, with no
    values dict.  Else it is a dict of numerators.  A slot j outside
    1..f.degree raises SlotOutOfRange."""
    den = lcm(*[f.den * g.den for _, f, _, g in terms])
    dense = getattr(car, "all_dense", None)
    listed = dense is not None and dense(degree, terms)
    out = [] if listed else {}
    for e, f, j, g in terms:
        if not 1 <= j <= f.degree:
            raise SlotOutOfRange("slot %d invalid for arity %d" % (j, f.degree))
        if listed and len(out) == FOLD_DEPTH:
            out[:] = [(list(_folded(out)), 1)]
        s = den // (f.den * g.den)
        car.compose_into(out, -s if e % 2 else s, f, j, g)
    if listed:
        return SimpCochain._gathered(car.poset, degree, list(_folded(out)), den)
    return SimpCochain._reduced(degree, {k: v for k, v in out.items() if v}, den)


def _folded(terms):
    """The lazy sum of s * v over a nonempty list of (v, s): each v is
    added for s = 1, subtracted for s = -1, else scaled by one map first."""
    (acc, s), *rest = terms
    if s != 1:
        acc = map(mul, acc, repeat(s))
    for v, s in rest:
        if s not in (1, -1):
            v, s = map(mul, v, repeat(s)), 1
        acc = map(add if s == 1 else sub, acc, v)
    return acc


def _gather(ix):
    """A C-level gather of the items at positions ix, as a sequence: for
    one position a one-item slice, since itemgetter(i) gives the bare item."""
    return itemgetter(*ix) if len(ix) != 1 else itemgetter(slice(ix[0], ix[0] + 1))


class SimplicialCarrier(Carrier):
    """Operad carrier of simplicial cochains on one poset, composing by
    face restriction.  hochschild.RelHochschildCarrier inherits everything
    here but compose_at and compose_into, and its kernel is this one's
    times a structure constant per output chain."""

    name = "simplicial"

    slot = staticmethod(lambda j: (j - 1, j))  # key positions of slot j's interval

    def __init__(self, poset):
        super().__init__(poset)
        self._plans = {}

    def vector(self, x):
        """x's numerators as a list indexed like poset.chains(x.degree) if x
        is dense: int-valued and nonzero on at least half those chains;
        else None, at once for a zero.  Kept on x against the poset whose
        chains it indexes (diamond and cr4 share element indices, not
        chains), and returned from there with no chains read.  A key of a
        dense x that is not a chain raises ValueError, and a level past
        posets.CHAIN_BUDGET TooLarge (Poset.chains counts it first)."""
        got = x._vec
        if got is not None and got[0] is self.poset:
            return got[1]
        if not x.values:
            return None
        chains = self.poset.chains(x.degree)
        if 2 * len(x.values) < len(chains):
            return None
        vals, vec = x.values, None
        if {*map(type, vals.values())} == {int}:
            vec = list(map(vals.get, chains, repeat(0)))
            if len(vec) - vec.count(0) != len(vals):
                raise ValueError("a key of %r is not a chain of %s" % (x, self.poset.name))
        x._vec = (self.poset, vec)
        return vec

    def all_dense(self, degree, terms):
        """Whether terms is nonempty and every f and g of it has a vector,
        read first off the one kept on it for this poset (a kept None goes
        to the dict path as well); a degree below 0 means a bad slot, which
        compose_sum raises."""
        poset = self.poset
        for _, f, _, g in terms:
            for x in (g, f):
                kept = x._vec
                if kept is None or kept[0] is not poset:
                    kept = poset, self.vector(x)
                if kept[1] is None:
                    return False
        return bool(terms) and degree >= 0

    def _plan(self, p, j, q):
        """Gathers A, B of vectors indexed like chains(p), chains(q), made
        once per shape (_gather): the i-th chain c of chains(p + q - 1) is
        glued in slot j from one pair only, a = c[:j] + c[j+q-1:] and
        b = c[j-1:j+q], and A(f's vector)[i], B(g's vector)[i] are their
        values, each gather one C call."""
        got = self._plans.get((p, j, q))
        if got is None:
            wa, wb = [dict(zip(self.poset.chains(n), count())) for n in (p, q)]
            out = self.poset.chains(p + q - 1)
            got = self._plans[p, j, q] = (
                _gather([wa[c[:j] + c[j + q - 1 :]] for c in out]),
                _gather([wb[c[j - 1 : j + q]] for c in out]))
        return got

    def _products(self, f, j, g):
        """The lazy f(a_i) g(b_i) over the output chains of f o_j g, read by
        the plan's two gathers off the vectors all_dense has just checked."""
        pa, pb = self._plan(f.degree, j, g.degree)
        return map(mul, pa(f._vec[1]), pb(g._vec[1]))

    def compose_at(self, f, j, g):
        """f o_j g by face restriction, the one-term compose_sum."""
        return compose_sum(self, f.degree + g.degree - 1, [(0, f, j, g)])

    def compose_into(self, out, s, f, j, g):
        """Add s (f o_j g) into out by face restriction.  An output chain
        c = a[:j-1] + b + a[j+1:] glues f's chain a and g's chain b, which
        fills a's slot-j interval: it runs from a[j-1] to a[j].  So each
        entry of f meets only g's group of chains with those ends
        (grouped by their ends (b[0], b[-1]); (x,) has ends (x, x)), and
        each pair adds one product: (f/D) o_j (g/E) = (f o_j g)/(DE), so
        numerators multiply as they are.  The entries of f walked are read
        off its slot index when it has one (the constants do) and g has
        fewer groups than f has entries: only the ones on g's intervals;
        else they are all of f's.  s scales each value of f once, if not 1
        (-1 negates: no gcd for a series).  A list out, from compose_sum,
        receives all pairs at once, the lazy _products with s, which
        compose_sum folds."""
        if type(out) is list:
            out.append((self._products(f, j, g), s))
            return
        by_ends, get = g.grouped((0, -1)), out.get
        by_slot, entries = f._ix and f._ix.get((j - 1, j)), f.values.items()
        if by_slot is not None and len(by_ends) < len(f.values):
            entries = [ax for ends in by_ends for ax in by_slot.get(ends, ())]
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

    def constant(self, n):
        return SimpCochain(n, {c: 1 for c in self.poset.chains(n)})

    _build = constant

    def random_elem(self, n, rng):
        # a/b with a in -3..3 and b in 1..3, drawn a then b, as a * (6 // b)
        # over 6; rng.randint's draws, by Random._randbelow's getrandbits loop
        bits, chains, vec = rng.getrandbits, self.poset.chains(n), []
        for _ in chains:
            a, b = 7, 3
            while a == 7:
                a = bits(3)
            while b == 3:
                b = bits(2)
            vec.append((a - 3) * (6, 3, 2)[b])
        return SimpCochain._gathered(self.poset, n, vec, 6)

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
    is in skip are left empty (see cohomology_dims).

    It is built one face position i at a time over all rows.  Every face
    of a chain is a chain.  A weak chain repeats a vertex only in runs;
    dropping any vertex of a run gives one face, and the run's alternating
    signs sum to 0 or to the sign of its first vertex.  So face i is kept
    exactly when i starts a run of odd length, a rule looked up once per
    pattern of equal consecutive vertices."""
    src = poset.chains(n, strict=strict)
    dst = poset.chains(n + 1, strict=strict)
    col = {c: k for k, c in enumerate(src)}
    m = SparseMat(len(dst), len(src))
    rows, chains = range(len(dst)), dst
    if skip:
        rows = list(filterfalse(skip.__contains__, rows))
        chains = list(map(dst.__getitem__, rows))
    if not rows:
        return m
    if not strict:
        verts = list(zip(*chains))
        pats = list(zip(*[map(eq, a, b) for a, b in zip(verts, verts[1:])]))
        keep = {pat: _odd_run_starts(pat) for pat in set(pats)}
        keeps = list(map(keep.__getitem__, pats))
    # slices at the ends, so that the faces of 1-chains are 1-tuples
    inner = [itemgetter(*range(i), *range(i + 1, n + 2)) for i in range(1, n + 1)]
    faces = [itemgetter(slice(1, None)), *inner, itemgetter(slice(n + 1))]
    for i, face in enumerate(faces):
        rs, chs = rows, chains
        if not strict:
            rs = compress(rows, map(itemgetter(i), keeps))
            chs = compress(chains, map(itemgetter(i), keeps))
        ks = map(col.__getitem__, map(face, chs))
        m.entries.update(zip(zip(rs, ks), repeat(-1 if i % 2 else 1)))
    return m


def _odd_run_starts(eqs):
    """For a chain whose vertices j, j+1 are equal exactly when eqs[j],
    whether each vertex starts a run of equal vertices of odd length."""
    odd = [True] * (len(eqs) + 1)  # the run from j on has odd length
    for j in reversed(range(len(eqs))):
        odd[j] = not (eqs[j] and odd[j + 1])
    return [o and not (j and eqs[j - 1]) for j, o in enumerate(odd)]


def cohomology_dims(poset, max_n, strict=True):
    """Nerve cohomology dimensions [dim H^0, ..., dim H^max_n] over Q.

    Level max_n + 1 is asked for first: Poset.chains counts the levels
    to it (TooLarge past posets.CHAIN_BUDGET) before it builds any, and
    builds none past the first empty one; the degrees from there on read
    0, as in hh_dims.  The ranks come top-down from one chain_ranks pass
    that clears: d_{n+1} d_n = 0, and the rows of d_n, the columns of
    d_{n+1}, at d_{n+1}'s pivots are never built; the rank stays the same."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    poset.chains(max_n + 1, strict=strict)
    levels = (poset.chains(n, strict=strict) for n in range(max_n + 1))
    sizes = list(map(len, takewhile(len, levels)))  # stops before the first empty level
    ranks = chain_ranks(len(sizes), lambda t, skip: coboundary_matrix(
        poset, len(sizes) - 1 - t, strict, skip))
    return dims_from_ranks(sizes, ranks[::-1]) + [0] * (max_n + 1 - len(sizes))
