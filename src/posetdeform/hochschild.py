"""The incidence algebra of a poset and its Hochschild cochains.

The incidence algebra kP has a basis element E[i, j] for every interval
i <= j, with E[i, j] * E[j, k] = E[i, k] and all other basis products
zero.  The diagonal spans the separable subalgebra generated by the
idempotents E[i, i].

Two cochain carriers live here, both on simplicial.SimpCochain and its
arithmetic; they differ in their keys and in how they compose.

*Relative* cochains (relative to the diagonal subalgebra) are determined
by one scalar per weak n-chain, so they are stored as the same
simplicial.SimpCochain as simplicial cochains: a coefficient v on the
chain (i0, ..., in) means the cochain sends the basis tuple
(E[i0, i1], ..., E[i_{n-1}, i_n]) to v * E[i0, i_n] and kills
non-composable tuples.  Degree 0 is the diagonal of kP, one scalar per
element (as_element).  The relative carrier shares everything with the
simplicial one but the structure constant k of each output chain of a
composition, which it computes *natively* -- by multilinear evaluation
in the algebra and re-extraction of coefficients -- not by face
restriction; the isomorphism between the two operads is then a
checkable statement, not a tautology.  A carrier keeps each evaluation
it makes for every output chain that shares its arguments.  hh_dims ranks
by default the normalized subcomplex, one scalar per strict chain.

*Full* cochains are arbitrary multilinear maps (kP)**n -> kP.  They are
SimpCochains too, with one scalar per key (x_1, ..., x_n, y): the n
argument intervals, then the output interval, so a degree-n key has
n + 1 entries like a weak n-chain.  The value there is the coefficient of
E[y] in the image of (E[x_1], ..., E[x_n]); a degree-0 key (y,) is an
algebra element.  Such cochains are never serialized: to_dict and
from_dict are for chain-keyed cochains only.  The full carrier is the
endomorphism operad of kP; its multiplication is the algebra product
itself and d = [m, -] is the Hochschild differential.  The basis grows
like (#intervals)**(n+1), so the basis tuples of a degree (tuples) are
capped, and so are hh_dims and random_elem, which walk them; exceeding
the cap raises TooLarge.

Composition in either carrier (its kernel compose_into, see
simplicial.Carrier) enumerates the pairs of entries of f and g that meet
in slot j (grouped by the interval there), never all tuples of the
output degree, and needs no cap; only for dense relative f and g does it
take every chain of the output degree, reading f's and g's values there
by the simplicial carrier's two gathers per shape (its _plan).
The groupings are cached on the cochains (SimpCochain.grouped),
identity() and mult() have theirs from the start, so m o_j x and
x o_j m for a unit x cost one probe plus a step per pair.

An element of kP is its coefficient dict {(i, j): nonzero scalar} on
the intervals i <= j.  rel_eval applies E[i, j] E[j, k] = E[i, k] itself
and needs nothing of the scalars but +, * and a truth test, so ints,
Fractions and truncated series all serve (the last for
deform.associativity_witness).
"""

from fractions import Fraction
from itertools import islice, product
from operator import mul

from .linalg import SparseMat, chain_ranks, dims_from_ranks
from .opcore import ArityMismatch, differential
from .posets import TooLarge
from .simplicial import Carrier, SimpCochain, SimplicialCarrier, compose_sum

FULL_TABLE_LIMIT = 10_000
# unit keys packed into one differential by packed_transpose: each of its values
# is at most PACK_BLOCK slots of b = (n + 2).bit_length() + 1 bits in degree n
PACK_BLOCK = 256


def _accumulate(acc, key, v):
    """acc[key] += v, dropping the key when the sum vanishes."""
    cur = acc.get(key)
    if cur is not None:
        v = cur + v
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def _over(elem, den):  # elem / den
    if den == 1:
        return elem
    r = Fraction(1, den)
    return {ij: r * v for ij, v in elem.items()}


def as_element(f):
    """A degree-0 relative cochain as the diagonal algebra element it is."""
    if f.degree != 0:
        raise ArityMismatch("only degree-0 cochains are algebra elements")
    return _over({(x, x): v for (x,), v in f.values.items()}, f.den)


def rel_eval(f, args):
    """Multilinear evaluation of a relative cochain on elements of kP,
    coefficient dicts {(i, j): nonzero scalar}, into one.

    Expands over the terms of the arguments, keeps the composable paths
    (E[i, j] E[j, k] = E[i, k]), and weighs each by f's coefficient on
    the resulting chain.  The scalars, f's and the arguments', need only
    +, * and a truth test (zero is false): ints, Fractions and
    scalars.TruncSeries all serve, the last for
    deform.associativity_witness.  f's den divides the result once at
    the end, so a den-1 cochain on int arguments gives ints."""
    n = f.degree
    if n < 1:
        raise ArityMismatch("rel_eval needs degree >= 1")
    if len(args) != n:
        raise ArityMismatch("expected %d arguments, got %d" % (n, len(args)))
    # paths: (vertex chain so far, accumulated scalar)
    paths = [((), None)]
    for a in args:
        nxt = []
        for chain, s in paths:
            for (lo, hi), c in a.items():
                if chain:
                    if chain[-1] != lo:
                        continue
                    nxt.append((chain + (hi,), s * c))
                else:
                    nxt.append(((lo, hi), c))
        paths = nxt
        if not paths:
            break
    acc = {}
    for chain, s in paths:
        coeff = f.values.get(chain)
        if coeff is not None:
            _accumulate(acc, (chain[0], chain[-1]), coeff * s)
    return _over(acc, f.den)


class RelHochschildCarrier(SimplicialCarrier):
    """Operad carrier of relative Hochschild cochains.  Everything but
    the structure constants is the simplicial carrier's: the cochains,
    their arithmetic, identity (the identity map of kP), mult (the
    algebra product), and the pair walk and gluing of composition.  A
    relative cochain is bilinear over the diagonal, so delta_b fills slot
    j of delta_a only where a has b's end points, and then
    delta_a o_j delta_b is k delta_c for the chain c that face
    restriction glues from a and b.  This carrier derives k by evaluation
    in kP (_structure), never by face restriction, so iso compares two
    independently derived rules.  One table, keyed by (j, q) and then c,
    keeps each k from the first time c is met for as long as the carrier,
    and under it _evals keeps the evaluations in kP that _structure makes,
    one per inner chain b and one per (j, a, inner value)."""

    name = "relative"

    def __init__(self, poset):
        super().__init__(poset)
        self._tables, self._consts, self._evals = {}, {}, {}

    # the basis tuple (E[c[0], c[1]], ...) of a chain c, E[x, y] being {(x, y): 1}
    _basis = staticmethod(lambda c: [{xy: 1} for xy in zip(c, c[1:])])

    def _structure(self, j, q, c):
        """k with delta_a o_j delta_b = k delta_c for the one pair that
        glues c in slot j, a = c[:j] + c[j+q-1:] and b = c[j-1:j+q], by
        evaluation in kP: delta_b on b's basis tuple (for q = 0, the
        diagonal E[x, x]) fills slot j of a's basis tuple, delta_a is
        evaluated there, and k is read at (a[0], a[-1]) = (c[0], c[-1]).

        The inner arguments are a function of b and the outer ones of
        (j, a, the inner value), so _evals keeps both evaluations for as
        long as the carrier: the inner value and its terms under b, the
        outer k, an int, under (j, a, those terms).  An outer key holds a
        tuple and a chain only ints, so the two kinds never collide.  This
        reuses rel_eval's answers on equal arguments only: every k is
        still read off an evaluation in kP, never face restriction."""
        evals, a, b = self._evals, c[:j] + c[j + q - 1 :], c[j - 1 : j + q]
        inner = evals.get(b)
        if inner is None:
            delta_b = SimpCochain._of(q, {b: 1})
            got = rel_eval(delta_b, self._basis(b)) if q else as_element(delta_b)
            inner = evals[b] = got, tuple(got.items())
        key = j, a, inner[1]
        k = evals.get(key)
        if k is None:
            args = self._basis(a)
            args[j - 1] = inner[0]
            got = rel_eval(SimpCochain._of(len(a) - 1, {a: 1}), args)
            k = evals[key] = got.get((a[0], a[-1]), 0)
        return k

    def _table(self, j, q, chains):
        """The structure constants of slot j and g-degree q on chains, in
        order; each chain not met before is evaluated (_structure)."""
        row = self._tables.setdefault((j, q), {})
        return [row[c] if c in row else row.setdefault(c, self._structure(j, q, c))
                for c in chains]

    def compose_at(self, f, j, g):
        """f o_j g with constants from kP, the one-term compose_sum."""
        return compose_sum(self, f.degree + g.degree - 1, [(0, f, j, g)])

    def compose_into(self, out, s, f, j, g):
        """Add s (f o_j g) into out: the simplicial kernel's s f(a) g(b)
        on each output chain c, times its k.  A list out, from compose_sum,
        receives every chain of the shape at once: the lazy products
        f(a) g(b) times the constants of the shape, listed once per
        carrier, with s, which compose_sum applies as it folds."""
        p, q = f.degree, g.degree
        if type(out) is list:
            ks = self._consts.get((p, j, q))
            if ks is None:
                ks = self._consts[p, j, q] = self._table(j, q, self.poset.chains(p + q - 1))
            out.append((map(mul, ks, self._products(f, j, g)), s))
            return
        term, get = {}, out.get
        super().compose_into(term, s, f, j, g)
        for c, k, v in zip(term, self._table(j, q, term), term.values()):
            if k:
                v = k * v
                cur = get(c)
                out[c] = v if cur is None else cur + v


class FullHochschildCarrier(Carrier):
    """Endomorphism operad of the incidence algebra.  A degree-n cochain is
    a SimpCochain keyed by (x_1, ..., x_n, y): its value there is the
    coefficient of E[y] in the image of (E[x_1], ..., E[x_n]).  Only what
    reads those keys lives here; the arithmetic is SimpCochain's."""

    name = "full"

    slot = staticmethod(lambda j: (j - 1,))  # key position of slot j's interval x_j

    def tuples(self, n):
        """An iterator over all basis tuples (x_1, ..., x_n) of intervals,
        lexicographic; past the cap TooLarge, before any is made: the
        intervals are counted from the up-sets and built only after."""
        count = sum(map(len, self.poset.up))
        if count ** n > FULL_TABLE_LIMIT:
            raise TooLarge("%d**%d basis tuples exceeds the full-complex cap" % (count, n))
        return product(self.poset.intervals(), repeat=n)

    def compose_at(self, f, j, g):
        """f o_j g of multilinear maps, the one-term compose_sum."""
        return compose_sum(self, f.degree + g.degree - 1, [(0, f, j, g)])

    def compose_into(self, out, s, f, j, g):
        """Add s (f o_j g) into out, enumerating pairs of entries.

        (f o_j g)(t) = f(t[:j-1] + (g(u),) + t[j-1+q:]) with u the q
        arguments in slots j..j+q-1.  An entry u + (K,) of g, the
        coefficient of E[K] in g(u), meets only the keys a of f with K in
        slot j, read off f's grouping by slot j (cached on f), and adds
        the product of the two values, s times g's, to the output key
        a[:j-1] + u + a[j:] (K is not part of it).  No list of all tuples
        is built: no TooLarge here."""
        by_slot, get = f.grouped(self.slot(j)), out.get
        for b, y in g.values.items():
            if s != 1:
                y = -y if s == -1 else y * s
            u = b[:-1]
            for a, x in by_slot.get(b[-1], ()):
                key, v = a[: j - 1] + u + a[j:], x * y
                cur = get(key)
                out[key] = v if cur is None else cur + v

    def _build(self, n):
        """The identity map of kP (n = 1) or its product (n = 2)."""
        ivs = self.poset.intervals()
        if n == 1:
            return SimpCochain._of(1, {(x, x): 1 for x in ivs})
        return SimpCochain._of(
            2, {(x, y, (x[0], y[1])): 1 for x in ivs for y in ivs if x[1] == y[0]}
        )

    def random_elem(self, n, rng):
        # each basis tuple, with probability 1/2, goes to c E[y] for a random
        # interval y and c = a/b, a in -3..3 and b in 1..3, as a * (6 // b) over 6
        ivs = self.poset.intervals()
        vals = {}
        for t in self.tuples(n):
            if rng.random() < 0.5:
                continue
            y = ivs[rng.randrange(len(ivs))]
            v = rng.randint(-3, 3) * (6 // rng.randint(1, 3))
            if v:
                vals[t + (y,)] = v
        return SimpCochain._reduced(n, vals, 6)

    def diff_witness(self, x, y):
        """First basis tuple where two same-degree cochains differ."""
        for key in sorted(set(x.values) | set(y.values)):
            if x.value(key) != y.value(key):
                return str(key[:-1])
        return ""


def packed_transpose(car, n, keys, shape, row, skip=frozenset()):
    """The transpose of d_n on car, of the given shape: row k is d = [m, -]
    of the unit cochain on the k-th of keys, the unit keys of degree n,
    each carrier deriving it its own way, with its entry at an output key
    in column row(key).  The rows in skip stay empty (chain_ranks).  An
    output key that row does not know raises ValueError naming it.

    PACK_BLOCK rows come from one differential (Kronecker substitution, as
    in deform.mc_check): that of x, worth lam**i on the i-th unit key of
    the block, at lam = 2**b.  Every kernel only adds and multiplies, and
    x and m have den 1, so on each output key the value is the sum of
    e_i 2**(b i), e_i row i's entry there.  A unit cochain meets at most
    one entry of m per output key, and m's numerators are 1, so e_i sums
    at most n + 2 circle terms (two slots of m o x, n of x o m), each
    +-k: k is the relative structure constant, 0 or 1, or 1 in the full
    carrier.  Thus |e_i| <= n + 2 < 2**(b-1) for b = (n + 2).bit_length()
    + 1, and the e_i are the signed base-2**b digits of the value, read
    at its nonzero slots only."""
    m, b = SparseMat(*shape), (n + 2).bit_length() + 1
    half, mask, entries = 1 << (b - 1), (1 << b) - 1, m.entries
    live = ((k, key) for k, key in enumerate(keys) if k not in skip)
    for block in iter(lambda: list(islice(live, PACK_BLOCK)), []):
        x = SimpCochain._of(n, {key: 1 << b * i for i, (_, key) in enumerate(block)})
        for out, v in differential(car, x).values.items():
            try:
                col = row(out)
            except KeyError:
                raise ValueError("d leaves the unit keys at %r" % (out,)) from None
            while v:  # the lowest set bit left lies in the next nonzero digit
                i = ((v & -v).bit_length() - 1) // b
                e = ((v >> b * i) + half & mask) - half
                entries[block[i][0], col] = e
                v -= e << b * i
    return m


def hh_dims(poset, max_n, which="relative", strict=True):
    """Hochschild cohomology dimensions [dim HH^0, ..., dim HH^max_n].

    which='relative' uses the diagonal-relative complex, by default the
    normalized one keyed by strict chains: the cochains that vanish when
    an argument lies in the diagonal, a subcomplex quasi-isomorphic to the
    whole (Loday, Cyclic Homology, 1.5.7; Cibils, JPAA 56, 1989), so its
    dimensions are those of strict=False, keyed by weak chains.  d keeps
    strict unit keys on strict keys (else ValueError).  Either complex is
    counted against posets.CHAIN_BUDGET (TooLarge) before a level is
    built, and ends at its first empty level (Poset.chains): the degrees
    past it read 0.  which='full' uses the full endomorphism complex
    (max_n <= 2, table growth), keyed by basis tuples and an output
    interval; a key's row is its mixed-radix index over poset.intervals(),
    so no list of keys is built.

    Each transposed d_n is a packed_transpose, and each relative k is
    checked as it is derived: one other than 0 or 1 would break its slot
    bound, and raises ValueError.  The ranks come bottom-up from one
    chain_ranks pass, which clears: d_{n+1} d_n = 0 and the rows of the
    transpose of d_{n+1} are the columns of the transpose of d_n, so a
    unit key of degree n + 1 at a pivot column of the transpose of d_n is
    packed into no block, and the rank stays the same.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if which == "relative":
        sizes = poset.chain_counts(max_n + 1, strict)  # ends at its first 0
        car = RelHochschildCarrier(poset)
        derive = car._structure

        def structure(j, q, c):  # the slot width holds k in {0, 1} only
            k = derive(j, q, c)
            if k not in (0, 1):
                raise ValueError("structure constant %r would overflow a slot" % (k,))
            return k

        car._structure = structure
        keys = [poset.chains(n, strict) for n in range(len(sizes))]
        basis = keys.__getitem__
        row = {key: r for ks in keys for r, key in enumerate(ks)}.__getitem__
    elif which == "full":
        if max_n > 2:
            raise TooLarge("full complex capped at degree 2")
        car = FullHochschildCarrier(poset)
        # TooLarge names the first degree past the cap; degree 0, one
        # empty tuple, never is, and is skipped so that no interval is built
        for n in range(1, max_n + 2):
            car.tuples(n)
        ivs = poset.intervals()
        pos = {iv: i for i, iv in enumerate(ivs)}
        sizes = [len(ivs) ** (n + 1) for n in range(max_n + 2)]

        def basis(n):
            return product(ivs, repeat=n + 1)

        def row(key):  # the mixed-radix index of key over ivs
            r = 0
            for iv in key:
                r = r * len(ivs) + pos[iv]
            return r

    else:
        raise ValueError("which must be 'relative' or 'full'")

    top = len(sizes) - 1  # d_0, ..., d_{top-1}
    ranks = chain_ranks(top, lambda n, skip: packed_transpose(
        car, n, basis(n), sizes[n : n + 2], row, skip))
    return dims_from_ranks(sizes[:top], ranks) + [0] * (max_n + 1 - top)
