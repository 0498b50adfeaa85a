"""Formal deformations of the incidence product, truncated at a fixed
order N.

A candidate deformed product m + omega_1*lam + ... + omega_N*lam^N is an
MCElement: its higher terms as one series-valued simplicial 2-cochain W,
W(chain) = sum_n omega_n(chain) lam^n, an element of the DGLA tensored
with lam*k[lam]/(lam^{N+1}).  mc_check tests the Maurer-Cartan equation
dW + W o W = 0 there as one opcore.curvature of W at lam = 2**B, an int
per chain (Kronecker substitution): no caller composes series any more.
The layers omega_n are read off W only for JSON and the linear solves.

The same data reads as a cochain valued in the truncated Witt group
W_N = 1 + lam*k[lam]/(lam^{N+1}): pointwise 1 + W.  A Witt cochain is
that series-valued SimpCochain itself, read as 1 + value (a chain absent
from values reads 1), so the reading is the identity on data and only
the rules differ: mc_check adds and composes W, and the Witt functions
below multiply 1 + W pointwise (witt_mul, witt_inverse, witt_coboundary).
Under that reading the Maurer-Cartan equation becomes the multiplicative
cocycle condition, coboundaries implement gauge equivalence, and log/exp
turn every question into N independent linear problems over the
rationals.  That is how gauge_equivalent and moduli are computed;
mc_check stays on the DGLA side precisely so the equivalence of the two
roads is testable.

Every series is a TruncSeries of int numerators over one denominator, so
the whole Witt road runs on ints.  Fractions enter only at the linear
solves of gauge_equivalent and in JSON output.
"""

from math import lcm

from .hochschild import rel_eval
from .linalg import class_basis, solve_columns
from .opcore import curvature
from .scalars import TruncSeries, digits, kronecker
from .simplicial import SimpCochain, SimplicialCarrier, coboundary_matrix


# Largest order of an element and of moduli: Witt series hold order + 1
# coefficients per chain and multiply in order**2 steps; the CLI exits 2.
MAX_ORDER = 100


class NotMC(ValueError):
    """An operation requiring Maurer-Cartan inputs got a non-MC element."""


class UnsupportedDegree(ValueError):
    """A Witt cochain of a degree the operation does not take: witt_coboundary
    takes degrees 1 and 2, MCElement.of degree 2."""


class MCElement:
    """Higher terms of a formal deformation, built from terms {n: the lam^n
    coefficient, a simplicial 2-cochain} for 1 <= n <= order and stored as
    one 2-cochain w of den 1 whose values are TruncSeries with constant
    term 0: w(chain) = sum_n terms[n](chain) lam^n."""

    __slots__ = ("order", "w")

    def __init__(self, order, terms=()):
        layers = {int(n): c for n, c in dict(terms).items()}
        _check(order, [(n, c.degree) for n, c in layers.items()])
        self.order = order
        self.w = SimpCochain._of(2, _series(_rows(layers), order))

    @property
    def terms(self):
        """The nonzero layers {n: the lam^n coefficient of w}, read off w."""
        return {n: c for n in range(1, self.order + 1) if (c := self.term(n)).values}

    def term(self, n):
        """The lam^n coefficient of w; zero outside 1..order."""
        return _layer(2, self.w.values, n) if 1 <= n <= self.order else SimpCochain(2)

    def __eq__(self, other):
        return (
            isinstance(other, MCElement)
            and self.order == other.order
            and self.w == other.w
        )

    __hash__ = None

    def __repr__(self):
        return "MCElement(order=%d, layers=%s)" % (self.order, sorted(self.terms))

    def to_dict(self, poset):
        return {
            "order": self.order,
            "terms": {str(n): c.to_dict(poset) for n, c in sorted(self.terms.items())},
        }

    @classmethod
    def from_dict(cls, poset, d):
        """Inverse of to_dict; rejects malformed documents with ValueError
        (see SimpCochain.from_dict for the checks on each term) in the order
        MCElement(order, terms) would: every layer's entries, then _check.
        The entries go straight into the series, with no cochain per layer."""
        if not isinstance(d, dict) or not isinstance(d.get("terms", {}), dict):
            raise ValueError("an element must be a JSON object with a 'terms' object")
        if "order" not in d:
            raise ValueError("order is missing")
        order = d["order"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError("order %r is not an integer" % (order,))
        degrees, rows, known = {}, {}, {}
        for k, cd in d.get("terms", {}).items():
            try:
                n = int(k)
            except ValueError:
                raise ValueError("layer key %r is not an integer" % (k,)) from None
            if n in degrees:
                raise ValueError("layer %r repeats layer %d" % (k, n))
            degrees[n], entries = SimpCochain._entries(poset, cd, known)
            for ch, (a, q) in entries.items():
                if a:
                    rows.setdefault(ch, []).append((n, a, q))
        _check(order, degrees.items())
        return cls.of(order, SimpCochain._of(2, _series(rows, order)))

    @classmethod
    def of(cls, order, w):
        """The element whose series cochain is w (a Witt 2-cochain), wrapped
        without copying or checking its values; UnsupportedDegree unless w
        has degree 2."""
        if w.degree != 2:
            raise UnsupportedDegree("only degree-2 Witt cochains encode deformations")
        e = cls.__new__(cls)
        e.order, e.w = order, w
        return e


def mc_check(p, e, carrier=None):
    """Maurer-Cartan test of the series-valued cochain: dW + W o W = 0.

    Returns (True, None) or (False, (n, chain-labels)) with the lowest
    lam-degree n where the defect has a nonzero coefficient, and the
    first weak 3-chain where it does.  carrier defaults to a new
    simplicial one; moduli and gauge_equivalent pass one carrier to all
    their calls, so its mult() is built once, and passing a doctored
    carrier is how the sensitivity tests poke this harness.

    The defect is one opcore.curvature on ints (_defect), no series
    composed.  With W = P/D (one den D) and mult() = M/E, L = lcm(D E, D**2)
    times the curvature of P(2**b)/D is Q(2**b), Q = (L/(D E)) (M o P +
    P o M) + (L/D**2) P o P, as the kernels only add and multiply and
    lam -> 2**b is a ring map.  Q's coefficients 0..N over L are the
    truncated defect: if every |q_k| < 2**(b-1), they are the lowest N + 1
    digits of Q(2**b) in signed base 2**b, and the digits above N are the
    truncation.  Every kernel here (and SignFlip) pairs, per output key,
    each entry of either side with at most one of the other, times -1, 0
    or 1.  So each of the two slots of M o P and of P o M adds at most
    |M|_1 |P|_inf to |q_k|, each of P o P at most sum_a sum_i |P_i(a)|
    |P|_inf = |P|_1 |P|_inf (|.|_1 sums, |.|_inf maxes |numerators| over
    chains and powers), and |q_k| <= beta = (L/(D E)) 4 |M|_1 |P|_inf +
    (L/D**2) 2 |P|_1 |P|_inf < 2**(b-1) for b = beta.bit_length() + 1.
    """
    car = carrier if carrier is not None else SimplicialCarrier(p)
    defect = _defect(car, e.w, e.order)
    if not defect:
        return True, None
    # chains(3) is lexicographic: its first chain is the least tuple
    n, ch = min(
        (next(k for k, a in enumerate(s.num) if a), ch) for ch, s in defect.items()
    )
    return False, (n, tuple(p.chain_labels(ch)))


def _defect(car, w, order):
    """{chain: series}: curvature(car, w) truncated at order, as mc_check says."""
    m, d = car.mult(), lcm(*[s.den for s in w.values.values()])
    rows = [(ch, s.num, d // s.den) for ch, s in w.values.items()]
    inf = max([max(map(abs, a)) * f for _, a, f in rows], default=0)
    l1, big = sum([sum(map(abs, a)) * f for _, a, f in rows]), lcm(d * m.den, d * d)
    beta = big // (d * m.den) * 4 * sum(map(abs, m.values.values())) * inf
    b = (beta + big // (d * d) * 2 * l1 * inf).bit_length() + 1
    x = SimpCochain._reduced(2, {ch: kronecker(a, b) * f for ch, a, f in rows}, d)
    out, low = curvature(car, x), (1 << b * (order + 1)) - 1
    return {ch: TruncSeries._reduced(order, digits(r, b, order), big)
            for ch, v in out.values.items() if (r := v * (big // out.den) & low)}


def _check(order, degrees):
    """ValueError unless 1 <= order <= MAX_ORDER and then, for each layer
    (n, degree) in turn, 1 <= n <= order and degree == 2."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError("order %d outside 1..%d" % (order, MAX_ORDER))
    for n, degree in degrees:
        if not 1 <= n <= order:
            raise ValueError("term index %d outside 1..%d" % (n, order))
        if degree != 2:
            raise ValueError("term %d has degree %d, expected 2" % (n, degree))


def _rows(layers):
    """{chain: [(n, a, q)]}: the numerator a over the den q of each
    layers[n] at each chain it is nonzero on."""
    rows = {}
    for n, c in layers.items():
        for ch, v in c.values.items():
            rows.setdefault(ch, []).append((n, v, c.den))
    return rows


def _series(rows, order):
    """Per chain, the series sum_n (a/q) lam^n of its rows (n, a, q),
    nonzero a: over the lcm of the row dens, reduced once."""
    out = {}
    for ch, row in rows.items():
        den = lcm(*[q for _, _, q in row])
        num = [0] * (order + 1)
        for n, a, q in row:
            num[n] = a * (den // q)
        out[ch] = TruncSeries._reduced(order, num, den)
    return out


def _layer(degree, series, n):
    """The lam^n coefficients of series (a dict chain -> TruncSeries) as a
    SimpCochain: the inverse of _series, one layer at a time."""
    col = [(ch, s.num[n], s.den) for ch, s in series.items() if s.num[n]]
    den = lcm(*[d for _, _, d in col])
    return SimpCochain._reduced(degree, {ch: v * (den // d) for ch, v, d in col}, den)


def _plus(s, k):
    """s + k for an int k: only the constant numerator moves, and the form
    stays canonical, as gcd(den, num[0] + k den) = gcd(den, num[0])."""
    return TruncSeries._of(s.order, (s.num[0] + k * s.den,) + s.num[1:], s.den)


def witt_mul(a, b):
    """The pointwise Witt product of two cochains of one degree, each read
    as 1 + value: (1 + a)(1 + b) - 1 on every chain, a chain whose result
    is 0 (the unit 1) dropped."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch in Witt product")
    out = dict(a.values)
    for ch, y in b.values.items():
        x = out.get(ch)
        if x is None:
            out[ch] = y
        elif s := x + y + x * y:
            out[ch] = s
        else:
            del out[ch]
    return SimpCochain._of(a.degree, out)


def witt_inverse(a):
    """The pointwise Witt inverse (1 + a)^-1 - 1, never 0 where a is not."""
    return SimpCochain._of(
        a.degree, {ch: _plus(_plus(x, 1).inverse(), -1) for ch, x in a.values.items()}
    )


def witt_coboundary(p, c):
    """Multiplicative coboundary: alternating face product, minus 1.

    Degree 1 -> 2: (d0 c)(d1 c)^-1 (d2 c).
    Degree 2 -> 3: (d0 c)(d1 c)^-1 (d2 c)(d3 c)^-1.
    A degree-2 cochain is a cocycle exactly when its coboundary is the
    constant 1, that is, has no values.  A face absent from c.values is 1
    and is skipped, so only present faces are multiplied; each one is
    made a unit 1 + c(face) once and inverted at most once.
    """
    if c.degree not in (1, 2):
        raise UnsupportedDegree("witt coboundary defined in degrees 1 and 2")
    n = c.degree
    units, inverses, out = {}, {}, {}
    for ch, s in c.values.items():
        if not isinstance(s, TruncSeries):
            raise TypeError("Witt value %r is not a TruncSeries" % (c.value(ch),))
        units[ch] = _plus(s, 1)
    for ch in p.chains(n + 1):
        acc = None
        for i in range(n + 2):
            face = ch[:i] + ch[i + 1 :]
            f = units.get(face)
            if f is None:
                continue
            if i % 2:
                inv = inverses.get(face)
                if inv is None:
                    inv = inverses[face] = f.inverse()
                f = inv
            acc = f if acc is None else acc * f
        if acc is not None and (s := _plus(acc, -1)):
            out[ch] = s
    return SimpCochain._of(n + 1, out)


def witt_to_dict(p, c, order):
    """A Witt cochain of series of this order as JSON, each value written
    as the unit 1 + value."""
    entries = [
        {"chain": list(p.chain_labels(ch)), "series": _plus(s, 1).to_strings()}
        for ch, s in sorted(c.values.items())
    ]
    return {"degree": c.degree, "order": order, "entries": entries}


def is_witt_cocycle(p, c):
    return not witt_coboundary(p, c).values


def witt_exp(degree, order, layers):
    """Pointwise exponential of additive layers, as a Witt cochain:
    exp(sum_n layers[n] lam^n) - 1, layers[n] (1-indexed) cochains of the
    given degree; missing layers are zero."""
    vals = {ch: _plus(s.exp(), -1) for ch, s in _series(_rows(layers), order).items()}
    return SimpCochain._of(degree, vals)


def witt_log_layers(c, order):
    """Pointwise log of 1 + c, split into the additive layer cochains
    1..order, order that of c's series (an empty c carries none)."""
    logs = {ch: _plus(s, 1).log() for ch, s in c.values.items()}
    return {n: _layer(c.degree, logs, n) for n in range(1, order + 1)}


def gauge_equivalent(p, e1, e2):
    """Witness Witt 1-cochain phi with e1.w = d(phi) * e2.w in the Witt
    product (witt_mul), or None when the two deformations are genuinely
    inequivalent.

    Both inputs must pass mc_check (NotMC otherwise).  The witness is
    found by taking log of the ratio, whose lam-layers L_1 ... L_N must
    each be a coboundary d_1 psi_n: one elimination of [d_1 | L_1 ... L_N]
    solves them all (linalg.solve_columns).  exp of the solution is
    returned and the multiplicative equation re-checked exactly.
    """
    if e1.order != e2.order:
        raise ValueError("orders differ: %d vs %d" % (e1.order, e2.order))
    car = SimplicialCarrier(p)
    for e in (e1, e2):
        ok, wit = mc_check(p, e, car)
        if not ok:
            raise NotMC("input fails the Maurer-Cartan equation at %r" % (wit,))
    w1, w2 = e1.w, e2.w
    target = witt_log_layers(witt_mul(w1, witt_inverse(w2)), e1.order)

    rowof = {ch: k for k, ch in enumerate(p.chains(2))}
    sols = solve_columns(
        coboundary_matrix(p, 1, strict=False),
        [{rowof[ch]: t.value(ch) for ch in t.values} for t in target.values()],
    )
    if sols is None:
        return None
    cols = p.chains(1)
    psi = {n: SimpCochain(1, zip(cols, x)) for n, x in zip(target, sols)}

    phi = witt_exp(1, e1.order, psi)
    if witt_mul(witt_coboundary(p, phi), w2) != w1:
        raise AssertionError("gauge witness failed the exact re-check")
    return phi


def _strict_h2_reps(p):
    """Representatives of a basis of H^2 on strict chains, as weak
    2-cochains supported on strict chains (extended by zero)."""
    p.chains(3, strict=True)  # d_2 reads 3-chains: all counted before any is built
    c2 = p.chains(2, strict=True)
    return [
        SimpCochain(2, {c2[i]: v for i, v in enumerate(z) if v})
        for z in class_basis(
            coboundary_matrix(p, 2, strict=True), coboundary_matrix(p, 1, strict=True)
        )
    ]


def moduli(p, order):
    """Dimension and a basis of the deformation classes at the given
    truncation order.

    The dimension is order * dim H^2(P).  The basis elements are
    z_i * lam^j for class representatives z_i; each is checked against
    mc_check, and any that fails (possible when the quadratic term
    z o z does not vanish on the nose) is replaced by the exp-corrected
    element with the same leading layer, which is a cocycle by
    construction.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError("order %d outside 1..%d" % (order, MAX_ORDER))
    reps = _strict_h2_reps(p)
    car = SimplicialCarrier(p)
    basis = []
    for z in reps:
        for j in range(1, order + 1):
            e = MCElement(order, {j: z})
            ok, _ = mc_check(p, e, car)
            if not ok:
                e = MCElement.of(order, witt_exp(2, order, {j: z}))
                ok, wit = mc_check(p, e, car)
                if not ok:
                    raise AssertionError(
                        "exp-corrected basis element fails MC at %r" % (wit,)
                    )
            basis.append(e)
    return order * len(reps), basis


def deformation_product(p, e):
    """The deformed product as a relative 2-cochain over truncated
    series: coefficient 1 + sum omega_n(chain) lam^n on each weak
    2-chain.  Its den is 1 and it is never reduced."""
    one, w = TruncSeries.one(e.order), e.w.values
    return SimpCochain(
        2, {ch: one if (s := w.get(ch)) is None else _plus(s, 1) for ch in p.chains(2)}
    )


def associativity_witness(p, e):
    """First weak 3-chain where the deformed product fails to be
    associative, or None; agrees with mc_check by the central
    equivalence and is computed on the algebra side via rel_eval, on
    the basis elements {(x, y): 1} of kP over series."""
    one = TruncSeries.one(e.order)
    F = deformation_product(p, e)
    for ch in p.chains(3):
        a, b, c = ({(ch[t], ch[t + 1]): one} for t in range(3))
        left = rel_eval(F, [rel_eval(F, [a, b]), c])
        right = rel_eval(F, [a, rel_eval(F, [b, c])])
        if left != right:
            return tuple(p.chain_labels(ch))
    return None
