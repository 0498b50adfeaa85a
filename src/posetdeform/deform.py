"""Formal deformations of the incidence product, truncated at a fixed
order N.

A candidate deformed product m + omega_1*lam + ... + omega_N*lam^N is an
MCElement: its higher terms as one series-valued simplicial 2-cochain W,
W(chain) = sum_n omega_n(chain) lam^n, an element of the DGLA tensored
with lam*k[lam]/(lam^{N+1}).  mc_check tests the Maurer-Cartan equation
dW + W o W = 0 there, the shifted differential and circle product from
opcore summed in one pass (curvature); the layers omega_n are read off W
only for JSON and for the linear solves.

The same data reads as a cochain valued in the truncated Witt group
W_N = 1 + lam*k[lam]/(lam^{N+1}): pointwise 1 + W.  Under that reading
the Maurer-Cartan equation becomes the multiplicative cocycle condition,
coboundaries implement gauge equivalence, and log/exp turn every question
into N independent linear problems over the rationals.  That is how
gauge_equivalent and moduli are computed; mc_check stays on the DGLA
side precisely so the equivalence of the two roads is testable.

Every series is a TruncSeries of int numerators over one denominator, so
mc_check and the whole Witt road run on ints.  Fractions enter only at
the linear solves of gauge_equivalent (their right-hand sides and
solutions) and in JSON output.
"""

from __future__ import annotations

from math import lcm

from .hochschild import IncElem, rel_eval
from .linalg import class_basis, solve_columns
from .opcore import curvature
from .scalars import DomainError, TruncSeries
from .simplicial import SimpCochain, SimplicialCarrier, coboundary_matrix


# Largest order of an element and of moduli: Witt series hold order + 1
# coefficients per chain and multiply in order**2 steps; the CLI exits 2.
MAX_ORDER = 100


class NotMC(ValueError):
    """An operation requiring Maurer-Cartan inputs got a non-MC element."""


class UnsupportedDegree(ValueError):
    """Witt coboundary is only defined in degrees 1 and 2."""


class MCElement:
    """Higher terms of a formal deformation, built from terms {n: the lam^n
    coefficient, a simplicial 2-cochain} for 1 <= n <= order and stored as
    one 2-cochain w of den 1 whose values are TruncSeries with constant
    term 0: w(chain) = sum_n terms[n](chain) lam^n."""

    __slots__ = ("order", "w")

    def __init__(self, order, terms=()):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError("order %d outside 1..%d" % (order, MAX_ORDER))
        layers = {}
        for n, c in terms.items() if isinstance(terms, dict) else terms:
            n = int(n)
            if not 1 <= n <= order:
                raise ValueError("term index %d outside 1..%d" % (n, order))
            if c.degree != 2:
                raise ValueError("term %d has degree %d, expected 2" % (n, c.degree))
            layers[n] = c
        self.order = order
        self.w = SimpCochain._of(2, _series(layers, order))

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def single(cls, order, n, cochain):
        return cls(order, {n: cochain})

    @property
    def terms(self):
        """The nonzero layers {n: the lam^n coefficient of w}, read off w."""
        return {n: c for n in range(1, self.order + 1) if (c := self.term(n)).values}

    def term(self, n):
        """The lam^n coefficient of w; zero outside 1..order."""
        return _layer(2, self.w.values, n) if 1 <= n <= self.order else SimpCochain(2)

    def is_zero(self):
        return self.w.is_zero()

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
        (see SimpCochain.from_dict for the checks on each term)."""
        if not isinstance(d, dict) or not isinstance(d.get("terms", {}), dict):
            raise ValueError("an element must be a JSON object with a 'terms' object")
        if "order" not in d:
            raise ValueError("order is missing")
        order = d["order"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError("order %r is not an integer" % (order,))
        terms = {}
        for k, cd in d.get("terms", {}).items():
            try:
                n = int(k)
            except ValueError:
                raise ValueError("layer key %r is not an integer" % (k,)) from None
            if n in terms:
                raise ValueError("layer %r repeats layer %d" % (k, n))
            terms[n] = SimpCochain.from_dict(poset, cd)
        return cls(order, terms)


def mc_check(p, e, carrier=None):
    """Maurer-Cartan test of the series-valued cochain: dW + W o W = 0.

    Returns (True, None) or (False, (n, chain-labels)) with the lowest
    lam-degree n where the defect has a nonzero coefficient, and the
    first weak 3-chain where it does.  carrier defaults to a new
    simplicial one; moduli and gauge_equivalent pass one carrier to all
    their calls, so its mult() is built once, and passing a doctored
    carrier is how the sensitivity tests poke this harness.
    """
    car = carrier if carrier is not None else SimplicialCarrier(p)
    defect = curvature(car, e.w).values
    if not defect:
        return True, None
    # chains(3) is lexicographic: its first chain is the least tuple
    n, ch = min(
        (next(k for k, a in enumerate(s.num) if a), ch) for ch, s in defect.items()
    )
    return False, (n, tuple(p.chain_labels(ch)))


class WittCochain:
    """Cochain valued in the truncated Witt group: one multiplicative
    series per weak chain, defaulting to 1.  Each value is a TruncSeries
    with constant term 1 (a Witt unit); any other series raises
    DomainError, and any other value TypeError."""

    __slots__ = ("degree", "order", "values")

    def __init__(self, degree, order, values=()):
        self.degree = degree
        self.order = order
        one = TruncSeries.one(order)
        out = {}
        items = values.items() if isinstance(values, dict) else values
        for ch, w in items:
            if not isinstance(w, TruncSeries):
                raise TypeError("Witt value %r is not a TruncSeries" % (w,))
            if len(ch) != degree + 1:
                raise ValueError(
                    "chain %r has %d entries, expected %d" % (ch, len(ch), degree + 1)
                )
            if w.order != order:
                raise ValueError("order mismatch in Witt values")
            if w.num[0] != w.den:
                raise DomainError("Witt unit needs constant term 1")
            if w != one:
                out[tuple(ch)] = w
        self.values = out

    def value(self, chain):
        got = self.values.get(chain)
        return TruncSeries.one(self.order) if got is None else got

    def is_one(self):
        return not self.values

    def mul(self, other):
        if self.degree != other.degree or self.order != other.order:
            raise ValueError("degree/order mismatch in Witt product")
        out = dict(self.values)
        one = TruncSeries.one(self.order)
        for ch, w in other.values.items():
            nw = out.get(ch, one) * w
            if nw == one:
                out.pop(ch, None)
            else:
                out[ch] = nw
        c = WittCochain.__new__(WittCochain)
        c.degree = self.degree
        c.order = self.order
        c.values = out
        return c

    __mul__ = mul

    def inverse(self):
        c = WittCochain.__new__(WittCochain)
        c.degree = self.degree
        c.order = self.order
        c.values = {ch: w.inverse() for ch, w in self.values.items()}
        return c

    def __eq__(self, other):
        return (
            isinstance(other, WittCochain)
            and self.degree == other.degree
            and self.order == other.order
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self):
        return "WittCochain(deg=%d, order=%d, %d nontrivial)" % (
            self.degree,
            self.order,
            len(self.values),
        )

    def to_dict(self, poset):
        entries = []
        for ch, w in sorted(self.values.items()):
            entries.append(
                {
                    "chain": list(poset.chain_labels(ch)),
                    "series": w.to_strings(),
                }
            )
        return {"degree": self.degree, "order": self.order, "entries": entries}


def _series(layers, order):
    """Per chain, the series sum_n layers[n](chain) lam^n, read off the
    layers' int numerators: over the lcm of the dens of the layers present
    at that chain, reduced once.  Chains no layer is nonzero on are left
    out."""
    rows = {}
    for n, c in layers.items():
        for ch, v in c.values.items():
            rows.setdefault(ch, []).append((n, v, c.den))
    out = {}
    for ch, row in rows.items():
        den = lcm(*[d for _, _, d in row])
        num = [0] * (order + 1)
        for n, v, d in row:
            num[n] = v * (den // d)
        out[ch] = TruncSeries._reduced(order, num, den)
    return out


def _layer(degree, series, n):
    """The lam^n coefficients of series (a dict chain -> TruncSeries) as a
    SimpCochain: the inverse of _series, one layer at a time."""
    col = [(ch, s.num[n], s.den) for ch, s in series.items() if s.num[n]]
    den = lcm(*[d for _, _, d in col])
    return SimpCochain._reduced(degree, {ch: v * (den // d) for ch, v, d in col}, den)


def to_witt(e):
    """MCElement -> degree-2 Witt cochain, pointwise 1 + W."""
    one = TruncSeries.one(e.order)
    return WittCochain(2, e.order, {ch: one + s for ch, s in e.w.values.items()})


def from_witt(w):
    """Inverse of to_witt: W = w - 1 pointwise."""
    if w.degree != 2:
        raise UnsupportedDegree("only degree-2 Witt cochains encode deformations")
    one = TruncSeries.one(w.order)
    e = MCElement(w.order)
    e.w = SimpCochain._of(2, {ch: s - one for ch, s in w.values.items()})
    return e


def witt_coboundary(p, c):
    """Multiplicative coboundary: alternating face product.

    Degree 1 -> 2: (d0 c)(d1 c)^-1 (d2 c).
    Degree 2 -> 3: (d0 c)(d1 c)^-1 (d2 c)(d3 c)^-1.
    A degree-2 cochain is a cocycle exactly when its coboundary is the
    constant 1.  A face absent from c.values is 1 and is skipped, so only
    present faces are multiplied, and each one is inverted at most once.
    """
    if c.degree not in (1, 2):
        raise UnsupportedDegree("witt coboundary defined in degrees 1 and 2")
    n = c.degree
    inverses = {}
    one = TruncSeries.one(c.order)
    out = {}
    for ch in p.chains(n + 1):
        acc = None
        for i in range(n + 2):
            face = ch[:i] + ch[i + 1 :]
            f = c.values.get(face)
            if f is None:
                continue
            if i % 2:
                inv = inverses.get(face)
                if inv is None:
                    inv = inverses[face] = f.inverse()
                f = inv
            acc = f if acc is None else acc * f
        if acc is not None and acc != one:
            out[ch] = acc
    return WittCochain(n + 1, c.order, out)


def is_witt_cocycle(p, c):
    return witt_coboundary(p, c).is_one()


def witt_exp(p, degree, order, layers):
    """Pointwise exponential of additive layers: layers[n] (1-indexed)
    are cochains of the given degree; missing layers are zero."""
    vals = {ch: s.exp() for ch, s in _series(layers, order).items()}
    return WittCochain(degree, order, vals)


def witt_log_layers(c):
    """Pointwise log, split into additive layer cochains (1-indexed)."""
    logs = {ch: w.log() for ch, w in c.values.items()}
    return {n: _layer(c.degree, logs, n) for n in range(1, c.order + 1)}


def gauge_equivalent(p, e1, e2):
    """Witness 1-cochain phi with to_witt(e1) = d(phi) * to_witt(e2),
    or None when the two deformations are genuinely inequivalent.

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
    w1, w2 = to_witt(e1), to_witt(e2)
    target = witt_log_layers(w1 * w2.inverse())

    rowof = {ch: k for k, ch in enumerate(p.chains(2))}
    sols = solve_columns(
        coboundary_matrix(p, 1, strict=False),
        [{rowof[ch]: t.value(ch) for ch in t.values} for t in target.values()],
    )
    if sols is None:
        return None
    cols = p.chains(1)
    psi = {n: SimpCochain(1, zip(cols, x)) for n, x in zip(target, sols)}

    phi = witt_exp(p, 1, e1.order, psi)
    if witt_coboundary(p, phi) * w2 != w1:
        raise AssertionError("gauge witness failed the exact re-check")
    return phi


def _strict_h2_reps(p):
    """Representatives of a basis of H^2 on strict chains, as weak
    2-cochains supported on strict chains (extended by zero)."""
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
            e = MCElement.single(order, j, z)
            ok, _ = mc_check(p, e, car)
            if not ok:
                w = witt_exp(p, 2, order, {j: z})
                e = from_witt(w)
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
    w = to_witt(e)
    return SimpCochain(2, {ch: w.value(ch) for ch in p.chains(2)})


def associativity_witness(p, e):
    """First weak 3-chain where the deformed product fails to be
    associative, or None; agrees with mc_check by the central
    equivalence and is computed on the algebra side via rel_eval."""
    one = TruncSeries.one(e.order)
    F = deformation_product(p, e)
    for ch in p.chains(3):
        a, b, c = (IncElem({(ch[t], ch[t + 1]): one}) for t in range(3))
        left = rel_eval(F, [rel_eval(F, [a, b]), c])
        right = rel_eval(F, [a, rel_eval(F, [b, c])])
        if left != right:
            return tuple(p.chain_labels(ch))
    return None
