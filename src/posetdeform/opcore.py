"""Carrier-generic operad operations.

A *carrier* is an operad with multiplication on simplicial.SimpCochain:
``compose_at(f, j, g)``, ``identity()`` and ``mult()`` (a fixed
associative arity-2 element with m o m = 0) are all this module reads of
it; the arithmetic (degree, SimpCochain(n) as zero, +, unary -, scale,
== and is_zero()) is SimpCochain's own.  The suites also read
``poset``, ``random_elem(n, rng)`` and ``diff_witness(x, y)``.
SimplicialCarrier keys cochains by weak chains and composes by face
restriction; the relative Hochschild carrier inherits all of it but
``compose_at``; the full Hochschild carrier keys them by argument
intervals and an output interval (x_1, ..., x_n, y) and composes them as
multilinear maps.  Everything in this module is written once against
that interface, so all carriers share one set of sign conventions by
construction.

Degree bookkeeping.  For an element x of arity n we write |x| = n for its
unshifted degree and <x> = n - 1 for its shifted degree.  All signs below
live on the shifted side:

* braces:  x{x_1, ..., x_k} inserts the arguments, in order, into k
  distinct slots s_1 < ... < s_k of x and carries the sign
  (-1)**sum_p <x_p> * i_p, where i_p counts every input of the composite
  standing strictly before the block of x_p (inputs swallowed by earlier
  blocks included).  With a single argument this reduces to the circle
  product f o g = sum_j (-1)**((j-1)<g>) f o_j g.  With more arguments
  than slots the sum is empty: the brace is the zero element of the
  arity the insertions would have had, clamped at 0.  Identities such
  as the brace relation need that convention, and circle inherits it.
* dot:     x . y = (-1)**|x| m{x, y}, an associative product of degree 0.
* d:       d x = m o x - (-1)**<x> x o m, the differential of the shifted
  complex; the classical alternating-face-sum differential is
  (-1)**(|x|+1) times it, so kernels and images agree degreewise.  The
  unshifted differential -d is also provided.
* bracket: [f, g] = f o g - (-1)**(<f><g>) g o f.

SignFlip(car) is the one way to doctor a carrier: it negates every
insertion into slot 2, and each harness (the law suites, the iso suite,
mc_check) takes it in place of car to show that it reports failures.
"""

from __future__ import annotations

from itertools import combinations

# the exceptions live with the carriers that raise them and stay importable here
from .simplicial import ArityMismatch, SimpCochain, SlotOutOfRange  # noqa: F401


def signed(e, x):
    """(-1)**e x: every sign rule of this module and of the suites."""
    return -x if e % 2 else x


def gamma(car, f, args):
    """Total composition: gamma(f; f_1, ..., f_k) with k = arity(f),
    realized as (..((f o_k f_k) o_{k-1} f_{k-1}) ..) o_1 f_1.
    gamma(x;) is x for arity-0 x."""
    k = f.degree
    if len(args) != k:
        raise ArityMismatch("gamma needs exactly %d arguments, got %d" % (k, len(args)))
    out = f
    for j in range(k, 0, -1):
        out = car.compose_at(out, j, args[j - 1])
    return out


def brace(car, x, args):
    """x{x_1, ..., x_k}: the signed sum over order-preserving insertions.

    x{} is x itself.  With more arguments than x has slots there is no
    insertion, and the empty sum is the zero element of arity
    max(arity(x) + sum(arity(x_i) - 1), 0), the arity the insertions
    would have had, clamped at 0."""
    args = list(args)
    if not args:
        return x
    m = x.degree
    if len(args) > m:
        return SimpCochain(max(m + sum(a.degree - 1 for a in args), 0))
    return _brace_sum(car, x, m, args)


def _brace_sum(car, x, m, args):
    k = len(args)
    arities = [a.degree for a in args]
    shifted = [a - 1 for a in arities]
    terms = []
    for slots in combinations(range(1, m + 1), k):
        eps = 0
        consumed = 0  # arity consumed by earlier blocks
        for p in range(k):
            # inputs of the composite before block p: untouched slots of x
            # plus everything inside the earlier blocks
            i_p = (slots[p] - 1 - p) + consumed
            eps += shifted[p] * i_p
            consumed += arities[p]
        term = x
        for p in range(k - 1, -1, -1):
            term = car.compose_at(term, slots[p], args[p])
        terms.append((eps, term))
    return SimpCochain.lincomb(m + sum(arities) - k, terms)


def circle(car, f, g):
    """f o g = f{g}; for arity-0 f it is the empty sum, a zero."""
    return brace(car, f, [g])


def dot(car, x, y):
    """The associative product x . y = (-1)**|x| m{x, y}."""
    return signed(x.degree, brace(car, car.mult(), [x, y]))


def differential(car, x):
    """Differential of the shifted complex: d x = m o x - (-1)**<x> x o m.
    Raises arity by one and squares to zero."""
    left = circle(car, car.mult(), x)
    return SimpCochain.lincomb(left.degree, [(0, left), (x.degree, circle(car, x, car.mult()))])


def differential_unshifted(car, x):
    """The classical-complex differential, recovered from the shifted one
    by d(sx) = -s(dx); equals (-1)**|x| times the alternating face sum."""
    return -differential(car, x)


def bracket(car, f, g):
    """Graded bracket [f, g] = f o g - (-1)**(<f><g>) g o f on the shifted
    complex.  Both products have arity max(|f| + |g| - 1, 0), zeros
    included, so they add directly."""
    fg = circle(car, f, g)
    e = (f.degree - 1) * (g.degree - 1) + 1
    return SimpCochain.lincomb(fg.degree, [(0, fg), (e, circle(car, g, f))])


class SignFlip:
    """Shadow carrier that negates every partial composition into slot 2,
    leaving everything else alone.  It exists so the verification suites
    can be shown to fail: a single wrong sign anywhere must surface as at
    least one reported failure."""

    def __init__(self, base):
        self.base = base
        self.name = base.name + "+signflip"

    def compose_at(self, f, j, g):
        out = self.base.compose_at(f, j, g)
        return -out if j == 2 else out

    def __getattr__(self, attr):
        return getattr(self.base, attr)
