"""Carrier-generic operad operations.

A *carrier* is any object exposing the small duck-typed interface used
below: ``arity(x)``, ``zero(n)``, ``add(x, y)``, ``scale(c, x)``,
``equal(x, y)``, ``is_zero(x)``, ``compose_at(f, j, g)``, ``identity()``
and ``mult()`` (a fixed associative arity-2 element with m o m = 0); the
suites also use ``poset``, ``random_elem(n, rng)`` and
``diff_witness(x, y)``.  simplicial.SimplicialCarrier implements it on
the one weak-chain cochain type, and the relative Hochschild carrier
inherits all of it but ``compose_at``; the full Hochschild carrier
implements it on its own tables.  Everything in this module is written
once against that interface, so all carriers share one set of sign
conventions by construction.

Degree bookkeeping.  For an element x of arity n we write |x| = n for its
unshifted degree and <x> = n - 1 for its shifted degree.  All signs below
live on the shifted side:

* braces:  x{x_1, ..., x_k} inserts the arguments, in order, into k
  distinct slots s_1 < ... < s_k of x and carries the sign
  (-1)**sum_p <x_p> * i_p, where i_p counts every input of the composite
  standing strictly before the block of x_p (inputs swallowed by earlier
  blocks included).  With a single argument this reduces to the circle
  product f o g = sum_j (-1)**((j-1)<g>) f o_j g.
* dot:     x . y = (-1)**|x| m{x, y}, an associative product of degree 0.
* d:       d x = m o x - (-1)**<x> x o m, the differential of the shifted
  complex; the classical alternating-face-sum differential is
  (-1)**(|x|+1) times it, so kernels and images agree degreewise.  The
  unshifted differential -d is also provided.
* bracket: [f, g] = f o g - (-1)**(<f><g>) g o f.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

FNEG = Fraction(-1)


class ArityMismatch(ValueError):
    """Argument list length does not match the arity being saturated."""


class TooManyArguments(ValueError):
    """brace with more arguments than the receiving element has slots."""


class SlotOutOfRange(ValueError):
    """compose_at with j outside 1..arity(f)."""


def gamma(car, f, args):
    """Total composition: gamma(f; f_1, ..., f_k) with k = arity(f),
    realized as (..((f o_k f_k) o_{k-1} f_{k-1}) ..) o_1 f_1.
    gamma(x;) is x for arity-0 x."""
    k = car.arity(f)
    if len(args) != k:
        raise ArityMismatch("gamma needs exactly %d arguments, got %d" % (k, len(args)))
    out = f
    for j in range(k, 0, -1):
        out = car.compose_at(out, j, args[j - 1])
    return out


def brace(car, x, args):
    """x{x_1, ..., x_k}: the signed sum over order-preserving insertions.

    x{} is x itself.  Raises TooManyArguments when k exceeds arity(x);
    see brace_or_zero for the convention used inside identities, where an
    overflowing brace is an empty sum."""
    args = list(args)
    if not args:
        return x
    m = car.arity(x)
    if len(args) > m:
        raise TooManyArguments(
            "%d arguments into %d slots" % (len(args), m)
        )
    return _brace_sum(car, x, m, args)


def brace_or_zero(car, x, args):
    """Like brace, but an overflowing insertion is the zero element (the
    sum over an empty set of insertions).  Identity checks need this."""
    args = list(args)
    if not args:
        return x
    m = car.arity(x)
    if len(args) > m:
        return car.zero(max(m + sum(car.arity(a) - 1 for a in args), 0))
    return _brace_sum(car, x, m, args)


def _brace_sum(car, x, m, args):
    k = len(args)
    arities = [car.arity(a) for a in args]
    shifted = [a - 1 for a in arities]
    result_arity = m + sum(arities) - k
    total = car.zero(result_arity)
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
        if eps % 2:
            term = car.scale(FNEG, term)
        total = car.add(total, term)
    return total


def circle(car, f, g):
    """f o g = f{g}.  For arity-0 f the insertion sum is empty, so the
    product is zero (clamped to arity 0 when arity(g) is also 0)."""
    if car.arity(f) == 0:
        return car.zero(max(car.arity(g) - 1, 0))
    return brace(car, f, [g])


def dot(car, x, y):
    """The associative product x . y = (-1)**|x| m{x, y}."""
    prod = brace(car, car.mult(), [x, y])
    if car.arity(x) % 2:
        prod = car.scale(FNEG, prod)
    return prod


def differential(car, x):
    """Differential of the shifted complex: d x = m o x - (-1)**<x> x o m.
    Raises arity by one and squares to zero."""
    left = circle(car, car.mult(), x)
    right = circle(car, x, car.mult())
    if (car.arity(x) - 1) % 2 == 0:
        right = car.scale(FNEG, right)
    return car.add(left, right)


def differential_unshifted(car, x):
    """The classical-complex differential, recovered from the shifted one
    by d(sx) = -s(dx); equals (-1)**|x| times the alternating face sum."""
    return car.scale(FNEG, differential(car, x))


def bracket(car, f, g):
    """Graded bracket [f, g] = f o g - (-1)**(<f><g>) g o f on the shifted
    complex."""
    fg = circle(car, f, g)
    gf = circle(car, g, f)
    if ((car.arity(f) - 1) * (car.arity(g) - 1)) % 2 == 0:
        gf = car.scale(FNEG, gf)
    # arity-0 corner: f o g and g o f may be zeros clamped to different
    # recorded arities; adding a zero of the wrong arity would corrupt the
    # result, so short-circuit when one side vanishes
    if car.is_zero(gf):
        return fg
    if car.is_zero(fg):
        return gf
    return car.add(fg, gf)


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
        if j == 2:
            out = self.base.scale(FNEG, out)
        return out

    def __getattr__(self, attr):
        return getattr(self.base, attr)
