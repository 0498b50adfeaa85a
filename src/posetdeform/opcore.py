"""Carrier-generic operad operations.

The carrier interface is stated once, on simplicial.Carrier; this module
reads compose_at, identity() and mult() of it, and the kernel
compose_into through simplicial.compose_sum, which makes each signed sum
of insertions in one pass.  Everything here is written once against that
interface, so all carriers share one set of sign conventions by
construction.

Degree bookkeeping.  For an element x of arity n we write |x| = n for its
unshifted degree and <x> = n - 1 for its shifted degree.  All signs below
live on the shifted side:

* braces:  x{x_1, ..., x_k} inserts the arguments, in order, into k
  distinct slots s_1 < ... < s_k of x and carries the sign
  (-1)**sum_p <x_p> * i_p, where i_p counts every input of the composite
  standing strictly before the block of x_p (inputs swallowed by earlier
  blocks included).  With a single argument this reduces to the circle
  product f o g = sum_j (-1)**((j-1)<g>) f o_j g.  Its arity is
  |x| + sum (|x_p| - 1) always: with more arguments than slots, or a
  zero argument, the brace is the zero of that arity, negative
  included, so every side of an identity has one degree.
* dot:     x . y = (-1)**|x| m{x, y}, an associative product of degree 0.
* d:       d x = m o x - (-1)**<x> x o m, the differential of the shifted
  complex; the classical alternating-face-sum differential is
  (-1)**(|x|+1) times it, so kernels and images agree degreewise.  The
  unshifted differential is -d, by d(sx) = -s(dx): (-1)**|x| times the
  alternating face sum.
* bracket: [f, g] = f o g - (-1)**(<f><g>) g o f.
* curvature: dw + w o w, zero exactly for a Maurer-Cartan w of arity 2.

SignFlip(car) is the one way to doctor a carrier: it negates every
insertion into slot 2 (compose_at and kernel alike), and each harness
(the law suites, the iso suite, mc_check) takes it in place of car to
show that it reports failures.
"""

from itertools import combinations

# compose_sum and the exceptions live with the carriers; the exceptions stay importable here
from .simplicial import ArityMismatch, SlotOutOfRange, compose_sum  # noqa: F401


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

    x{} is x itself; otherwise the arity is arity(x) + sum(arity(x_i) - 1).
    With more arguments than x has slots the sum is empty, and with a zero
    argument the multilinear sum is zero: either way the zero of that
    arity, negative included, and a zero argument is inserted nowhere."""
    args = list(args)
    if not args:
        return x
    degree = x.degree + sum(a.degree - 1 for a in args)
    if any(a.is_zero() for a in args):
        return compose_sum(car, degree, [])
    return compose_sum(car, degree, _brace_terms(car, x, args))


def _brace_terms(car, x, args, e=0):
    """The compose_sum terms (eps + e, y, s_1, x_1) of x{x_1, ..., x_k},
    one per slots s_1 < ... < s_k, y = x o_{s_k} x_k ... o_{s_2} x_2."""
    k = len(args)
    arities = [a.degree for a in args]
    shifted = [a - 1 for a in arities]
    terms = []
    for slots in combinations(range(1, x.degree + 1), k):
        eps = e
        consumed = 0  # arity consumed by earlier blocks
        for p in range(k):
            # inputs of the composite before block p: untouched slots of x
            # plus everything inside the earlier blocks
            i_p = (slots[p] - 1 - p) + consumed
            eps += shifted[p] * i_p
            consumed += arities[p]
        y = x
        for p in range(k - 1, 0, -1):
            y = car.compose_at(y, slots[p], args[p])
        terms.append((eps, y, slots[0], args[0]))
    return terms


def circle(car, f, g):
    """f o g = f{g}; for arity-0 f it is the empty sum, a zero."""
    return brace(car, f, [g])


def dot(car, x, y):
    """The associative product x . y = (-1)**|x| m{x, y}."""
    return signed(x.degree, brace(car, car.mult(), [x, y]))


def _circles(car, degree, circles):
    """The sum of (-1)**e f o g over circles (e, f, g), in one compose_sum."""
    terms = [t for e, f, g in circles for t in _brace_terms(car, f, [g], e)]
    return compose_sum(car, degree, terms)


def differential(car, x):
    """Differential of the shifted complex: d x = m o x - (-1)**<x> x o m,
    both circles in one sum.  Raises arity by one and squares to zero."""
    m = car.mult()
    return _circles(car, x.degree + 1, [(0, m, x), (x.degree, x, m)])


def bracket(car, f, g):
    """Graded bracket [f, g] = f o g - (-1)**(<f><g>) g o f on the shifted
    complex, both circles in one sum, of arity |f| + |g| - 1."""
    e = (f.degree - 1) * (g.degree - 1) + 1
    return _circles(car, f.degree + g.degree - 1, [(0, f, g), (e, g, f)])


def curvature(car, w):
    """dw + w o w = m o w + w o m + w o w for w of arity 2 (shifted degree
    1), in one sum: zero exactly when w is a Maurer-Cartan element."""
    m = car.mult()
    return _circles(car, 3, [(0, m, w), (0, w, m), (0, w, w)])


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

    def compose_into(self, out, s, f, j, g):
        self.base.compose_into(out, -s if j == 2 else s, f, j, g)

    def __getattr__(self, attr):
        return getattr(self.base, attr)
