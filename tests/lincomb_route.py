"""The signed sums of opcore built the way they were before compose_sum:
one compose_at per slot, each reduced by its own gcd, then merged by
SimpCochain.lincomb.  The tests compare opcore's one-pass sums against
these on every carrier; the bodies are the earlier opcore code, renamed."""

from itertools import combinations

from posetdeform.opcore import signed
from posetdeform.simplicial import SimpCochain


def brace(car, x, args):
    args = list(args)
    if not args:
        return x
    m = x.degree
    if len(args) > m:
        return SimpCochain._of(m + sum(a.degree - 1 for a in args), {})
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
    return brace(car, f, [g])


def dot(car, x, y):
    return signed(x.degree, brace(car, car.mult(), [x, y]))


def differential(car, x):
    left = circle(car, car.mult(), x)
    return SimpCochain.lincomb(left.degree, [(0, left), (x.degree, circle(car, x, car.mult()))])


def bracket(car, f, g):
    fg = circle(car, f, g)
    e = (f.degree - 1) * (g.degree - 1) + 1
    return SimpCochain.lincomb(fg.degree, [(0, fg), (e, circle(car, g, f))])


def curvature(car, w):
    """mc_check's defect dW + W o W as mc_check summed it before."""
    return differential(car, w) + circle(car, w, w)
