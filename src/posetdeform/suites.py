"""Randomized verification suites for cochain carriers.

Each suite draws seeded random elements over a grid of degree pairs and
asserts a family of exact identities: the partial-composition axioms
(operad_suite), the brace identity with its insertion sign
(brace_suite), the differential graded algebra laws including the
two-argument product compatibility (hga_suite), the differential
graded Lie laws derived from the circle product (dgla_suite), and the
isomorphism with the relative Hochschild operad (gsiso.verify_morphism,
which adds itself to SUITES as "iso").  SUITES registers all five under
one signature, suite(car, samples, seed, max_degree), with the top chain
level each can read as suite.reads(max_degree).  All comparisons
are exact and all go through SuiteReport.same (two sides are ==, degree
included: every opcore operation gives its formula degree, zeros too) or
SuiteReport.vanishes (one side is zero); a mismatch is recorded as the
{check, degrees, witness} dict that SuiteReport.to_dict reports, its
witness naming the first differing chain.

Every suite draws its trials from SuiteReport.trials, which splits the
generator per degree pair as Random("seed:suite:p:q"), so reports are
reproducible and independent of iteration order changes elsewhere.  A
suite checks whatever carrier it is given; passed opcore.SignFlip(car),
which flips the sign of every insertion into slot 2, a sound suite must
report failures (sensitivity check).
"""

import random
from functools import partial

from .opcore import (
    brace,
    bracket,
    circle,
    differential,
    dot,
    gamma,
    signed,
)
from .simplicial import SimpCochain

MAX_RECORDED_FAILURES = 25


class SuiteReport:
    """The tally of one suite run on one poset.  failures holds the first
    MAX_RECORDED_FAILURES misses as the dicts that to_dict reports,
    {"check": name, "degrees": [...], "witness": text}."""

    def __init__(self, suite, poset, samples, seed):
        self.suite, self.poset, self.samples, self.seed = suite, poset, samples, seed
        self.checks = self.failed = 0
        self.failures = []

    def trials(self, max_degree):
        """(p, q, rng) once per sample for each degree pair, p-major, with
        one generator Random("seed:suite:p:q") per pair."""
        for p in range(max_degree + 1):
            for q in range(max_degree + 1):
                rng = random.Random("%s:%s:%d:%d" % (self.seed, self.suite, p, q))
                for _ in range(self.samples):
                    yield p, q, rng

    def check(self, name, degrees, ok, witness):
        """Count one comparison; record a failure when it missed.

        witness is a thunk that names where the two sides differ; it is
        only called for a recorded failure, so locating the differing
        chain costs nothing when the check passes."""
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(
                    {"check": name, "degrees": list(degrees), "witness": witness()}
                )
        return ok

    def same(self, car, name, degrees, lhs, rhs):
        """Check that lhs equals rhs on car, degree included."""
        return self.check(name, degrees, agree(car, lhs, rhs),
                          partial(car.diff_witness, lhs, rhs))

    def vanishes(self, car, name, degrees, x):
        """Check that x is zero on car."""
        return self.check(name, degrees, x.is_zero(),
                          partial(car.diff_witness, x, SimpCochain._of(x.degree, {})))

    @property
    def ok(self):
        return self.failed == 0

    def to_dict(self):
        return {
            "suite": self.suite,
            "poset": self.poset,
            "samples": self.samples,
            "seed": self.seed,
            "checks": self.checks,
            "failed": self.failed,
            "ok": self.ok,
            "failures": [dict(f) for f in self.failures],
        }


def agree(car, a, b):
    """a == b: every operation gives its formula degree, zeros included."""
    return a == b


def _signed_sum(terms):
    """The sum of (-1)**e x over nonempty terms (e, x), all x of one degree."""
    return SimpCochain.lincomb(terms[0][1].degree, terms)


def operad_suite(car, samples=25, seed=0, max_degree=3):
    """Two-sided unit laws and May associativity of partial composition."""
    rep = SuiteReport("operad", car.poset.name, samples, seed)
    ident = car.identity()
    m = car.mult()

    rep.vanishes(car, "mult-square", (2, 2), circle(car, m, m))

    for p, q, rng in rep.trials(max_degree):
        f = car.random_elem(p, rng)
        g = car.random_elem(q, rng)

        for j in range(1, p + 1):
            rep.same(car, "unit-right[%d]" % j, (p,),
                     car.compose_at(f, j, ident), f)
        rep.same(car, "unit-left", (p,), car.compose_at(ident, 1, f), f)
        if p >= 1:
            rep.same(car, "unit-gamma", (p,),
                     gamma(car, f, [ident] * p), f)

        if p < 1:
            continue
        # composite degree p+q+r-2 drives the cost; keep h small
        r = rng.randint(0, min(2, max_degree))
        h = car.random_elem(r, rng)
        for i in range(1, p + 1):
            fg = car.compose_at(f, i, g)
            for j in range(1, p + q):
                lhs = car.compose_at(fg, j, h)
                if j < i:
                    # h lands left of g's block
                    rhs = car.compose_at(
                        car.compose_at(f, j, h), i + r - 1, g
                    )
                elif j <= i + q - 1:
                    # h lands inside g
                    rhs = car.compose_at(
                        f, i, car.compose_at(g, j - i + 1, h)
                    )
                else:
                    # h lands right of g's block
                    rhs = car.compose_at(
                        car.compose_at(f, j - q + 1, h), i, g
                    )
                rep.same(car, "assoc[i=%d,j=%d]" % (i, j), (p, q, r),
                         lhs, rhs)
    return rep


def _brace_rhs(car, x, xs, ys):
    """Right side of the brace identity: all ordered ways to feed
    consecutive runs of ys into the xs and the rest into x directly."""
    n = len(ys)
    sy = [y.degree - 1 for y in ys]
    terms = []

    def place(p, start, args, eps):
        if p == len(xs):
            args = args + ys[start:]
            terms.append((eps, brace(car, x, args)))
            return
        for i in range(start, n + 1):
            e = eps + (xs[p].degree - 1) * sum(sy[:i])
            for j in range(i, n + 1):
                inner = brace(car, xs[p], ys[i:j])
                place(p + 1, j, args + ys[start:i] + [inner], e)

    place(0, 0, [], 0)
    return _signed_sum(terms)


def brace_suite(car, samples=25, seed=0, max_degree=3):
    """x{} = x and the brace composition identity for one or two inner
    arguments against up to two outer arguments."""
    rep = SuiteReport("brace", car.poset.name, samples, seed)
    for p, q, rng in rep.trials(max_degree):
        x = car.random_elem(p, rng)
        rep.same(car, "brace-empty", (p,), brace(car, x, []), x)

        # one (m, n) shape per sample; the rng walks all six shapes
        # across a run.  Extra elements stay at degree <= 1 so the
        # nested-brace composite degree stays small.
        m_ct = rng.randint(1, 2)
        n_ct = rng.randint(0, 2)
        xs = [car.random_elem(q, rng)]
        if m_ct == 2:
            xs.append(car.random_elem(rng.randint(0, 1), rng))
        ys = [car.random_elem(rng.randint(0, 1), rng) for _ in range(n_ct)]
        rep.same(car, "brace-identity[m=%d,n=%d]" % (m_ct, n_ct), (p, q),
                 brace(car, brace(car, x, xs), ys),
                 _brace_rhs(car, x, xs, ys))
    return rep


def hga_suite(car, samples=25, seed=0, max_degree=3):
    """DGA laws: associativity of dot, the product-brace interchange for
    up to two arguments, d squared zero, and the Leibniz rule of the
    unshifted differential over dot."""
    rep = SuiteReport("hga", car.poset.name, samples, seed)
    for p, q, rng in rep.trials(max_degree):
        x = car.random_elem(p, rng)
        y = car.random_elem(q, rng)
        r = rng.randint(0, min(2, max_degree))
        z = car.random_elem(r, rng)

        xy, dx = dot(car, x, y), differential(car, x)
        rep.same(car, "dot-assoc", (p, q, r),
                 dot(car, xy, z), dot(car, x, dot(car, y, z)))

        n_ct = rng.randint(0, 2)
        ys = [car.random_elem(rng.randint(0, 1), rng)
              for _ in range(n_ct)]
        sy = [w.degree - 1 for w in ys]
        lhs = brace(car, xy, ys)
        terms = []
        for i in range(n_ct + 1):
            t = dot(car, brace(car, x, ys[:i]), brace(car, y, ys[i:]))
            terms.append((y.degree * sum(sy[:i]), t))
        rep.same(car, "dot-brace[n=%d]" % n_ct, (p, q),
                 lhs, _signed_sum(terms))

        rep.vanishes(car, "d-squared", (p,), differential(car, dx))

        lhs = -differential(car, xy)  # the unshifted differential
        right = dot(car, x, -differential(car, y))
        rhs = _signed_sum([(1, dot(car, dx, y)), (x.degree, right)])
        rep.same(car, "leibniz-dot", (p, q), lhs, rhs)
    return rep


def dgla_suite(car, samples=25, seed=0, max_degree=3):
    """Lie laws of the circle-product commutator on shifted degrees."""
    rep = SuiteReport("dgla", car.poset.name, samples, seed)
    m = car.mult()

    rep.vanishes(car, "d-mult", (2,), differential(car, m))
    rep.vanishes(car, "bracket-mult", (2, 2), bracket(car, m, m))

    for p, q, rng in rep.trials(max_degree):
        f = car.random_elem(p, rng)
        g = car.random_elem(q, rng)
        r = rng.randint(0, min(2, max_degree))
        h = car.random_elem(r, rng)
        sp, sq, sr = p - 1, q - 1, r - 1

        fg = bracket(car, f, g)
        gf = bracket(car, g, f)
        rep.vanishes(car, "antisymmetry", (p, q), _signed_sum([(0, fg), (sp * sq, gf)]))

        lhs = _associator(car, f, g, h)
        rhs = signed(sq * sr, _associator(car, f, h, g))
        rep.same(car, "prelie-symmetry", (p, q, r), lhs, rhs)

        t1 = (sp * sr, bracket(car, fg, h))
        t2 = (sq * sp, bracket(car, bracket(car, g, h), f))
        t3 = (sr * sq, bracket(car, bracket(car, h, f), g))
        rep.vanishes(car, "jacobi", (p, q, r), _signed_sum([t1, t2, t3]))

        lhs = differential(car, fg)
        right = bracket(car, f, differential(car, g))
        rhs = _signed_sum([(0, bracket(car, differential(car, f), g)), (sp, right)])
        rep.same(car, "leibniz-bracket", (p, q), lhs, rhs)
    return rep


def _associator(car, f, g, h):
    left = circle(car, f, circle(car, g, h))
    right = circle(car, circle(car, f, g), h)
    return _signed_sum([(0, left), (1, right)])


SUITES = {
    "operad": operad_suite,
    "brace": brace_suite,
    "hga": hga_suite,
    "dgla": dgla_suite,
}
# suite.reads(max_degree): the top chain level a suite can read, random
# elements and every intermediate composite included
operad_suite.reads = lambda d: max(3, 2 * d + min(2, d) - 2)  # m o m, (f o_i g) o_j h
brace_suite.reads = lambda d: max(1, 2 * d - 1)  # x{xs}{ys}, later arguments of degree <= 1
hga_suite.reads = lambda d: max(d + 2, 2 * d + max(1, min(2, d)))  # dot(dot(x, y), z), d(dx)
dgla_suite.reads = lambda d: max(3, 2 * d)  # d(m), d[f, g]
