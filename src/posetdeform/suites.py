"""Randomized verification suites for cochain carriers.

Each suite draws seeded random elements over a grid of degree pairs and
asserts a family of exact identities: the partial-composition axioms
(operad_suite), the brace identity with its insertion sign
(brace_suite), the differential graded algebra laws including the
two-argument product compatibility (hga_suite), the differential
graded Lie laws derived from the circle product (dgla_suite), and the
isomorphism with the relative Hochschild operad (gsiso.verify_morphism).
SUITES registers all five under one signature, suite(car, samples, seed,
max_degree).  All comparisons are exact and all go through
SuiteReport.same (two sides agree) or SuiteReport.vanishes (one side is
zero); a mismatch is recorded as a Failure with the first differing
chain.

The generator is split per degree pair as Random("seed:suite:p:q"), so
reports are reproducible and independent of iteration order changes
elsewhere.  A suite checks whatever carrier it is given; passed
opcore.SignFlip(car), which flips the sign of every insertion into
slot 2, a sound suite must report failures (sensitivity check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .opcore import (
    brace,
    bracket,
    circle,
    differential,
    differential_unshifted,
    dot,
    gamma,
    signed,
)
from .simplicial import SimpCochain

MAX_RECORDED_FAILURES = 25


@dataclass
class Failure:
    check: str
    degrees: tuple
    witness: str

    def to_dict(self):
        return {
            "check": self.check,
            "degrees": list(self.degrees),
            "witness": self.witness,
        }


@dataclass
class SuiteReport:
    suite: str
    poset: str
    samples: int
    seed: int
    checks: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name, degrees, ok, witness):
        """Count one comparison; record a Failure when it missed.

        witness is a thunk that names where the two sides differ; it is
        only called for a recorded failure, so locating the differing
        chain costs nothing when the check passes."""
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(Failure(name, tuple(degrees), witness()))
        return ok

    def same(self, car, name, degrees, lhs, rhs):
        """Check that lhs equals rhs on car (zeros of any arity agree)."""
        return self.check(name, degrees, agree(car, lhs, rhs),
                          partial(_witness, car, lhs, rhs))

    def vanishes(self, car, name, degrees, x):
        """Check that x is zero on car."""
        return self.check(name, degrees, x.is_zero(),
                          partial(_witness, car, x, SimpCochain(x.degree)))

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
            "failures": [f.to_dict() for f in self.failures],
        }


def agree(car, a, b):
    """Equality that tolerates differently-clamped arities of zero."""
    if a.degree != b.degree:
        return a.is_zero() and b.is_zero()
    return a == b


def _witness(car, a, b):
    if a.degree != b.degree:
        return "arity %d vs %d" % (a.degree, b.degree)
    return car.diff_witness(a, b)


def _zsum(terms):
    """Sum skipping zeros, so clamped-arity zeros never poison add."""
    acc = None
    for t in terms:
        if t.is_zero():
            continue
        acc = t if acc is None else acc + t
    return SimpCochain(0) if acc is None else acc


def _rng_for(seed, suite, p, q):
    return random.Random("%s:%s:%d:%d" % (seed, suite, p, q))


def _grid(max_degree):
    return [(p, q) for p in range(max_degree + 1) for q in range(max_degree + 1)]


def operad_suite(car, samples=25, seed=0, max_degree=3):
    """Two-sided unit laws and May associativity of partial composition."""
    rep = SuiteReport("operad", car.poset.name, samples, seed)
    ident = car.identity()
    m = car.mult()

    rep.vanishes(car, "mult-square", (2, 2), circle(car, m, m))

    for p, q in _grid(max_degree):
        rng = _rng_for(seed, "operad", p, q)
        for _ in range(samples):
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
            terms.append(signed(eps, brace(car, x, args)))
            return
        for i in range(start, n + 1):
            e = eps + (xs[p].degree - 1) * sum(sy[:i])
            for j in range(i, n + 1):
                inner = brace(car, xs[p], ys[i:j])
                place(p + 1, j, args + ys[start:i] + [inner], e)

    place(0, 0, [], 0)
    return _zsum(terms)


def brace_suite(car, samples=25, seed=0, max_degree=3):
    """x{} = x and the brace composition identity for one or two inner
    arguments against up to two outer arguments."""
    rep = SuiteReport("brace", car.poset.name, samples, seed)
    for p, q in _grid(max_degree):
        rng = _rng_for(seed, "brace", p, q)
        for _ in range(samples):
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
    for p, q in _grid(max_degree):
        rng = _rng_for(seed, "hga", p, q)
        for _ in range(samples):
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
                terms.append(signed(y.degree * sum(sy[:i]), t))
            rep.same(car, "dot-brace[n=%d]" % n_ct, (p, q),
                     lhs, _zsum(terms))

            rep.vanishes(car, "d-squared", (p,), differential(car, dx))

            lhs = differential_unshifted(car, xy)
            right = signed(x.degree, dot(car, x, differential_unshifted(car, y)))
            rhs = _zsum([dot(car, -dx, y), right])
            rep.same(car, "leibniz-dot", (p, q), lhs, rhs)
    return rep


def dgla_suite(car, samples=25, seed=0, max_degree=3):
    """Lie laws of the circle-product commutator on shifted degrees."""
    rep = SuiteReport("dgla", car.poset.name, samples, seed)
    m = car.mult()

    rep.vanishes(car, "d-mult", (2,), differential(car, m))
    rep.vanishes(car, "bracket-mult", (2, 2), bracket(car, m, m))

    for p, q in _grid(max_degree):
        rng = _rng_for(seed, "dgla", p, q)
        sp, sq = p - 1, q - 1
        for _ in range(samples):
            f = car.random_elem(p, rng)
            g = car.random_elem(q, rng)
            r = rng.randint(0, min(2, max_degree))
            h = car.random_elem(r, rng)
            sr = r - 1

            fg = bracket(car, f, g)
            gf = signed(sp * sq, bracket(car, g, f))
            rep.vanishes(car, "antisymmetry", (p, q), _zsum([fg, gf]))

            lhs = _associator(car, f, g, h)
            rhs = signed(sq * sr, _associator(car, f, h, g))
            rep.same(car, "prelie-symmetry", (p, q, r), lhs, rhs)

            t1 = signed(sp * sr, bracket(car, fg, h))
            t2 = signed(sq * sp, bracket(car, bracket(car, g, h), f))
            t3 = signed(sr * sq, bracket(car, bracket(car, h, f), g))
            rep.vanishes(car, "jacobi", (p, q, r), _zsum([t1, t2, t3]))

            lhs = differential(car, fg)
            right = signed(sp, bracket(car, f, differential(car, g)))
            rhs = _zsum([bracket(car, differential(car, f), g), right])
            rep.same(car, "leibniz-bracket", (p, q), lhs, rhs)
    return rep


def _associator(car, f, g, h):
    left = circle(car, f, circle(car, g, h))
    right = circle(car, circle(car, f, g), h)
    return _zsum([left, -right])


# gsiso builds the iso suite on SuiteReport, _grid and _rng_for above, so
# it is imported only now (the package imports suites before gsiso)
from .gsiso import verify_morphism  # noqa: E402

SUITES = {
    "operad": operad_suite,
    "brace": brace_suite,
    "hga": hga_suite,
    "dgla": dgla_suite,
    "iso": verify_morphism,
}
