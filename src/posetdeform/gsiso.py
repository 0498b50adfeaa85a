"""The isomorphism between simplicial cochains and relative Hochschild
cochains of a poset.

Both operads are spanned by weak chains.  The paper's map phi sends a
simplicial n-cochain with value v on the chain (i0, ..., in) to the
relative cochain sending (E[i0,i1], ..., E[i_{n-1},in]) to v * E[i0,in].
Both sides store exactly that data, one scalar per weak chain
(simplicial.SimpCochain), so phi is the identity on data and so is its
inverse.  What makes it worth verifying is that the two carriers compose
that data in unrelated ways (face restriction of chains vs evaluation in
the incidence algebra), so phi commuting with every operation is a
genuine theorem about the poset, checked here on random cochains.

verify_morphism is the "iso" suite of suites.SUITES.  It drives the
checks over a grid of degree pairs with a deterministically seeded
generator, and can deliberately break one slot of the relative
composition (mutate=True) to demonstrate that the suite has teeth.
"""

from __future__ import annotations

import random

from .hochschild import RelHochschildCarrier
from .opcore import (
    SignFlip,
    brace_or_zero,
    bracket,
    differential,
    dot,
    gamma,
)
from .suites import SuiteReport, _witness, agree


def phi(x):
    """The paper's phi: simplicial cochain -> relative Hochschild cochain.
    Both are one scalar per weak chain, so phi returns its argument; it
    marks which side of each comparison below is carried across."""
    return x


def verify_morphism(car, samples=25, seed=0, max_degree=3, mutate=False):
    """Check that phi intertwines every operadic structure map between
    the simplicial carrier car and the relative carrier on its poset.

    Runs `samples` random trials for each degree pair (p, q) with
    0 <= p, q <= max_degree, comparing phi(op(x, y)) against
    op(phi(x), phi(y)) for insertion, full composition, the
    differential, the product, the bracket, and one- and two-argument
    braces.  mutate=True flips a sign in the relative carrier's slot-2
    insertion, which a sound suite must flag.
    """
    sim = car
    rel = RelHochschildCarrier(car.poset)
    if mutate:
        rel = SignFlip(rel)
    rep = SuiteReport(
        suite="iso", poset=car.poset.name, samples=samples, seed=seed
    )

    _cmp(rep, rel, phi(sim.identity()), rel.identity(), "phi(identity)", (1,))
    _cmp(rep, rel, phi(sim.mult()), rel.mult(), "phi(mult)", (2,))

    for p in range(max_degree + 1):
        for q in range(max_degree + 1):
            rng = random.Random("%s:iso:%d:%d" % (seed, p, q))
            for _ in range(samples):
                x = sim.random_elem(p, rng)
                y = sim.random_elem(q, rng)
                fx = phi(x)
                fy = phi(y)

                for j in range(1, p + 1):
                    _cmp(
                        rep, rel,
                        phi(sim.compose_at(x, j, y)),
                        rel.compose_at(fx, j, fy),
                        "compose_at[%d]" % j, (p, q),
                    )

                if 1 <= p <= 2:
                    ys = [y] + [sim.random_elem(q, rng) for _ in range(p - 1)]
                    _cmp(
                        rep, rel,
                        phi(gamma(sim, x, ys)),
                        gamma(rel, fx, [phi(z) for z in ys]),
                        "gamma", (p, q),
                    )

                _cmp(rep, rel, phi(differential(sim, x)),
                     differential(rel, fx), "differential", (p,))
                _cmp(rep, rel, phi(dot(sim, x, y)),
                     dot(rel, fx, fy), "dot", (p, q))
                _cmp(rep, rel, phi(bracket(sim, x, y)),
                     bracket(rel, fx, fy), "bracket", (p, q))
                _cmp(rep, rel, phi(brace_or_zero(sim, x, [y])),
                     brace_or_zero(rel, fx, [fy]), "brace1", (p, q))

                r = rng.randint(0, max_degree)
                z = sim.random_elem(r, rng)
                _cmp(rep, rel, phi(brace_or_zero(sim, x, [y, z])),
                     brace_or_zero(rel, fx, [fy, phi(z)]),
                     "brace2", (p, q, r))
    return rep


def _cmp(rep, car, lhs, rhs, check, degrees):
    ok = agree(car, lhs, rhs)
    rep.check(check, degrees, ok, lambda: _witness(car, lhs, rhs))
