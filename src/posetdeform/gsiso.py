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

Importing this module registers verify_morphism as the "iso" suite of
suites.SUITES (the package imports it, so SUITES always holds all five).
Like the other four, it draws its trials from SuiteReport.trials and
records each check through SuiteReport.same.  Passed
opcore.SignFlip(car), it compares a doctored simplicial side against the
undoctored relative carrier, and a sound suite must report failures.
"""

from .hochschild import RelHochschildCarrier
from .opcore import brace, bracket, differential, dot, gamma
from .suites import SUITES, SuiteReport


def phi(x):
    """The paper's phi: simplicial cochain -> relative Hochschild cochain.
    Both are one scalar per weak chain, so phi returns its argument; it
    marks which side of each comparison below is carried across."""
    return x


def verify_morphism(car, samples=25, seed=0, max_degree=3):
    """Check that phi intertwines every operadic structure map between
    the simplicial carrier car and the relative carrier on its poset.

    Runs `samples` random trials for each degree pair (p, q) with
    0 <= p, q <= max_degree, comparing phi(op(x, y)) against
    op(phi(x), phi(y)) for insertion, full composition, the
    differential, the product, the bracket, and one- and two-argument
    braces.
    """
    sim = car
    rel = RelHochschildCarrier(car.poset)
    rep = SuiteReport("iso", car.poset.name, samples, seed)

    rep.same(rel, "phi(identity)", (1,), phi(sim.identity()), rel.identity())
    rep.same(rel, "phi(mult)", (2,), phi(sim.mult()), rel.mult())

    for p, q, rng in rep.trials(max_degree):
        x = sim.random_elem(p, rng)
        y = sim.random_elem(q, rng)
        fx = phi(x)
        fy = phi(y)

        for j in range(1, p + 1):
            rep.same(rel, "compose_at[%d]" % j, (p, q),
                     phi(sim.compose_at(x, j, y)),
                     rel.compose_at(fx, j, fy))

        if 1 <= p <= 2:
            ys = [y] + [sim.random_elem(q, rng) for _ in range(p - 1)]
            rep.same(rel, "gamma", (p, q),
                     phi(gamma(sim, x, ys)),
                     gamma(rel, fx, [phi(z) for z in ys]))

        rep.same(rel, "differential", (p,),
                 phi(differential(sim, x)), differential(rel, fx))
        rep.same(rel, "dot", (p, q),
                 phi(dot(sim, x, y)), dot(rel, fx, fy))
        rep.same(rel, "bracket", (p, q),
                 phi(bracket(sim, x, y)), bracket(rel, fx, fy))
        rep.same(rel, "brace1", (p, q),
                 phi(brace(sim, x, [y])), brace(rel, fx, [fy]))

        r = rng.randint(0, max_degree)
        z = sim.random_elem(r, rng)
        rep.same(rel, "brace2", (p, q, r),
                 phi(brace(sim, x, [y, z])),
                 brace(rel, fx, [fy, phi(z)]))
    return rep


SUITES["iso"] = verify_morphism
verify_morphism.reads = lambda d: max(2, 2 * d, 3 * d - 2)  # mult, x . y, x{y, z}
