"""Incidence-algebra helpers that only the tests use: the unit, the sum,
a scalar multiple and a reference product of elements of kP (coefficient
dicts {(i, j): nonzero scalar}), and the inclusion of relative cochains
into the full Hochschild complex."""

from fractions import Fraction

from posetdeform.hochschild import _accumulate
from posetdeform.simplicial import SimpCochain


def inc_unit(poset):
    """The algebra unit: the sum of all diagonal idempotents."""
    return {(i, i): Fraction(1) for i in range(poset.n)}


def inc_add(a, b):
    """a + b; scalars that do not add (a Fraction and a series, series of
    different orders) raise as their own + does."""
    out = dict(a)
    for ij, v in b.items():
        _accumulate(out, ij, v)
    return out


def inc_scale(a, c):
    """c * a, dropping the terms that vanish."""
    return {ij: nv for ij, v in a.items() if (nv := c * v)}


def inc_mul(a, b):
    """a * b term by term, E[i, j] E[j, k] = E[i, k] and all other basis
    products zero: a reference for the product that rel_eval computes
    with the relative mult()."""
    out = {}
    for (i, j), x in a.items():
        for (jj, k), y in b.items():
            if j == jj:
                _accumulate(out, (i, k), x * y)
    return out


def include_relative(f):
    """The inclusion of relative cochains into the full complex: the
    value on a weak chain c goes to the key of c's intervals followed by
    (c[0], c[-1]); a degree-0 (x,) goes to ((x, x),), as in as_element."""
    return SimpCochain._of(
        f.degree,
        {tuple(zip(c, c[1:])) + ((c[0], c[-1]),): v for c, v in f.values.items()},
        f.den,
    )
