"""Incidence-algebra helpers that only the tests use: the unit, the sum
of two elements and the inclusion of relative cochains into the full
Hochschild complex."""

from fractions import Fraction

from posetdeform.hochschild import IncElem, _accumulate
from posetdeform.simplicial import SimpCochain


def inc_unit(poset):
    """The algebra unit: the sum of all diagonal idempotents."""
    return IncElem({(i, i): Fraction(1) for i in range(poset.n)})


def inc_add(a, b):
    """a + b; scalars that do not add (a Fraction and a series, series of
    different orders) raise as their own + does."""
    out = dict(a.terms)
    for ij, v in b.terms.items():
        _accumulate(out, ij, v)
    return IncElem._of(out)


def include_relative(f):
    """The inclusion of relative cochains into the full complex: the
    value on a weak chain c goes to the key of c's intervals followed by
    (c[0], c[-1]); a degree-0 (x,) goes to ((x, x),), as in as_element."""
    return SimpCochain._of(
        f.degree,
        {tuple(zip(c, c[1:])) + ((c[0], c[-1]),): v for c, v in f.values.items()},
        f.den,
    )
