"""Two routes of hochschild as they were before they were made faster,
kept as references.

transpose builds the transposed Hochschild differentials of hh_dims the
way they were built before unit keys were packed into blocks: one
opcore.differential per unit key, row k of the transpose of d_n read off
d of the k-th unit cochain.  Rows and columns are indexed as hh_dims
indexes them, by weak or strict chain for the relative carrier and, for
the full one, by the lexicographic place of the key among all tuples of
intervals, which is its mixed-radix index.

structure derives a relative structure constant the way
RelHochschildCarrier._structure did before it kept its evaluations:
two fresh rel_eval calls for every output chain."""

from itertools import product

from posetdeform import hochschild
from posetdeform.linalg import SparseMat
from posetdeform.opcore import differential
from posetdeform.simplicial import SimpCochain


def unit_keys(car, n, strict=False):
    """The unit keys of degree n of the carrier, in row order: for the
    relative one the weak chains, or the strict ones if strict."""
    if car.name == "relative":
        return car.poset.chains(n, strict)
    return list(product(car.poset.intervals(), repeat=n + 1))


def transpose(car, n, skip=frozenset(), strict=False):
    """The transpose of d_n, the rows in skip left empty."""
    keys = unit_keys(car, n, strict)
    col = {key: c for c, key in enumerate(unit_keys(car, n + 1, strict))}
    m = SparseMat(len(keys), len(col))
    for k, key in enumerate(keys):
        if k in skip:
            continue
        df = differential(car, SimpCochain._of(n, {key: 1}))
        for out, v in df.values.items():
            m.set(k, col[out], v)
    return m


def structure(j, q, c):
    """k with delta_a o_j delta_b = k delta_c, a = c[:j] + c[j+q-1:] and
    b = c[j-1:j+q]: delta_b on b's part u[j-1:j-1+q] of c's basis tuple u
    (for q = 0, the diagonal E[x, x]) fills slot j among the rest of u,
    delta_a is evaluated there, and k is read at (c[0], c[-1]).  It calls
    rel_eval and as_element through hochschild's module globals, so a
    doctored one reaches it as it reaches the carrier."""
    u = [{xy: 1} for xy in zip(c, c[1:])]
    delta_b = SimpCochain._of(q, {c[j - 1 : j + q]: 1})
    if q:
        inner = hochschild.rel_eval(delta_b, u[j - 1 : j - 1 + q])
    else:
        inner = hochschild.as_element(delta_b)
    delta_a = SimpCochain._of(len(c) - q, {c[:j] + c[j + q - 1 :]: 1})
    got = hochschild.rel_eval(delta_a, u[: j - 1] + [inner] + u[j - 1 + q :])
    return got.get((c[0], c[-1]), 0)
