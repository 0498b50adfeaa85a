"""The transposed Hochschild differentials of hochschild.hh_dims built
the way they were before unit keys were packed into blocks: one
opcore.differential per unit key, row k of the transpose of d_n read off
d of the k-th unit cochain.  Rows and columns are indexed as hh_dims
indexes them, by weak chain for the relative carrier and, for the full
one, by the lexicographic place of the key among all tuples of
intervals, which is its mixed-radix index."""

from itertools import product

from posetdeform.linalg import SparseMat
from posetdeform.opcore import differential
from posetdeform.simplicial import SimpCochain


def unit_keys(car, n):
    """The unit keys of degree n of the carrier, in row order."""
    if car.name == "relative":
        return car.poset.chains(n)
    return list(product(car.poset.intervals(), repeat=n + 1))


def transpose(car, n, skip=frozenset()):
    """The transpose of d_n, the rows in skip left empty."""
    keys, col = unit_keys(car, n), {key: c for c, key in enumerate(unit_keys(car, n + 1))}
    m = SparseMat(len(keys), len(col))
    for k, key in enumerate(keys):
        if k in skip:
            continue
        df = differential(car, SimpCochain._of(n, {key: 1}))
        for out, v in df.values.items():
            m.set(k, col[out], v)
    return m
