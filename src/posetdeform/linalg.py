"""Sparse exact linear algebra over the rationals.

Fraction-free Gaussian elimination over the integers, with the pivot
rule of elimination over Q: columns are processed left to right and the
pivot is the live row of smallest index with a nonzero entry in the
current column.  Same matrix, same answer, always.  Rank, a kernel basis,
and image membership with an explicit Fraction witness are all computed
this way.  Nothing here ever touches a float: a float entry or right-hand
side raises TypeError (scalars.rational).

The ranks of a cochain complex come from one pass, chain_ranks, that
clears before it eliminates (the twist of Chen and Kerber, "Persistent
homology computation with a twist", 2011): the pivot columns of one
differential index rows the next one need not have, since the composite
of the two is zero.  Same pivot rule, same ranks, fewer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import rational

F0 = Fraction(0)
F1 = Fraction(1)


class SparseMat:
    """Sparse matrix over Fraction: entries maps (row, col) -> value."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    def set(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("entry (%d, %d) out of shape" % (r, c))
        v = v if isinstance(v, Fraction) else Fraction(rational(v))
        if v == 0:
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    def __repr__(self):
        return "SparseMat(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def _eliminate(mat, rhs=None):
    """Forward elimination.  Returns (pivots, rowmap) where pivots is a
    list of (col, row) in column order and rowmap holds the surviving row
    dictionaries (col -> int, with the optional right-hand side stored
    under key BCOL).  Unpivoted rows end up empty except possibly BCOL.
    Rows are cleared of denominators, then only replaced by scale*row -
    factor*prow with scale > 0: each stays a nonzero multiple of its row over Q.
    """
    BCOL = mat.cols  # sentinel column index for the rhs
    rowmap = {}
    colrows = {}
    for (r, c), v in mat.entries.items():
        row = rowmap.get(r)
        if row is None:
            row = rowmap[r] = {}
        row[c] = v
        s = colrows.get(c)
        if s is None:
            s = colrows[c] = set()
        s.add(r)
    if rhs is not None:
        for r, v in enumerate(rhs):
            if v:
                rowmap.setdefault(r, {})[BCOL] = v
    for row in rowmap.values():
        den = lcm(*[v.denominator for v in row.values()])
        for c, v in row.items():
            row[c] = v.numerator * (den // v.denominator)

    pivots = []
    pivoted = set()
    for c in range(mat.cols):
        live = colrows.get(c)
        if not live:
            continue
        cand = [r for r in live if r not in pivoted]
        if not cand:
            continue
        pr = min(cand)
        pivots.append((c, pr))
        pivoted.add(pr)
        prow = rowmap[pr]
        pval = prow[c]
        for r in sorted(live):
            if r == pr or r in pivoted:
                continue
            row = rowmap[r]
            a = row[c]
            g = gcd(a, pval) if pval > 0 else -gcd(a, pval)
            scale, factor = pval // g, a // g
            if scale != 1:
                for cc in row:
                    row[cc] *= scale
            for cc, vv in prow.items():
                nv = row.get(cc, 0) - factor * vv
                if nv == 0:
                    row.pop(cc, None)
                    if cc != BCOL:
                        cs = colrows.get(cc)
                        if cs is not None:
                            cs.discard(r)
                else:
                    if cc not in row and cc != BCOL:
                        colrows.setdefault(cc, set()).add(r)
                    row[cc] = nv
    return pivots, rowmap


def _back_substitute(pivots, rowmap, x):
    """Solve the pivot rows of an elimination for their pivot coordinates
    of x, right to left, given its free coordinates; a row's right-hand
    side, if any, sits in column len(x)."""
    cols = len(x)
    for c, r in reversed(pivots):
        row = rowmap[r]
        s = Fraction(row.get(cols, 0))
        for cc, vv in row.items():
            if cc != c and cc < cols:
                xv = x[cc]
                if xv:
                    s -= vv * xv
        x[c] = s / row[c]
    return x


def rank_kernel(mat, elim=None):
    """Rank and an exact kernel basis.  Kernel vectors are built one per
    free column by back substitution; they are linearly independent by
    construction (each has a 1 in its own free coordinate).  elim is
    _eliminate(mat) when the caller already has it."""
    pivots, rowmap = elim if elim is not None else _eliminate(mat)
    pivot_cols = {c for c, _ in pivots}
    kernel = []
    for fc in range(mat.cols):
        if fc not in pivot_cols:
            x = [F0] * mat.cols
            x[fc] = F1
            kernel.append(_back_substitute(pivots, rowmap, x))
    return len(pivots), kernel


def rank(mat):
    pivots, _ = _eliminate(mat)
    return len(pivots)


def chain_ranks(count, matrix):
    """The ranks of M_0, ..., M_{count-1}, where M_t M_{t+1} = 0 and the
    rows of M_{t+1} are indexed like the columns of M_t.  matrix(t, skip)
    builds M_t, leaving out (empty) the rows whose index is in skip: the
    pivot columns of M_{t-1}.

    Dropping them keeps the rank.  Column-wise elimination takes a column
    as pivot exactly when it is independent of the columns before it, so
    the pivot columns P of M_{t-1} are linearly independent.  A vector of
    the image of M_t lies in the kernel of M_{t-1}; if it is supported on
    P it is a vanishing combination of those columns, hence 0.  So the
    image of M_t meets the span of the coordinates in P only in 0, and the
    projection that forgets them is one-to-one on it."""
    ranks, skip = [], frozenset()
    for t in range(count):
        pivots, _ = _eliminate(matrix(t, skip))
        ranks.append(len(pivots))
        skip = frozenset(c for c, _ in pivots)
    return ranks


def dims_from_ranks(sizes, ranks):
    """Cohomology dimensions of a cochain complex with sizes[n] cochains
    in degree n and a differential of rank ranks[n] out of degree n:
    dim H^n = sizes[n] - ranks[n] - ranks[n-1]."""
    return [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(len(sizes))]


def solve_in_image(mat, b):
    """A witness x with mat*x == b, or None when b is not in the image.

    None is the normal negative answer here, not an error.  The witness is
    the deterministic particular solution with all free variables zero."""
    if len(b) != mat.rows:
        raise ValueError("rhs length %d != %d rows" % (len(b), mat.rows))
    BCOL = mat.cols
    b = [v if isinstance(v, Fraction) else Fraction(rational(v)) for v in b]
    pivots, rowmap = _eliminate(mat, rhs=b)
    pivoted = {r for _, r in pivots}
    for r, row in rowmap.items():
        if r not in pivoted and row.get(BCOL):
            return None
    return _back_substitute(pivots, rowmap, [F0] * mat.cols)
