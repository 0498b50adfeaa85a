"""Sparse exact linear algebra over the rationals.

Fraction-free Gaussian elimination over the integers, row by row against
a table of pivots keyed by leading column (_eliminate; Edelsbrunner,
Letscher and Zomorodian, "Topological persistence and simplification",
2002).  Same matrix, same answer, always.  Nothing here ever touches a
float: a float entry raises TypeError (scalars.rational).  An
elimination that holds more than FILL_BUDGET entries at once stops with
posets.TooLarge, so every function here can raise it.

Every answer is read off the pivot columns of one elimination, and a
column is a pivot exactly when it is independent of the columns before
it, whichever rows are taken as pivots.  With the free coordinates
fixed, each solution below is unique, since the pivot columns are
independent; so the pivot rows decide only how much fills in.  The
pivots and rows are those of the column sweep that pivots on the live
row of largest index, and on coboundaries in lexicographic chain order
that row fills in far less than the first (Bauer, "Ripser", 2021, on how
much such orders matter there): a third fewer entry updates on the
nerves of face posets, and the d_2 of four levels of twenty elements in
seconds, where the first row did not finish.  rank counts the pivots;
rank_kernel back-substitutes one kernel vector per free column;
solve_columns and solve_in_image put right-hand sides in as trailing
columns, each in the image exactly when it is not a pivot; class_basis
keeps the kernel vectors whose unit column is a pivot of a second
elimination; chain_ranks ranks a whole cochain complex in one pass that
clears before it eliminates (the twist of Chen and Kerber, "Persistent
homology computation with a twist", 2011): the pivot columns of one
differential index rows the next one need not have.
"""

from fractions import Fraction
from math import gcd, lcm

from .posets import TooLarge
from .scalars import rational

F0 = Fraction(0)
F1 = Fraction(1)

# Most entries one elimination may hold at once (_eliminate).  The largest
# peaks in the tests are 89,680 (the full d_2 of a chain of six) and 89,549
# (the strict d_2 of four levels of twelve); four levels of twenty, which
# CI answers to degree 2, peak at 671,165.
FILL_BUDGET = 5_000_000


class SparseMat:
    """Sparse matrix over Q: entries maps (row, col) -> int or Fraction."""

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
        v = rational(v)
        if v == 0:
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    def __repr__(self):
        return "SparseMat(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def _eliminate(mat):
    """Forward elimination.  Returns (pivots, rowmap) where pivots is a
    list of (col, row) in column order and rowmap holds the surviving row
    dictionaries (col -> int); unpivoted rows end up empty.  A row
    holding a Fraction is first cleared of denominators; after that a row
    is only replaced by scale*row - factor*prow with scale > 0: each
    stays a nonzero multiple of its row over Q.

    Rows go in decreasing index, each reduced by the pivot row at its
    leading (smallest) column until it is zero or that column has none,
    whose pivot it becomes.  Each row meets the pivot rows, in the same
    order, that the column sweep pivoting on the greatest live row
    reduces it by, so the pivots and rows are that sweep's; but no row
    fills in before it is reached, and an empty column costs nothing.
    nnz counts the entries in, plus fill-ins, less cancellations, the
    pivot column's included: the entries held.  A fill-in past
    FILL_BUDGET raises TooLarge.
    """
    rowmap = {}
    fractional = set()
    for (r, c), v in mat.entries.items():
        row = rowmap.get(r)
        if row is None:
            row = rowmap[r] = {}
        row[c] = v
        if v.__class__ is not int:
            fractional.add(r)
    for r in fractional:
        row = rowmap[r]
        den = lcm(*[v.denominator for v in row.values()])
        for c, v in row.items():
            row[c] = v.numerator * (den // v.denominator)

    table = {}  # leading column -> (row, its entry there, the rest of it)
    nnz = len(mat.entries)
    for r in sorted(rowmap, reverse=True):
        row = rowmap[r]
        while row:
            c = min(row)
            pivot = table.get(c)
            if pivot is None:
                table[c] = r, row.pop(c), row  # put back once all are reduced
                break
            _, pval, prow = pivot
            a = row.pop(c)
            nnz -= 1
            if pval == 1 or pval == -1:
                factor = a * pval
            else:
                g = gcd(a, pval) if pval > 0 else -gcd(a, pval)
                scale, factor = pval // g, a // g
                if scale != 1:
                    for cc in row:
                        row[cc] *= scale
            for cc, vv in prow.items():
                nv = row.get(cc, 0) - factor * vv
                if nv == 0:
                    del row[cc]
                    nnz -= 1
                else:
                    if cc not in row:
                        nnz += 1
                        if nnz > FILL_BUDGET:
                            raise TooLarge(
                                "eliminating a %dx%d matrix fills in past %d entries"
                                % (mat.rows, mat.cols, FILL_BUDGET)
                            )
                    row[cc] = nv
    pivots = []
    for c in sorted(table):
        r, pval, prow = table[c]
        prow[c] = pval
        pivots.append((c, r))
    return pivots, rowmap


def _back_substitute(pivots, rowmap, cols, free=None, rhs=None):
    """Solve the pivot rows of an elimination, right to left, for x in
    its first cols columns, with right-hand side column rhs (or 0) and
    free coordinates 0 but for a 1 at column free, if given."""
    x = [F0] * cols
    if free is not None:
        x[free] = F1
    for c, r in reversed(pivots):
        row = rowmap[r]
        s = Fraction(row.get(rhs, 0))
        for cc, vv in row.items():
            if cc != c and cc < cols:
                xv = x[cc]
                if xv:
                    s -= vv * xv
        x[c] = s / row[c]
    return x


def rank_kernel(mat):
    """Rank and an exact kernel basis.  Kernel vectors are built one per
    free column by back substitution; they are linearly independent by
    construction (each has a 1 in its own free coordinate, 0 in the
    others)."""
    pivots, rowmap = _eliminate(mat)
    pivot_cols = {c for c, _ in pivots}
    kernel = [_back_substitute(pivots, rowmap, mat.cols, fc)
              for fc in range(mat.cols) if fc not in pivot_cols]
    return len(pivots), kernel


def rank(mat):
    pivots, _ = _eliminate(mat)
    return len(pivots)


def class_basis(d, prev):
    """Cocycles representing a basis of ker d / im prev, where d prev = 0
    and the rows of prev are indexed like the columns of d: the kernel
    vectors of rank_kernel(d), in order, that lie outside the span of im
    prev and the kernel vectors before them.

    Let F be the free columns of d.  Restricting to the coordinates in F
    is an isomorphism from ker d onto Q^F: back substitution fixes a
    kernel vector's pivot coordinates from its free ones, and the kernel
    vector k_f of free column f restricts to the unit vector e_f.  im
    prev lies in ker d and restricts to the span of prev's rows at F.  So
    k_f is outside the span of im prev and the k_f' before it exactly
    when e_f is outside the span of those rows and the e_f' before it:
    exactly when e_f's column is a pivot of [prev's rows at F | identity
    on F].  Only those k_f are back-substituted."""
    pivots, rowmap = _eliminate(d)
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(d.cols) if c not in pivot_cols]
    at = {c: i for i, c in enumerate(free)}
    m = SparseMat(len(free), prev.cols + len(free))
    for (r, c), v in prev.entries.items():
        if r in at:
            m.entries[(at[r], c)] = v
    for i in range(len(free)):
        m.entries[(i, prev.cols + i)] = 1
    return [_back_substitute(pivots, rowmap, d.cols, free[c - prev.cols])
            for c, _ in _eliminate(m)[0] if c >= prev.cols]


def chain_ranks(count, matrix):
    """The ranks of M_0, ..., M_{count-1}, where M_t M_{t+1} = 0 and the
    rows of M_{t+1} are indexed like the columns of M_t.  matrix(t, skip)
    builds M_t, leaving out (empty) the rows whose index is in skip: the
    pivot columns of M_{t-1}.

    Dropping them keeps the rank.  _eliminate's pivot columns are those
    independent of the columns before them, whatever the row order, so
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


def solve_columns(mat, columns):
    """Witnesses x_i with mat*x_i == b_i for the right-hand sides b_i in
    columns (dicts row -> value), or None when some b_i is not in the
    image, from one elimination of [mat | b_1 ... b_k].  b_i's column is
    a pivot exactly when b_i is independent of mat and the b_j before it,
    so the first b_i outside the image is the first pivot past mat.  Each
    witness is the particular solution with all free variables zero."""
    aug = SparseMat(mat.rows, mat.cols + len(columns))
    aug.entries.update(mat.entries)
    for k, b in enumerate(columns, mat.cols):
        for r, v in b.items():
            aug.set(r, k, v)
    pivots, rowmap = _eliminate(aug)
    if pivots and pivots[-1][0] >= mat.cols:
        return None
    return [_back_substitute(pivots, rowmap, mat.cols, rhs=k)
            for k in range(mat.cols, aug.cols)]


def solve_in_image(mat, b):
    """solve_columns for the one column b, a list: a witness x with
    mat*x == b, or None (the normal negative answer, not an error)."""
    if len(b) != mat.rows:
        raise ValueError("rhs length %d != %d rows" % (len(b), mat.rows))
    xs = solve_columns(mat, [dict(enumerate(b))])
    return None if xs is None else xs[0]
