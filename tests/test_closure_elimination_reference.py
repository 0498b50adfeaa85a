"""Poset closure and exact elimination against their dense references.

Poset.from_relations closes the relations as up-set bitsets in one
topological pass, and linalg._eliminate reduces over the integers.  The
references below are the dense Warshall closure and Gaussian elimination
over Fraction they replaced; on every input the fast code must give the
same relation, the same error, the same pivots and row supports, and the
same exact solutions.  The reference sweeps the columns, pivoting on the
live row of largest index, which _eliminate, row by row, must match;
pivoting on the smallest instead changes the rows but none of the
answers."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from poset_builders import le

from posetdeform import hochschild, linalg
from posetdeform.linalg import (
    SparseMat,
    _eliminate,
    class_basis,
    rank_kernel,
    solve_in_image,
)
from posetdeform.posets import CycleDetected, Poset
from posetdeform.simplicial import coboundary_matrix

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
F0 = Fraction(0)
F1 = Fraction(1)


def warshall_reference(labels, pairs):
    """The full relation as an n x n bool matrix, or CycleDetected."""
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[index[a]][index[b]] = True
    for k in range(n):
        rk = leq[k]
        for i in range(n):
            if leq[i][k]:
                ri = leq[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleDetected(
                    "%r and %r are comparable both ways" % (labels[i], labels[j])
                )
    return leq


def eliminate_reference(mat, rhs=None, pick=max):
    """Gaussian elimination over Fraction, column by column, taking as
    pivot the live row that pick chooses."""
    BCOL = mat.cols
    rowmap = {}
    colrows = {}
    for (r, c), v in mat.entries.items():
        rowmap.setdefault(r, {})[c] = Fraction(v)
        colrows.setdefault(c, set()).add(r)
    if rhs is not None:
        for r, v in enumerate(rhs):
            if v:
                rowmap.setdefault(r, {})[BCOL] = v
    pivots = []
    pivoted = set()
    for c in range(mat.cols):
        live = colrows.get(c)
        if not live:
            continue
        cand = [r for r in live if r not in pivoted]
        if not cand:
            continue
        pr = pick(cand)
        pivots.append((c, pr))
        pivoted.add(pr)
        prow = rowmap[pr]
        pval = prow[c]
        for r in sorted(live):
            if r == pr or r in pivoted:
                continue
            row = rowmap[r]
            factor = row[c] / pval
            for cc, vv in prow.items():
                nv = row.get(cc, F0) - factor * vv
                if nv == 0:
                    row.pop(cc, None)
                    if cc != BCOL:
                        colrows[cc].discard(r)
                else:
                    if cc not in row and cc != BCOL:
                        colrows.setdefault(cc, set()).add(r)
                    row[cc] = nv
    return pivots, rowmap


def back_substitute_reference(pivots, rowmap, x):
    cols = len(x)
    for c, r in reversed(pivots):
        row = rowmap[r]
        s = row.get(cols, F0)
        for cc, vv in row.items():
            if cc != c and cc < cols:
                s -= vv * x[cc]
        x[c] = s / row[c]
    return x


def rank_kernel_reference(mat):
    pivots, rowmap = eliminate_reference(mat)
    pivot_cols = {c for c, _ in pivots}
    kernel = []
    for fc in range(mat.cols):
        if fc not in pivot_cols:
            x = [F0] * mat.cols
            x[fc] = F1
            kernel.append(back_substitute_reference(pivots, rowmap, x))
    return len(pivots), kernel


def solve_reference(mat, b):
    pivots, rowmap = eliminate_reference(mat, rhs=b)
    pivoted = {r for _, r in pivots}
    if any(row.get(mat.cols) for r, row in rowmap.items() if r not in pivoted):
        return None
    return back_substitute_reference(pivots, rowmap, [F0] * mat.cols)


@st.composite
def relations(draw):
    """Labels in a drawn order and pairs among them: either pairs going
    up a hidden total order (always a poset) or arbitrary pairs (often
    cyclic), self-pairs and repeats included."""
    n = draw(st.integers(0, 9))
    labels = ["e%d" % k for k in draw(st.permutations(range(n)))]
    if n == 0:
        return labels, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    idx = draw(st.lists(pair, max_size=3 * n))
    if draw(st.booleans()):
        idx = [(min(i, j), max(i, j)) for i, j in idx]
    return labels, [("e%d" % i, "e%d" % j) for i, j in idx]


@SETTINGS
@given(relations())
def test_closure_matches_warshall(rel):
    labels, pairs = rel
    try:
        leq = warshall_reference(labels, pairs)
    except CycleDetected as e:
        with pytest.raises(CycleDetected) as got:
            Poset.from_relations(labels, pairs)
        assert str(got.value) == str(e)
        return
    p = Poset.from_relations(labels, pairs)
    n = len(labels)
    for i in range(n):
        for j in range(n):
            assert le(p, i, j) is leq[i][j]
    assert p.up == tuple(tuple(j for j in range(n) if leq[i][j]) for i in range(n))
    assert p.intervals() == tuple(
        (i, j) for i in range(n) for j in range(n) if leq[i][j]
    )
    lt = [[i != j and leq[i][j] for j in range(n)] for i in range(n)]
    assert p.to_dict()["relations"] == [
        [labels[i], labels[j]]
        for i in range(n)
        for j in range(n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    ]


RATIONAL = st.builds(
    Fraction,
    st.integers(-6, 6),
    st.sampled_from([1, 1, 2, 3, 4, 6]),
)


@st.composite
def rational_matrices(draw):
    """A sparse matrix with non-integer entries."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    support = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return SparseMat(rows, cols, {rc: draw(RATIONAL) for rc in support})


@st.composite
def face_sum_complexes(draw):
    """The weak or strict face-sum matrix d of degree 0 to 2 of a poset on
    up to six elements, entries +-1, rows that cancel and fill in; and the
    one of the degree below, prev (no columns below degree 0)."""
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    idx = draw(st.lists(pair, min_size=n, max_size=3 * n))
    p = Poset.from_relations(
        ["e%d" % k for k in range(n)],
        [("e%d" % min(i, j), "e%d" % max(i, j)) for i, j in idx],
    )
    deg, strict = draw(st.integers(0, 2)), draw(st.booleans())
    d = coboundary_matrix(p, deg, strict)
    prev = coboundary_matrix(p, deg - 1, strict) if deg else SparseMat(d.cols, 0)
    return d, prev


def face_sum_matrices():
    return face_sum_complexes().map(lambda dp: dp[0])


@st.composite
def systems(draw, matrices):
    """A matrix drawn from matrices, and a right-hand side that is either
    in its image or arbitrary."""
    mat = draw(matrices)
    rows, cols = mat.rows, mat.cols
    if draw(st.booleans()):
        x = [draw(RATIONAL) for _ in range(cols)]
        b = [F0] * rows
        for (r, c), v in mat.entries.items():
            b[r] += v * x[c]
    else:
        b = [draw(RATIONAL) for _ in range(rows)]
    return mat, b


def _same_rows(got, ref):
    """Same rows with the same supports, each a multiple of the other."""
    assert got.keys() == ref.keys()
    for r, row in ref.items():
        assert row.keys() == got[r].keys()
        if row:
            c = next(iter(row))
            ratio = row[c] / got[r][c]
            assert all(row[cc] == ratio * v for cc, v in got[r].items())


@SETTINGS
@given(systems(rational_matrices()))
def test_elimination_matches_fraction_reference(system):
    check_against_reference(*system)


@SETTINGS
@given(systems(face_sum_matrices()))
def test_face_sum_elimination_matches_fraction_reference(system):
    check_against_reference(*system)


def check_elimination(m):
    """_eliminate gives the reference's pivots and row supports."""
    pivots, rowmap = _eliminate(m)
    ref_pivots, ref_rowmap = eliminate_reference(m)
    assert pivots == ref_pivots
    _same_rows(rowmap, ref_rowmap)


def hh_transposes(poset, max_n, which, strict):
    """The packed transposes hh_dims ranks, rows cleared as chain_ranks
    clears them, each also with no row cleared."""
    mats, ranks = [], hochschild.chain_ranks

    def record(count, matrix):
        def build(t, skip):
            if skip:
                mats.append(matrix(t, frozenset()))
            mats.append(matrix(t, skip))
            return mats[-1]

        return ranks(count, build)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hochschild, "chain_ranks", record)
        hochschild.hh_dims(poset, max_n, which, strict)
    return mats


@pytest.mark.parametrize("poset_name", ["diamond", "cr4", "sphere"])
@pytest.mark.parametrize(
    "which, strict", [("relative", True), ("relative", False), ("full", False)]
)
def test_hochschild_transposes_match_fraction_reference(
    request, poset_name, which, strict
):
    """Most columns of a transposed Hochschild differential are empty: the
    full d_2 of cr4 is 512 x 4,096 with 2,312 entries.  The relative
    complexes to degree 3; the full one to degree 2, or to 0 on sphere14,
    whose 50 intervals put degree 1 past its cap."""
    poset = request.getfixturevalue(poset_name)
    max_n = 3 if which == "relative" else 0 if poset_name == "sphere" else 2
    mats = hh_transposes(poset, max_n, which, strict)
    assert mats and any(m.entries for m in mats)
    for m in mats:
        check_elimination(m)


def check_against_reference(mat, b):
    # the right-hand side as an ordinary trailing column
    aug = SparseMat(mat.rows, mat.cols + 1, mat.entries)
    for r, v in enumerate(b):
        aug.set(r, mat.cols, v)
    for m in (mat, aug):
        check_elimination(m)

    rk, kernel = rank_kernel(mat)
    assert (rk, kernel) == rank_kernel_reference(mat)
    x = solve_in_image(mat, b)
    assert x == solve_reference(mat, b)
    for vec in kernel + ([x] if x is not None else []):
        assert all(type(v) is Fraction for v in vec)


def answers(d, prev, b):
    """Pivot columns, rank and kernel, a witness for b, and class_basis."""
    cols = [c for c, _ in linalg._eliminate(d)[0]]
    return cols, rank_kernel(d), solve_in_image(d, b), class_basis(d, prev)


def check_pivot_row_free(d, prev, b):
    """Every answer is the same when each pivot is the live row of smallest
    index: the pivot columns are those independent of the columns before
    them, and with the free coordinates fixed each solution is unique."""
    got = answers(d, prev, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", lambda m: eliminate_reference(m, pick=min))
        assert answers(d, prev, b) == got


@SETTINGS
@given(systems(rational_matrices()))
def test_rational_answers_do_not_depend_on_the_pivot_row(system):
    mat, b = system
    check_pivot_row_free(mat, SparseMat(mat.cols, 0), b)


@SETTINGS
@given(face_sum_complexes(), st.data())
def test_face_sum_answers_do_not_depend_on_the_pivot_row(complex_, data):
    d, prev = complex_
    _, b = data.draw(systems(st.just(d)))
    check_pivot_row_free(d, prev, b)
