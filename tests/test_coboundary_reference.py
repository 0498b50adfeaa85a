"""coboundary_matrix against the per-row face sum it replaced.

coboundary_matrix builds its matrix one face position at a time over all
rows, and keeps face i of a weak chain exactly when i starts a run of
equal vertices of odd length.  The reference below sums the signed faces
of each row one by one and drops the sums that cancel; on every poset,
degree, chain kind and set of skipped rows the two must give the same
matrix."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdeform.linalg import SparseMat
from posetdeform.posets import Poset
from posetdeform.simplicial import coboundary_matrix

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def coboundary_reference(poset, n, strict=False, skip=()):
    src = poset.chains(n, strict=strict)
    dst = poset.chains(n + 1, strict=strict)
    col = {c: k for k, c in enumerate(src)}
    m = SparseMat(len(dst), len(src))
    for r, ch in enumerate(dst):
        if r in skip:
            continue
        row = {}
        for i in range(n + 2):
            k = col.get(ch[:i] + ch[i + 1 :])
            if k is not None:
                row[k] = row.get(k, 0) + (-1 if i % 2 else 1)
        for k, v in row.items():
            if v:
                m.entries[(r, k)] = v
    return m


@st.composite
def posets(draw):
    """Up to seven elements, labels in a drawn order, and pairs going up a
    hidden total order, self-pairs and repeats included."""
    n = draw(st.integers(0, 7))
    labels = ["e%d" % k for k in draw(st.permutations(range(n)))]
    if n == 0:
        return Poset.from_relations(labels, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    idx = draw(st.lists(pair, max_size=3 * n))
    return Poset.from_relations(
        labels, [("e%d" % min(i, j), "e%d" % max(i, j)) for i, j in idx]
    )


@SETTINGS
@given(posets(), st.integers(0, 3), st.booleans(), st.data())
def test_coboundary_matrix_matches_face_sum_reference(p, n, strict, data):
    rows = len(p.chains(n + 1, strict=strict))
    skip = frozenset(data.draw(st.sets(st.integers(0, rows - 1)))) if rows else ()
    got = coboundary_matrix(p, n, strict, skip)
    ref = coboundary_reference(p, n, strict, skip)
    assert (got.entries, got.rows, got.cols) == (ref.entries, ref.rows, ref.cols)
