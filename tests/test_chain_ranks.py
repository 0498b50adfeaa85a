"""One rank pass per cochain complex, with clearing, against plain rank.

cohomology_dims and hh_dims rank their differentials through
linalg.chain_ranks, which leaves out the rows that the pivot columns of
the previous matrix account for.  Here every matrix is also built with
nothing left out and ranked on its own: the ranks must agree, on the
bundled posets, on random ones, and on products and opposites whose
Betti numbers are known.  Poset.chain_counts counts chains before they
are enumerated; its counts must be the enumeration's."""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from posetdeform import hochschild, linalg, posets, simplicial
from posetdeform.hochschild import hh_dims
from posetdeform.linalg import rank
from posetdeform.posets import Poset, TooLarge, crown_poset, sphere_poset
from posetdeform.simplicial import cohomology_dims
from poset_builders import opposite_poset, product_poset

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

POSETS = Path(__file__).resolve().parents[1] / "posets"
BUNDLED = sorted(POSETS.glob("*.json"))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@contextmanager
def checked_ranks():
    """Within the block, every chain_ranks call of cohomology_dims and
    hh_dims also ranks each of its matrices with no row left out, and
    asserts that the ranks agree.  Yields the list of rank lists seen."""
    seen = []

    def checked(count, matrix):
        got = linalg.chain_ranks(count, matrix)
        assert got == [rank(matrix(t, frozenset())) for t in range(count)]
        seen.append(got)
        return got

    saved = simplicial.chain_ranks, hochschild.chain_ranks
    simplicial.chain_ranks = hochschild.chain_ranks = checked
    try:
        yield seen
    finally:
        simplicial.chain_ranks, hochschild.chain_ranks = saved


def all_dims(p, full):
    """Strict and weak nerve cohomology to degree 3, relative HH to degree
    2 and, if asked, full HH to degree 2, each through checked_ranks."""
    with checked_ranks() as seen:
        dims = [
            cohomology_dims(p, 3, strict=True),
            cohomology_dims(p, 3, strict=False),
            hh_dims(p, 2, "relative"),
        ]
        if full:
            dims.append(hh_dims(p, 2, "full"))
    assert len(seen) == len(dims)
    return dims


@pytest.mark.parametrize("path", BUNDLED, ids=[p.stem for p in BUNDLED])
def test_clearing_keeps_every_rank_on_the_bundled_posets(path):
    p = Poset.from_dict(json.loads(path.read_text()))
    full = len(p.intervals()) ** 3 <= hochschild.FULL_TABLE_LIMIT
    strict, weak, rel, *rest = all_dims(p, full)
    assert strict == weak
    assert rel == strict[:3]
    assert rest in ([], [rel])


@st.composite
def random_posets(draw, max_n):
    """A poset on up to max_n elements: pairs going up a hidden total
    order, listed in a drawn element order."""
    n = draw(st.integers(1, max_n))
    labels = ["e%d" % k for k in draw(st.permutations(range(n)))]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    idx = draw(st.lists(pair, max_size=2 * n))
    pairs = [("e%d" % min(i, j), "e%d" % max(i, j)) for i, j in idx]
    return Poset.from_relations(labels, pairs)


@SETTINGS
@given(random_posets(7))
def test_clearing_keeps_every_rank_on_random_posets(p):
    strict, weak, rel = all_dims(p, full=False)
    assert strict == weak
    assert rel == strict[:3]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(random_posets(4))
def test_clearing_keeps_every_rank_of_the_full_complex(p):
    strict, weak, rel, full = all_dims(p, full=True)
    assert full == rel == strict[:3]


def test_clearing_is_in_effect(sphere, monkeypatch):
    """cohomology_dims(sphere14, 2) ranks d_2, d_1, d_0 in that order; d_1
    has rank 23, so only 13 of the 36 rows of d_0 are built, and d_0 has
    rank 13 = 14 - dim H^0."""
    shapes = []
    eliminate = linalg._eliminate

    def recording(mat):
        shapes.append((mat.rows, len({r for r, _ in mat.entries})))
        return eliminate(mat)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    assert cohomology_dims(sphere, 2) == [1, 0, 1]
    assert shapes == [(0, 0), (24, 24), (36, 13)]


@pytest.mark.parametrize("opposite", [False, True], ids=["P", "P^op"])
def test_sphere_times_circle(opposite):
    """sphere14 x cr4 triangulates S^2 x S^1 (56 elements), the first poset
    here with H^3 != 0: Betti numbers [1, 1, 1, 1] by Kunneth, in the
    strict and the weak complex, and relative HH up to degree 3 agrees.
    P^op has the same nerve, so the same numbers."""
    p = product_poset(sphere_poset(), crown_poset())
    if opposite:
        p = opposite_poset(p)
    assert p.n == 56
    with checked_ranks():
        assert cohomology_dims(p, 3, strict=True) == [1, 1, 1, 1]
        assert cohomology_dims(p, 3, strict=False) == [1, 1, 1, 1]
        assert hh_dims(p, 3, "relative") == [1, 1, 1, 1]


@SETTINGS
@given(random_posets(7), st.booleans())
def test_chain_counts_match_the_enumeration(p, strict):
    counts = p.chain_counts(6, strict)
    assert counts == [len(p.chains(k, strict)) for k in range(len(counts))]
    assert len(counts) == 7 or counts[-1] == 0 == len(p.chains(6, strict))


def test_chain_budget_counts_vertices(sphere, monkeypatch):
    """The budget bounds the vertices of all chains of degrees 0..n: at
    exactly their number it accepts, one below it refuses."""
    total = sum((k + 1) * len(sphere.chains(k)) for k in range(5))
    monkeypatch.setattr(posets, "CHAIN_BUDGET", total)
    assert sphere.chain_counts(4) == [len(sphere.chains(k)) for k in range(5)]
    monkeypatch.setattr(posets, "CHAIN_BUDGET", total - 1)
    with pytest.raises(TooLarge, match="weak chains of degrees 0..4"):
        sphere.chain_counts(4)


def test_chain_budget_stops_early(sphere):
    """Weak chain counts only grow, so a huge degree is refused at once;
    strict counts reach 0, so a huge strict degree is accepted.  The
    largest complex in the tests, the strict one of the subdivided
    3-sphere to degree 4, holds 36,180 vertices."""
    with pytest.raises(TooLarge, match="weak chains"):
        sphere.chain_counts(10**6)
    assert sphere.chain_counts(10**6, strict=True) == [14, 36, 24, 0]
    assert posets.CHAIN_BUDGET >= 100 * 36_180
