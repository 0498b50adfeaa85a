"""Exact rank, kernel, and preimage computations."""

import random
from fractions import Fraction

import pytest

from posetdeform import linalg
from posetdeform.linalg import SparseMat, class_basis, rank, rank_kernel, solve_in_image
from posetdeform.posets import TooLarge


def rand_matrix(rng, rows, cols):
    m = SparseMat(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.5:
                m.set(r, c, Fraction(rng.randint(-4, 4)))
    return m


def from_rows(rows):
    return SparseMat(
        len(rows),
        len(rows[0]),
        {(r, c): Fraction(v) for r, row in enumerate(rows) for c, v in enumerate(row)},
    )


def transpose(m):
    return SparseMat(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def mul(m, vec):
    out = [Fraction(0)] * m.rows
    for (r, c), v in m.entries.items():
        out[r] += v * vec[c]
    return out


def is_zero(vec):
    return all(v == 0 for v in vec)


def test_known_rank_and_kernel():
    m = from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, kern = rank_kernel(m)
    assert r == 2
    assert len(kern) == 1
    assert is_zero(mul(m, kern[0]))


def test_identity_rank():
    m = SparseMat(5, 5, {(i, i): Fraction(1) for i in range(5)})
    r, kern = rank_kernel(m)
    assert r == 5 and kern == []


def test_zero_matrix():
    m = SparseMat(3, 4)
    r, kern = rank_kernel(m)
    assert r == 0 and len(kern) == 4


def test_rank_nullity_randomized():
    rng = random.Random("linalg:rk")
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, rows, cols)
        r, kern = rank_kernel(m)
        assert r + len(kern) == cols
        assert rank(m) == r
        assert rank(transpose(m)) == r
        for v in kern:
            assert is_zero(mul(m, v))


def test_solve_recovers_image_vectors():
    rng = random.Random("linalg:solve")
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = mul(m, x)
        sol = solve_in_image(m, b)
        assert sol is not None
        assert mul(m, sol) == b


def test_solve_detects_unsolvable():
    m = from_rows([[1], [1]])
    assert solve_in_image(m, [Fraction(1), Fraction(2)]) is None
    # zero matrix can only hit zero
    z = SparseMat(2, 3)
    assert solve_in_image(z, [Fraction(1), Fraction(0)]) is None
    assert solve_in_image(z, [Fraction(0), Fraction(0)]) is not None


def test_exact_arithmetic_on_hilbert_matrix():
    # floating point would lose this rank; Fractions must not
    n = 5
    m = SparseMat(n, n)
    for i in range(n):
        for j in range(n):
            m.set(i, j, Fraction(1, i + j + 1))
    assert rank(m) == n


def test_setting_zero_removes_entry():
    m = SparseMat(2, 2)
    m.set(0, 0, Fraction(3))
    m.set(0, 0, Fraction(0))
    assert (0, 0) not in m.entries


def test_set_refuses_floats():
    """A float entry is refused, not stored as its binary value."""
    m = SparseMat(1, 1)
    with pytest.raises(TypeError):
        m.set(0, 0, 0.1)
    with pytest.raises(TypeError):
        SparseMat(1, 1, {(0, 0): 0.5})
    m.set(0, 0, "1/10")
    assert m.entries == {(0, 0): Fraction(1, 10)}


def test_solve_in_image_refuses_float_rhs():
    """A float right-hand side is refused, not solved for its binary value."""
    m = SparseMat(1, 1, {(0, 0): 1})
    with pytest.raises(TypeError):
        solve_in_image(m, [0.1])
    assert solve_in_image(m, ["1/10"]) == [Fraction(1, 10)]


def test_fill_budget_counts_the_entries_held(monkeypatch):
    """The pivot is the last live row.  Reducing the first row by the
    second drops its entry at column 0 and fills in columns 1 and 2: five
    entries held, which pass a budget of 5 and not one of 4.  With a 1 at
    column 1 instead, that entry cancels and only column 2 fills in: four
    held, within a budget of 4.  The identity never fills in."""
    fills = from_rows([[1, 0, 0], [1, 1, 1]])
    cancels = from_rows([[1, 1, 0], [1, 1, 1]])
    monkeypatch.setattr(linalg, "FILL_BUDGET", 5)
    assert rank(fills) == 2
    monkeypatch.setattr(linalg, "FILL_BUDGET", 4)
    with pytest.raises(TooLarge, match="2x3 matrix fills in past 4 entries"):
        rank(fills)
    assert rank(cancels) == 2
    monkeypatch.setattr(linalg, "FILL_BUDGET", 2)
    assert rank(from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_fill_budget_bounds_every_elimination(monkeypatch):
    """The budget lives in the one elimination, so the solvers and
    class_basis refuse too, not only the ranks of cohomology."""
    fills = from_rows([[1, 0, 0], [1, 1, 1]])
    monkeypatch.setattr(linalg, "FILL_BUDGET", 4)
    with pytest.raises(TooLarge):
        solve_in_image(fills, [1, 0])
    with pytest.raises(TooLarge):
        class_basis(fills, SparseMat(3, 0))
