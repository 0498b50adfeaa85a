"""Class bases against the greedy re-rank loop, and ground truth on S^2 x S^1.

linalg.class_basis reads cocycles representing ker d / im prev off the
pivot columns of two eliminations.  The reference below is the loop it
replaced: take the kernel basis of d in order and keep each vector that
raises the rank of [prev | kept vectors].  Both must give the same
vectors in the same order.  Then the answers built on it are checked
against what topology says: the moduli of S^2 x S^1 and of a union of two
2-spheres, and the obstruction class of omega o omega, which the Witt
argument says is zero although H^3(S^2 x S^1) is not."""

import random
from fractions import Fraction

import pytest

from posetdeform.deform import _strict_h2_reps, mc_check, moduli
from posetdeform.linalg import (
    SparseMat,
    _eliminate,
    class_basis,
    rank,
    rank_kernel,
    solve_in_image,
)
from posetdeform.opcore import circle, differential
from posetdeform.posets import (
    chain_poset,
    crown_poset,
    diamond_poset,
    sphere_poset,
)
from posetdeform.simplicial import SimpCochain, SimplicialCarrier, coboundary_matrix
from poset_builders import disjoint_union, opposite_poset, product_poset

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from poset_strategies import level_posets


def greedy_reference(d, prev):
    """The re-rank loop of the former deform._strict_h2_reps, verbatim but
    for the names: d for d_2, prev for d_1, d.cols for len(c2), and the
    kernel vectors returned as they are."""
    r1 = rank(prev)
    # dim ker d2 - rank d1, before paying for a kernel basis; d2 is
    # eliminated once, for both
    elim = _eliminate(d)
    b2 = d.cols - len(elim[0]) - r1
    if b2 <= 0:
        return []
    _, kernel = rank_kernel(d)

    # grow the image of d1 by kernel vectors; the ones that enlarge the
    # span represent independent cohomology classes
    reps = []
    base = SparseMat(d.cols, prev.cols + b2)
    for (i, j), v in prev.entries.items():
        base.set(i, j, v)
    col = prev.cols
    cur = r1
    for vec in kernel:
        if len(reps) == b2:
            break
        for i, v in enumerate(vec):
            if v != 0:
                base.set(i, col, v)
        nr = rank(base)
        if nr > cur:
            cur = nr
            col += 1
            reps.append(vec)
        else:
            for i, v in enumerate(vec):
                if v != 0:
                    base.set(i, col, 0)
    return reps


def same_basis(p, n, strict):
    """class_basis of (d_n, d_{n-1}) equals the reference; returns its length."""
    d = coboundary_matrix(p, n, strict)
    prev = coboundary_matrix(p, n - 1, strict)
    got = class_basis(d, prev)
    assert got == greedy_reference(d, prev)
    for z in got:
        assert all(type(v) is Fraction for v in z)
    return len(got)


SPHERE = sphere_poset()
S2xS1 = product_poset(SPHERE, crown_poset())
BUNDLED = [chain_poset(2), chain_poset(3), diamond_poset(), crown_poset(), SPHERE]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "weak"])
@pytest.mark.parametrize("p", BUNDLED, ids=[p.name for p in BUNDLED])
def test_class_basis_matches_the_greedy_loop_on_the_bundled_posets(p, strict):
    # cr4 is a circle and sphere14 a 2-sphere; the rest are contractible
    betti = {"cr4": [1, 0, 0], "sphere14": [0, 1, 0]}.get(p.name, [0, 0, 0])
    assert [same_basis(p, n, strict) for n in (1, 2, 3)] == betti


@pytest.mark.parametrize("p", [S2xS1, opposite_poset(S2xS1)], ids=["S2xS1", "op"])
def test_class_basis_matches_the_greedy_loop_on_s2_x_s1(p):
    assert [same_basis(p, n, True) for n in (1, 2, 3)] == [1, 1, 1]
    assert same_basis(p, 1, False) == 1


@pytest.mark.parametrize("copies", [2, 3])
def test_class_basis_matches_the_greedy_loop_on_unions_of_spheres(copies):
    p = disjoint_union(*[SPHERE] * copies)
    for strict in (True, False):
        assert [same_basis(p, n, strict) for n in (1, 2)] == [0, copies]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_posets())
def test_class_basis_matches_the_greedy_loop_on_random_posets(p):
    for strict in (True, False):
        for n in (1, 2):
            same_basis(p, n, strict)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_moduli_dimension_is_order_times_b2(order):
    """S^2 x S^1 has b_2 = 1 and two 2-spheres b_2 = 2; every basis
    element is an MC element."""
    for p, b2 in ((S2xS1, 1), (disjoint_union(SPHERE, SPHERE), 2)):
        dim, basis = moduli(p, order)
        assert dim == len(basis) == order * b2
        car = SimplicialCarrier(p)
        assert all(mc_check(p, e, car) == (True, None) for e in basis)


def weak_coboundary(p, x):
    """d x for a weak cochain x, through coboundary_matrix."""
    m = coboundary_matrix(p, x.degree, strict=False)
    src = p.chains(x.degree)
    out = {}
    for (r, c), v in m.entries.items():
        out[r] = out.get(r, 0) + v * x.value(src[c])
    dst = p.chains(x.degree + 1)
    return SimpCochain(x.degree + 1, {dst[r]: v for r, v in out.items()})


def as_vector(p, x):
    return [x.value(ch) for ch in p.chains(x.degree)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_obstruction_of_a_gauged_cocycle_is_exact(seed):
    """omega = z + d psi for the strict H^2 representative z and a random
    weak 1-cochain psi: omega o omega is not 0, but it is d_2 of an
    explicit 2-cochain, as the Witt argument says."""
    p = S2xS1
    (z,) = _strict_h2_reps(p)
    rng = random.Random(seed)
    psi = SimpCochain(1, {ch: rng.randint(-2, 2) for ch in p.chains(1)})
    omega = z + weak_coboundary(p, psi)
    car = SimplicialCarrier(p)
    oo = circle(car, omega, omega)
    assert not oo.is_zero()
    d2 = coboundary_matrix(p, 2, strict=False)
    x = solve_in_image(d2, as_vector(p, oo))
    assert x is not None
    x = SimpCochain(2, zip(p.chains(2), x))
    assert weak_coboundary(p, x) == oo
    # the same through opcore: its d is -+ the face sum
    assert differential(car, x) in (oo, -oo)


def test_strict_h3_class_is_not_a_weak_coboundary():
    """The H^3 representative of S^2 x S^1, extended by zero to weak
    chains, is a weak cocycle outside the image of d_2."""
    p = S2xS1
    c3 = p.chains(3, strict=True)
    (z,) = class_basis(
        coboundary_matrix(p, 3, strict=True), coboundary_matrix(p, 2, strict=True)
    )
    z = SimpCochain(3, {c3[i]: v for i, v in enumerate(z) if v})
    assert weak_coboundary(p, z).is_zero()
    assert solve_in_image(coboundary_matrix(p, 2, strict=False), as_vector(p, z)) is None
