"""Carrier-generic operations: gamma, braces, circle, dot, differential."""

import random
from fractions import Fraction

import pytest

from posetdeform.deform import MCElement, mc_check, moduli
from posetdeform.linalg import SparseMat, rank, rank_kernel
from posetdeform.opcore import (
    ArityMismatch,
    SignFlip,
    SlotOutOfRange,
    brace,
    bracket,
    circle,
    differential,
    dot,
    gamma,
)
from posetdeform.hochschild import FullHochschildCarrier, RelHochschildCarrier
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

import lincomb_route


@pytest.fixture(scope="module")
def car(diamond):
    return SimplicialCarrier(diamond)


def differential_unshifted(car, x):
    """The classical-complex differential, -d by d(sx) = -s(dx)."""
    return -differential(car, x)


def rnd(car, n, seed):
    return car.random_elem(n, random.Random(seed))


def test_mult_composes_to_constant(car):
    m = car.mult()
    c3 = car.constant(3)
    assert car.compose_at(m, 1, m) == c3
    assert car.compose_at(m, 2, m) == c3
    # full circle sum cancels the two placements
    assert circle(car, m, m).is_zero()


def test_unit_laws(car):
    e = car.identity()
    f = rnd(car, 2, "unit")
    assert gamma(car, e, [f]) == f
    for j in (1, 2):
        assert car.compose_at(f, j, e) == f


def test_degree_zero_insertion_repeats_vertex(car):
    c = Fraction(7, 2)
    g = SimpCochain(0, {ch: c for ch in car.poset.chains(0)})
    f = rnd(car, 2, "q0")
    h = car.compose_at(f, 2, g)
    assert h.degree == 1
    for ch in car.poset.chains(1):
        assert h.value(ch) == c * f.value((ch[0], ch[1], ch[1]))


def test_slot_bounds(car):
    f = rnd(car, 2, "slot")
    g = rnd(car, 1, "slot2")
    with pytest.raises(SlotOutOfRange):
        car.compose_at(f, 0, g)
    with pytest.raises(SlotOutOfRange):
        car.compose_at(f, 3, g)


def test_gamma_arity_checked(car):
    f = rnd(car, 2, "gar")
    with pytest.raises(ArityMismatch):
        gamma(car, f, [rnd(car, 1, "a")])


def test_gamma_is_right_to_left_fold(car):
    f = rnd(car, 2, "gf")
    g1 = rnd(car, 1, "g1")
    g2 = rnd(car, 2, "g2")
    expect = car.compose_at(car.compose_at(f, 2, g2), 1, g1)
    assert gamma(car, f, [g1, g2]) == expect


def test_brace_with_no_arguments(car):
    x = rnd(car, 2, "be")
    assert brace(car, x, []) == x


def test_brace_overflow(car):
    """More arguments than slots is the empty sum: zero at the arity the
    insertions would have had, negative included."""
    x = rnd(car, 1, "bo")
    a, b = rnd(car, 1, "boa"), rnd(car, 2, "bob")
    out = brace(car, x, [a, b])
    assert out.is_zero() and out.degree == 2
    z = rnd(car, 0, "boz")
    assert brace(car, z, [z]).is_zero() and brace(car, z, [z]).degree == -1


@pytest.mark.parametrize(
    "kind", [SimplicialCarrier, RelHochschildCarrier, FullHochschildCarrier]
)
def test_brace_and_bracket_have_the_formula_degree(diamond, kind):
    """A brace has arity |x| + sum(|x_i| - 1) and a bracket |f| + |g| - 1
    on every carrier, negative included: with more arguments than slots,
    with a zero argument, and for two arguments of arity 0.  A zero of
    negative arity composes like any other zero."""
    car = kind(diamond)
    rng = random.Random("formula")

    def nonzero(n):
        while (x := car.random_elem(n, rng)).is_zero():
            pass
        return x

    x0, y0, x1, x2 = nonzero(0), nonzero(0), nonzero(1), nonzero(2)
    zero = SimpCochain(2)
    neg = brace(car, x0, [y0])
    cases = [
        (brace(car, x1, [x2, x0]), 1),
        (brace(car, x0, [y0]), -1),
        (brace(car, x0, [x1, y0]), -1),
        (brace(car, x2, [zero]), 3),
        (brace(car, x2, [x1, zero]), 3),
        (brace(car, x2, [neg]), 0),
        (bracket(car, x0, y0), -1),
        (bracket(car, x2, zero), 3),
        (bracket(car, x0, zero), 1),
        (bracket(car, x2, neg), 0),
        (bracket(car, neg, neg), -3),
        (differential(car, neg), 0),
    ]
    for got, degree in cases:
        assert got == SimpCochain._of(degree, {})


def test_circle_is_signed_sum_of_insertions(car):
    f = rnd(car, 2, "cf")
    g = rnd(car, 2, "cg")
    # shifted degree of g is 1, so signs alternate starting with +
    expect = car.compose_at(f, 1, g) + car.compose_at(f, 2, g).scale(Fraction(-1))
    assert circle(car, f, g) == expect
    g1 = rnd(car, 1, "cg1")
    expect1 = car.compose_at(f, 1, g1) + car.compose_at(f, 2, g1)
    assert circle(car, f, g1) == expect1


def cup(car, x, y):
    p, q = x.degree, y.degree
    out = {}
    for c in car.poset.chains(p + q):
        v = x.value(c[: p + 1]) * y.value(c[p:])
        if v != 0:
            out[c] = v
    return SimpCochain(p + q, out)


def test_dot_matches_cup_up_to_sign(car):
    for p in range(3):
        for q in range(3):
            x = rnd(car, p, "cup%d%d" % (p, q))
            y = rnd(car, q, "cup%d%dy" % (p, q))
            sign = Fraction(-1) if (p * q) % 2 else Fraction(1)
            assert dot(car, x, y) == cup(car, x, y).scale(sign)


def face_sum(car, x):
    """Classical simplicial coboundary: alternating sum over face maps."""
    p = x.degree
    out = {}
    for c in car.poset.chains(p + 1):
        acc = Fraction(0)
        for i in range(p + 2):
            acc += (-1) ** i * x.value(c[:i] + c[i + 1 :])
        if acc != 0:
            out[c] = acc
    return SimpCochain(p + 1, out)


def operator_matrix(car, op, n):
    src = car.poset.chains(n)
    dst = car.poset.chains(n + 1)
    row = {c: k for k, c in enumerate(dst)}
    m = SparseMat(len(dst), len(src))
    for k, c in enumerate(src):
        img = op(SimpCochain(n, {c: Fraction(1)}))
        for ch, v in img.values.items():
            m.set(row[ch], k, v)
    return m


def mul_vec(m, vec):
    out = [Fraction(0)] * m.rows
    for (r, c), v in m.entries.items():
        out[r] += v * vec[c]
    return out


def test_unshifted_differential_has_classical_kernel_and_image(car):
    for n in range(3):
        d1 = operator_matrix(car, lambda x: differential_unshifted(car, x), n)
        d2 = operator_matrix(car, lambda x: face_sum(car, x), n)
        r1, k1 = rank_kernel(d1)
        r2, k2 = rank_kernel(d2)
        assert r1 == r2 and len(k1) == len(k2)
        # kernels contained in each other plus equal dimension: equal
        for v in k1:
            assert all(w == 0 for w in mul_vec(d2, v))
        # images: stacking columns must not raise the rank
        joint = SparseMat(d1.rows, d1.cols + d2.cols)
        for (r, c), v in d1.entries.items():
            joint.set(r, c, v)
        for (r, c), v in d2.entries.items():
            joint.set(r, d1.cols + c, v)
        assert rank(joint) == r1


def test_unshifted_differential_pointwise(car):
    for n in range(3):
        x = rnd(car, n, "pw%d" % n)
        sign = Fraction(-1) if n % 2 else Fraction(1)
        assert differential_unshifted(car, x) == face_sum(car, x).scale(sign)


def test_differential_square_zero(car):
    for n in range(3):
        x = rnd(car, n, "dd%d" % n)
        assert differential(car, differential(car, x)).is_zero()
        assert differential_unshifted(
            car, differential_unshifted(car, x)
        ).is_zero()


def test_mult_is_closed(car):
    m = car.mult()
    assert differential(car, m).is_zero()
    assert bracket(car, m, m).is_zero()


def test_shifted_and_unshifted_agree_up_to_sign(car):
    for n in range(4):
        x = rnd(car, n, "sh%d" % n)
        lhs = differential(car, x)
        rhs = differential_unshifted(car, x).scale(Fraction(-1))
        assert lhs == rhs


def test_bracket_of_two_cochains_drops_signs(car):
    # both arguments have odd shifted degree, so the bracket symmetrizes
    f = rnd(car, 2, "bf")
    g = rnd(car, 2, "bg")
    assert bracket(car, f, g) == circle(car, f, g) + circle(car, g, f)


def test_bracket_antisymmetry(car):
    rng = random.Random("opcore:anti")
    for _ in range(10):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        f = car.random_elem(p, rng)
        g = car.random_elem(q, rng)
        sign = Fraction(-1) if ((p - 1) * (q - 1)) % 2 == 0 else Fraction(1)
        assert bracket(car, f, g) == bracket(car, g, f).scale(sign)


def test_sign_flip_wrapper(car):
    bad = SignFlip(car)
    f = rnd(car, 2, "sf")
    g = rnd(car, 1, "sg")
    assert bad.compose_at(f, 1, g) == car.compose_at(f, 1, g)
    assert bad.compose_at(f, 2, g) == car.compose_at(f, 2, g).scale(Fraction(-1))
    # attribute access falls through to the wrapped carrier
    assert bad.poset is car.poset
    assert bad.identity() is car.identity()
    # the one-pass sums flip slot 2 through the kernel exactly as the
    # route of one compose_at per slot and lincomb does through compose_at
    rng = random.Random("opcore:signflip")
    flipped = 0
    for p in range(4):
        for q in range(4):
            x, y, z = car.random_elem(p, rng), car.random_elem(q, rng), car.random_elem(1, rng)
            pairs = [
                (brace(bad, x, [y]), lincomb_route.brace(bad, x, [y]), brace(car, x, [y])),
                (brace(bad, x, [y, z]), lincomb_route.brace(bad, x, [y, z]),
                 brace(car, x, [y, z])),
                (differential(bad, x), lincomb_route.differential(bad, x), differential(car, x)),
                (bracket(bad, x, y), lincomb_route.bracket(bad, x, y), bracket(car, x, y)),
            ]
            for got, want, unflipped in pairs:
                assert got == want
                flipped += got != unflipped
    assert flipped >= 30


class Bare:
    """A carrier cut down to the operad with multiplication: compose_at,
    its accumulating kernel compose_into, identity and mult, with nothing
    to fall through to."""

    __slots__ = ("compose_at", "compose_into", "identity", "mult")

    def __init__(self, car):
        self.compose_at, self.compose_into = car.compose_at, car.compose_into
        self.identity, self.mult = car.identity, car.mult


def test_operations_need_only_compose_identity_and_mult(car):
    bare = Bare(car)
    rng = random.Random("opcore:bare")
    seen = 0
    for p in range(3):
        for q in range(3):
            x, y, z = car.random_elem(p, rng), car.random_elem(q, rng), car.random_elem(1, rng)

            def ops(c):
                return [
                    gamma(c, x, [y] * p),
                    brace(c, x, [y]),
                    brace(c, x, [y, z]),
                    circle(c, x, y),
                    dot(c, x, y),
                    differential(c, x),
                    differential_unshifted(c, x),
                    bracket(c, x, y),
                ]

            want = ops(car)
            assert ops(bare) == want
            seen += sum(not w.is_zero() for w in want)
    assert seen >= 40


def test_mc_check_needs_only_compose_identity_and_mult(sphere):
    car = SimplicialCarrier(sphere)
    good = moduli(sphere, 1)[1][0]
    bad = MCElement(1, {1: car.random_elem(2, random.Random("opcore:bare:mc"))})
    for e in (good, bad):
        assert mc_check(sphere, e, Bare(car)) == mc_check(sphere, e)
    assert mc_check(sphere, good)[0] and not mc_check(sphere, bad)[0]
