"""Each carrier's compose_at against the all-chains / all-tuples loop.

compose_at enumerates pairs of entries of f and g that glue in slot j.
The reference functions below visit every chain (or basis tuple) of the
output degree instead and read the value there straight from the
composition formula; they must give the same cochain on every input."""

import random
from fractions import Fraction

import pytest

from posetdeform.hochschild import (
    FullCochain,
    FullHochschildCarrier,
    IncElem,
    RelHochschildCarrier,
    TooLarge,
    as_element,
    rel_eval,
)
from posetdeform.simplicial import SimpCochain, SimplicialCarrier

DEGREES = [
    (p, q, j) for p in range(1, 4) for q in range(0, 4) for j in range(1, p + 1)
]


def simplicial_reference(car, f, j, g):
    p, q = f.degree, g.degree
    out = {}
    for c in car.chains(p + q - 1):
        a = f.value(c[:j] + c[j + q - 1 :])
        if not a:
            continue
        b = g.value(c[j - 1 : j + q])
        if not b:
            continue
        out[c] = a * b
    return SimpCochain(p + q - 1, out)


def relative_reference(car, f, j, g):
    p, q = f.degree, g.degree
    out = {}
    g_elem = as_element(g) if q == 0 else None
    for c in car.chains(p + q - 1):
        if q == 0:
            inner = g_elem
        else:
            inner = rel_eval(g, car._basis_args(c[j - 1 : j + q]))
            if inner.is_zero():
                continue
        args = car._basis_args(c[:j]) + [inner] + car._basis_args(c[j + q - 1 :])
        coeff = rel_eval(f, args).terms.get((c[0], c[-1]))
        if coeff is not None:
            out[c] = coeff
    return SimpCochain(p + q - 1, out)


def full_reference(car, f, j, g):
    p, q = f.degree, g.degree
    out = {}
    for t in car.tuples(p + q - 1):
        inner = g.value(t[j - 1 : j - 1 + q])
        if inner.is_zero():
            continue
        acc = None
        for K, s in inner.terms.items():
            ft = f.table.get(t[: j - 1] + (K,) + t[j - 1 + q :])
            if ft is None:
                continue
            term = ft.scale(s)
            acc = term if acc is None else acc.add(term)
        if acc is not None and not acc.is_zero():
            out[t] = acc
    return FullCochain(p + q - 1, out)


def simp_inputs(car, n, rng):
    """A dense random cochain, three single-chain basis cochains and the
    zero cochain of degree n."""
    chains = car.chains(n)
    basis = [SimpCochain(n, {c: Fraction(1)}) for c in rng.sample(chains, 3)]
    return [car.random_elem(n, rng)] + basis + [SimpCochain(n)]


def full_inputs(car, n, rng):
    """As simp_inputs, on basis tuples.  random_elem gives each tuple a
    one-term value; the second dense cochain gives every tuple up to
    three terms, so that several terms of g(u) can land on one output
    tuple and have to be summed there."""
    ivs = car.poset.intervals()
    multi = FullCochain(n, {
        t: IncElem({iv: Fraction(rng.randint(-3, 3)) for iv in rng.sample(ivs, 3)})
        for t in car.tuples(n)
    })
    basis = []
    for _ in range(3):
        t = tuple(rng.choice(ivs) for _ in range(n))
        iv = rng.choice(ivs)
        basis.append(FullCochain(n, {t: IncElem.basis(iv[0], iv[1])}))
    return [car.random_elem(n, rng), multi] + basis + [FullCochain(n)]


CASES = [
    ("simplicial", "diamond"),
    ("simplicial", "cr4"),
    ("relative", "diamond"),
    ("relative", "cr4"),
    ("full", "chain2"),
    ("full", "diamond"),
]

CARRIERS = {
    "simplicial": (SimplicialCarrier, simplicial_reference, simp_inputs),
    "relative": (RelHochschildCarrier, relative_reference, simp_inputs),
    "full": (FullHochschildCarrier, full_reference, full_inputs),
}


@pytest.mark.parametrize("kind,poset_name", CASES)
def test_compose_at_matches_reference(request, kind, poset_name):
    poset = request.getfixturevalue(poset_name)
    cls, reference, inputs = CARRIERS[kind]
    car = cls(poset)
    rng = random.Random("compose-ref:%s:%s" % (kind, poset_name))
    compared = 0
    for p, q, j in DEGREES:
        if kind == "full":
            try:
                outputs = set(car.tuples(p + q - 1))
            except TooLarge:
                continue
        else:
            outputs = set(car.chains(p + q - 1))
        for f in inputs(car, p, rng):
            for g in inputs(car, q, rng):
                got = car.compose_at(f, j, g)
                assert got == reference(car, f, j, g), (p, q, j)
                keys = got.table if kind == "full" else got.values
                assert set(keys) <= outputs
                compared += 1
    # all 24 (p, q, j), less the three with 9**5 output tuples for the
    # full carrier on diamond; 5 inputs of each degree
    assert compared >= 21 * 25
