"""Formal deformations: Maurer-Cartan, Witt cocycles, gauge, moduli."""

import inspect
import random
from fractions import Fraction

import pytest
from poset_builders import product_poset

from posetdeform import deform, linalg, posets
from posetdeform.deform import (
    MAX_ORDER,
    MCElement,
    NotMC,
    UnsupportedDegree,
    associativity_witness,
    deformation_product,
    gauge_equivalent,
    is_witt_cocycle,
    mc_check,
    moduli,
    witt_coboundary,
    witt_exp,
    witt_inverse,
    witt_log_layers,
    witt_mul,
)
from posetdeform.opcore import SignFlip, circle, differential
from posetdeform.posets import TooLarge, chain_poset, diamond_poset
from posetdeform.scalars import DomainError, TruncSeries
from posetdeform.linalg import solve_in_image
from posetdeform.simplicial import SimpCochain, SimplicialCarrier, coboundary_matrix


def face_sum(p, x):
    out = {}
    for c in p.chains(x.degree + 1):
        acc = Fraction(0)
        for i in range(x.degree + 2):
            acc += (-1) ** i * x.value(c[:i] + c[i + 1 :])
        if acc != 0:
            out[c] = acc
    return SimpCochain(x.degree + 1, out)


def closed_2_rep(p):
    """Layer-1 part of the one-layer moduli basis: a 2-cocycle class rep."""
    dim, basis = moduli(p, 1)
    assert dim >= 1
    return basis[0].term(1)


def crown_non_cocycle(cr4):
    # cr4 has no strict 2-chains, so any nonzero defect must come from a
    # degenerate-chain value
    a, c = cr4.index("a"), cr4.index("c")
    return MCElement(1, {1: SimpCochain(2, {(a, a, c): Fraction(1)})})


def test_mc_element_validation():
    with pytest.raises(ValueError):
        MCElement(0, {})
    with pytest.raises(ValueError):
        MCElement(1, {2: SimpCochain(2, {})})
    with pytest.raises(ValueError):
        MCElement(1, {1: SimpCochain(1, {})})
    e = MCElement(2, {1: SimpCochain(2, {})})
    assert e == MCElement(2) and e.term(1).is_zero()
    assert MCElement(MAX_ORDER).order == MAX_ORDER
    with pytest.raises(ValueError):
        MCElement(MAX_ORDER + 1, {})


def test_order_cap_applies_to_moduli(diamond):
    with pytest.raises(ValueError):
        moduli(diamond, MAX_ORDER + 1)


class NoDifferential:
    """A carrier whose mult() is zero, so d vanishes and only the products
    decide a layer: a defect can then first show at a layer that is in
    no element's terms, only a sum of two of them."""

    def __init__(self, base):
        self.base = base

    def mult(self):
        return SimpCochain(2)

    def __getattr__(self, attr):
        return getattr(self.base, attr)


def mc_check_every_layer(p, e, car):
    """mc_check as a loop over every layer and every pair (a, n - a)."""
    for n in range(1, e.order + 1):
        defect = differential(car, e.term(n))
        for a in range(1, n):
            defect = defect.add(circle(car, e.term(a), e.term(n - a)))
        for ch in p.chains(3):
            if defect.value(ch):
                return False, (n, tuple(p.chain_labels(ch)))
    return True, None


def test_mc_check_skips_layers_that_cannot_carry_a_defect(diamond, sphere):
    """On sparse elements, whose absent layers are zero, mc_check gives
    the verdict and the first failing layer of the full layerwise loop."""
    rng = random.Random("mc:sparse")
    seen = {True: 0, False: 0, "outside": 0}
    for p in (diamond, sphere):
        simp = SimplicialCarrier(p)
        for car in (simp, NoDifferential(simp)):
            for _ in range(10):
                order = rng.randint(1, 7)
                layers = rng.sample(range(1, order + 1), rng.randint(0, min(3, order)))
                terms = {}
                for n in layers:
                    if rng.random() < 0.5:
                        terms[n] = face_sum(p, simp.random_elem(1, rng))
                    else:
                        terms[n] = simp.random_elem(2, rng)
                e = MCElement(order, terms)
                got = mc_check(p, e, car)
                assert got == mc_check_every_layer(p, e, car)
                seen[got[0]] += 1
                seen["outside"] += not got[0] and got[1][0] not in terms
    assert seen[True] >= 1 and seen[False] >= 1 and seen["outside"] >= 1


def test_mc_check_counts_the_2_chains_of_mult(monkeypatch):
    """mult() is the constant 1 on the weak 2-chains, which diamond has 70
    vertices' worth of, with its 0- and 1-chains.  Past a budget one lower,
    mc_check raises TooLarge and builds no 2-chain."""
    p = diamond_poset()
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 69)
    with pytest.raises(TooLarge):
        mc_check(p, MCElement(1, {}))
    assert (2, False) not in p._chains


def test_mc_check_is_one_curvature_sum(sphere, monkeypatch):
    """dW + W o W as one signed sum of the six insertions m o_j X,
    X o_j m and X o_j X (j = 1, 2) on X, an int-valued evaluation of the
    series-valued W on the same chains: not a loop over layers, not a
    sum of separately built composites, and no series composed."""
    z = closed_2_rep(sphere)
    e = MCElement(3, {1: z, 2: z.scale(Fraction(2)), 3: z.scale(Fraction(-1, 3))})
    assert set(e.terms) == {1, 2, 3}
    calls = {"curvature": 0, "compose_into": 0, "compose_at": 0}

    def counted(*args, _f=deform.curvature):
        calls["curvature"] += 1
        x = args[1]
        assert x.degree == 2 and x.values.keys() == e.w.values.keys()
        assert all(type(v) is int for v in x.values.values())
        return _f(*args)

    monkeypatch.setattr(deform, "curvature", counted)
    for name in ("compose_into", "compose_at"):
        def method(self, *args, _f=getattr(SimplicialCarrier, name), _name=name):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(SimplicialCarrier, name, method)
    assert mc_check(sphere, e)[0]
    assert calls == {"curvature": 1, "compose_into": 6, "compose_at": 0}


def test_zero_layers_are_not_terms(sphere):
    """Explicit zero layers change nothing; terms lists the nonzero ones, is
    read off the element (changing it changes nothing), and term(n) of any
    other layer is the zero 2-cochain."""
    z = closed_2_rep(sphere)
    e = MCElement(4, {1: SimpCochain(2), 2: z, 4: SimpCochain(2)})
    assert e == MCElement(4, {2: z})
    assert e.terms == {2: z}
    e.terms[3] = z
    with pytest.raises(AttributeError):
        e.terms = {3: z}
    assert e.terms == {2: z} and e == MCElement(4, {2: z})
    for n in (1, 3, 4):
        assert e.term(n) == SimpCochain(2)
    assert e.term(2) == z


def test_mc_element_round_trip(sphere):
    z = closed_2_rep(sphere)
    e = MCElement(2, {1: z, 2: z.scale(Fraction(3))})
    d = e.to_dict(sphere)
    assert MCElement.from_dict(sphere, d) == e


def test_zero_element_is_mc(diamond):
    ok, witness = mc_check(diamond, MCElement(2))
    assert ok and witness is None


def test_coboundary_is_mc(diamond):
    psi = SimplicialCarrier(diamond).random_elem(1, random.Random("mc:cob"))
    e = MCElement(1, {1: face_sum(diamond, psi)})
    assert mc_check(diamond, e)[0]


def test_cocycle_rep_is_mc(sphere):
    e = MCElement(1, {1: closed_2_rep(sphere)})
    assert mc_check(sphere, e)[0]
    assert is_witt_cocycle(sphere, e.w)


def test_degenerate_supported_non_cocycle(cr4):
    e = crown_non_cocycle(cr4)
    ok, witness = mc_check(cr4, e)
    assert not ok
    layer, chain = witness
    assert layer == 1
    assert list(chain) == ["a", "a", "a", "c"]
    assert not is_witt_cocycle(cr4, e.w)


def test_witt_round_trip(sphere):
    """An element and its Witt cochain are one object: MCElement.of wraps
    e.w without copying and gives back an equal element."""
    car = SimplicialCarrier(sphere)
    rng = random.Random("witt:rt")
    for order in (1, 2, 3):
        e = MCElement(
            order, {n: car.random_elem(2, rng) for n in range(1, order + 1)}
        )
        w = e.w
        assert w.degree == 2 and {s.order for s in w.values.values()} == {order}
        back = MCElement.of(order, w)
        assert back == e and back.w is w


def test_witt_cochain_group_ops(diamond):
    car = SimplicialCarrier(diamond)
    rng = random.Random("witt:grp")
    e1 = MCElement(2, {1: car.random_elem(2, rng), 2: car.random_elem(2, rng)})
    e2 = MCElement(2, {1: car.random_elem(2, rng)})
    a, b = e1.w, e2.w
    assert witt_mul(witt_mul(a, b), witt_inverse(b)) == a
    assert witt_mul(a, witt_inverse(a)) == SimpCochain(2)


def test_witt_cochain_requires_unit_values():
    """A Witt value v reads as the unit 1 + v, so v needs constant term 0
    (the unit constant term 1); log refuses any other."""
    c = (0, 0, 0)
    for bad in (TruncSeries(1, [1, 1]), TruncSeries(1, [-1, 1])):
        with pytest.raises(DomainError):
            witt_log_layers(SimpCochain(2, {c: bad}), 1)
    logs = witt_log_layers(SimpCochain(2, {c: TruncSeries(1, [0, 1])}), 1)
    assert logs == {1: SimpCochain(2, {c: 1})}


def test_witt_cochain_names_a_value_that_is_not_a_series(diamond):
    with pytest.raises(TypeError, match="Fraction"):
        witt_coboundary(diamond, SimpCochain(1, {(0, 0): Fraction(1)}))


def test_mc_element_of_needs_degree_two():
    with pytest.raises(UnsupportedDegree):
        MCElement.of(1, SimpCochain(1))


def test_witt_coboundary_degree_window(diamond):
    with pytest.raises(UnsupportedDegree):
        witt_coboundary(diamond, SimpCochain(3))
    one = witt_coboundary(diamond, SimpCochain(1))
    assert one == SimpCochain(2)


def test_coboundary_of_coboundary_is_trivial(diamond):
    car = SimplicialCarrier(diamond)
    rng = random.Random("witt:dd")
    layers = {1: car.random_elem(1, rng), 2: car.random_elem(1, rng)}
    w = witt_exp(1, 2, layers)
    assert is_witt_cocycle(diamond, witt_coboundary(diamond, w))


def test_log_transport(diamond):
    """The multiplicative coboundary of a pointwise exponential is the
    pointwise exponential of the additive coboundaries."""
    car = SimplicialCarrier(diamond)
    rng = random.Random("witt:log")
    order = 3
    layers = {n: car.random_elem(1, rng) for n in range(1, order + 1)}
    lhs = witt_coboundary(diamond, witt_exp(1, order, layers))
    rhs = witt_exp(2, order, {n: face_sum(diamond, c) for n, c in layers.items()})
    assert lhs == rhs


def test_exp_log_layers_round_trip(diamond):
    car = SimplicialCarrier(diamond)
    rng = random.Random("witt:el")
    layers = {1: car.random_elem(2, rng), 2: car.random_elem(2, rng)}
    w = witt_exp(2, 2, layers)
    back = witt_log_layers(w, 2)
    assert back[1] == layers[1] and back[2] == layers[2]


def exp_coboundary(p, order, j, psi):
    """exp(d(psi) lam**j) on p, an MC element: on chain4, which has strict
    3-chains, its linear term cancels a nonzero quadratic one."""
    return MCElement.of(order, witt_exp(2, order, {j: differential(SimplicialCarrier(p), psi)}))


def mc_witt_agreement(diamond, cr4):
    """Sampled form of the central equivalence: {verdict: count} of
    mc_check over mixed elements, how often is_witt_cocycle disagreed,
    and how many of the MC elements had W o W != 0."""
    rng = random.Random("mc:equiv")
    seen, disagreements, quadratic = {True: 0, False: 0}, 0, 0
    elements = []
    for p in (diamond, cr4):
        car = SimplicialCarrier(p)
        for _ in range(15):
            order = rng.randint(1, 2)
            terms = {}
            for n in range(1, order + 1):
                if rng.random() < 0.5:
                    terms[n] = face_sum(p, car.random_elem(1, rng))
                else:
                    terms[n] = car.random_elem(2, rng)
            elements.append((p, car, MCElement(order, terms)))
    chain4 = chain_poset(4)
    car = SimplicialCarrier(chain4)
    for _ in range(6):
        order = rng.randint(2, 4)
        psi = car.random_elem(1, rng)
        e = exp_coboundary(chain4, order, rng.randint(1, order // 2), psi)
        elements.append((chain4, car, e))
    for p, car, e in elements:
        ok = mc_check(p, e)[0]
        disagreements += ok != is_witt_cocycle(p, e.w)
        seen[ok] += 1
        quadratic += ok and not circle(car, e.w, e.w).is_zero()
    return seen, disagreements, quadratic


def test_mc_agrees_with_witt_cocycle_condition(diamond, cr4):
    """Also on chain4, where dW cancels a nonzero W o W."""
    seen, disagreements, quadratic = mc_witt_agreement(diamond, cr4)
    assert disagreements == 0
    assert seen[True] >= 1 and seen[False] >= 1
    assert quadratic >= 1


def witt_coboundary_mutant(monkeypatch, parity):
    """Replace deform.witt_coboundary by its own source with the test for
    which faces to invert, "if i % 2:", rewritten as parity."""
    src = inspect.getsource(deform.witt_coboundary)
    assert src.count("if i % 2:") == 1
    ns = dict(vars(deform))
    exec(src.replace("if i % 2:", "if %s:" % parity), ns)
    monkeypatch.setattr(deform, "witt_coboundary", ns["witt_coboundary"])


def test_wrong_inverse_parity_is_killed_by_the_mc_witt_agreement(
    diamond, cr4, monkeypatch
):
    """The last face of a 3-chain multiplied in uninverted: the Witt side
    then calls cocycles non-cocycles, and disagrees with mc_check."""
    witt_coboundary_mutant(monkeypatch, "i % 2 and i < n + 1")
    assert mc_witt_agreement(diamond, cr4)[1] >= 1


def test_every_parity_flipped_is_killed_by_the_gauge_recheck(
    diamond, cr4, sphere, monkeypatch
):
    """Inverting the even faces instead of the odd ones gives the exact
    inverse of every coboundary, so no cocycle test can see it: the
    agreement above still holds.  gauge_equivalent's exact re-check of
    d(phi) * e2.w = e1.w does see it."""
    z = closed_2_rep(sphere)
    psi = SimplicialCarrier(sphere).random_elem(1, random.Random("mc:parity"))
    e1 = MCElement(1, {1: z})
    e2 = MCElement(1, {1: z.add(face_sum(sphere, psi))})
    assert gauge_equivalent(sphere, e1, e2) is not None
    witt_coboundary_mutant(monkeypatch, "i % 2 == 0")
    assert mc_witt_agreement(diamond, cr4)[1] == 0
    with pytest.raises(AssertionError, match="exact re-check"):
        gauge_equivalent(sphere, e1, e2)


def test_gauge_reflexive(sphere):
    e = MCElement(1, {1: closed_2_rep(sphere)})
    w = gauge_equivalent(sphere, e, e)
    assert w is not None
    assert witt_mul(witt_coboundary(sphere, w), e.w) == e.w


def test_gauge_distinguishes_scalings(sphere):
    z = closed_2_rep(sphere)
    e1 = MCElement(1, {1: z})
    e2 = MCElement(1, {1: z.scale(Fraction(2))})
    assert gauge_equivalent(sphere, e1, e2) is None


def test_gauge_absorbs_coboundaries(sphere):
    z = closed_2_rep(sphere)
    psi = SimplicialCarrier(sphere).random_elem(1, random.Random("gauge:cob"))
    e1 = MCElement(1, {1: z})
    e2 = MCElement(1, {1: z.add(face_sum(sphere, psi))})
    w = gauge_equivalent(sphere, e1, e2)
    assert w is not None
    assert witt_mul(witt_coboundary(sphere, w), e2.w) == e1.w


def twist(p, e, layers):
    """Gauge e by the exponential of the given 1-cochain layers."""
    w = witt_exp(1, e.order, layers)
    return MCElement.of(e.order, witt_mul(witt_inverse(witt_coboundary(p, w)), e.w))


def test_gauge_symmetric_and_transitive(sphere):
    z = closed_2_rep(sphere)
    car = SimplicialCarrier(sphere)
    rng = random.Random("gauge:st")
    e1 = MCElement(2, {1: z})
    e2 = twist(sphere, e1, {1: car.random_elem(1, rng)})
    e3 = twist(sphere, e2, {2: car.random_elem(1, rng)})
    assert mc_check(sphere, e2)[0] and mc_check(sphere, e3)[0]
    w12 = gauge_equivalent(sphere, e1, e2)
    w21 = gauge_equivalent(sphere, e2, e1)
    w23 = gauge_equivalent(sphere, e2, e3)
    assert w12 is not None and w21 is not None and w23 is not None
    assert witt_mul(witt_coboundary(sphere, w21), e1.w) == e2.w
    # composing the two witnesses witnesses the composite relation
    w13 = witt_mul(w12, w23)
    assert witt_mul(witt_coboundary(sphere, w13), e3.w) == e1.w
    assert gauge_equivalent(sphere, e1, e3) is not None


def test_gauge_at_order_20(sphere):
    """exp(z lam) at order 20 and its twist by layers at lam, lam^5 and
    lam^20: both MC, equivalent with a witness that passes the exact
    re-check, and inequivalent to exp(2z lam)."""
    z = closed_2_rep(sphere)
    car = SimplicialCarrier(sphere)
    rng = random.Random("gauge:20")
    e1 = MCElement.of(20, witt_exp(2, 20, {1: z}))
    e2 = twist(sphere, e1, {n: car.random_elem(1, rng) for n in (1, 5, 20)})
    assert e1.order == e2.order == 20 and e2 != e1
    assert mc_check(sphere, e1)[0] and mc_check(sphere, e2)[0]
    w = gauge_equivalent(sphere, e2, e1)
    assert w is not None and {s.order for s in w.values.values()} == {20}
    assert witt_mul(witt_coboundary(sphere, w), e1.w) == e2.w
    e3 = MCElement.of(20, witt_exp(2, 20, {1: z.scale(2)}))
    assert mc_check(sphere, e3)[0]
    assert gauge_equivalent(sphere, e1, e3) is None


def gauge_reference(p, e1, e2):
    """The per-layer loop of the former gauge_equivalent, verbatim after
    its MC checks: one solve_in_image per lam-layer."""
    order = e1.order
    w1, w2 = e1.w, e2.w
    ratio = witt_mul(w1, witt_inverse(w2))
    target = witt_log_layers(ratio, order)

    rows = p.chains(2)
    cols = p.chains(1)
    rowof = {ch: k for k, ch in enumerate(rows)}
    mat = coboundary_matrix(p, 1, strict=False)

    psi = {}
    for n in range(1, order + 1):
        b = [Fraction(0)] * len(rows)
        for ch, v in target[n].values.items():
            b[rowof[ch]] = Fraction(v, target[n].den)
        sol = solve_in_image(mat, b)
        if sol is None:
            return None
        layer = SimpCochain(1, zip(cols, sol))
        if not layer.is_zero():
            psi[n] = layer

    phi = witt_exp(1, order, psi)
    if witt_mul(witt_coboundary(p, phi), w2) != w1:
        raise AssertionError("gauge witness failed the exact re-check")
    return phi


def test_gauge_solves_every_layer_from_one_elimination(sphere, monkeypatch):
    """Order-20 elements: a twist of exp(z lam + z lam^3) by layers at lam,
    lam^2, lam^7 and lam^20 is equivalent to it, and exp(z lam + z lam^3 +
    z lam^5) is not, first at lam^5.  Each gauge_equivalent call runs one
    elimination, and its witness or None is the per-layer loop's."""
    z = closed_2_rep(sphere)
    car = SimplicialCarrier(sphere)
    rng = random.Random("gauge:one")
    e1 = MCElement.of(20, witt_exp(2, 20, {1: z, 3: z}))
    e2 = twist(sphere, e1, {n: car.random_elem(1, rng) for n in (1, 2, 7, 20)})
    e3 = MCElement.of(20, witt_exp(2, 20, {1: z, 3: z, 5: z}))
    calls = []
    eliminate = linalg._eliminate

    def counting(mat):
        calls.append(mat)
        return eliminate(mat)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    for a, b, equivalent in ((e2, e1, True), (e1, e2, True), (e1, e3, False), (e3, e2, False)):
        calls.clear()
        got = gauge_equivalent(sphere, a, b)
        assert len(calls) == 1
        assert (got is not None) is equivalent
        assert got == gauge_reference(sphere, a, b)


def test_gauge_preconditions(sphere, cr4):
    z = closed_2_rep(sphere)
    e1 = MCElement(1, {1: z})
    with pytest.raises(ValueError):
        gauge_equivalent(sphere, e1, MCElement(2))
    bad = crown_non_cocycle(cr4)
    with pytest.raises(NotMC):
        gauge_equivalent(cr4, bad, MCElement(1))


def test_moduli_dimensions(cr4, diamond, sphere):
    for order in (1, 2):
        dim, basis = moduli(cr4, order)
        assert dim == 0 and basis == []
        dim, basis = moduli(diamond, order)
        assert dim == 0 and basis == []
    for order in (1, 2, 3):
        dim, basis = moduli(sphere, order)
        assert dim == order
        assert len(basis) == dim
        for e in basis:
            assert e.order == order
            assert mc_check(sphere, e)[0]


def test_moduli_exp_corrects_a_representative_with_a_quadratic_term(
    sphere, cr4, monkeypatch
):
    """On S^2 x S^1, w = z + d psi is an H^2 representative with w o w != 0,
    so lam w fails MC and moduli replaces it by exp(lam w) - 1; lam^2 w
    passes as it is at order 2.  Every basis element is then MC and a Witt
    cocycle; without the correction the first would fail mc_check."""
    p = product_poset(sphere, cr4)
    (z,) = deform._strict_h2_reps(p)
    rng = random.Random("deform:exp-correction")
    psi = SimpCochain(1, {c: rng.randint(-2, 2) for c in p.chains(1, strict=True)})
    w = z + face_sum(p, psi)
    assert circle(SimplicialCarrier(p), w, w).values
    monkeypatch.setattr(deform, "_strict_h2_reps", lambda q: [w])
    corrected = []

    def counted(degree, order, layers):
        corrected.append(sorted(layers))
        return witt_exp(degree, order, layers)

    monkeypatch.setattr(deform, "witt_exp", counted)
    dim, basis = moduli(p, 2)
    assert dim == 2 and corrected == [[1]]
    for e in basis:
        assert mc_check(p, e) == (True, None)
        assert is_witt_cocycle(p, e.w)


def test_moduli_skips_the_kernel_when_b2_is_zero(cr4, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel vector computed although b2 = 0")

    monkeypatch.setattr(linalg, "_back_substitute", refuse)
    assert moduli(cr4, 3) == (0, [])


def test_moduli_and_gauge_build_one_carrier(sphere, monkeypatch):
    built = []

    class Counted(SimplicialCarrier):
        def __init__(self, poset):
            super().__init__(poset)
            built.append(self)

    monkeypatch.setattr(deform, "SimplicialCarrier", Counted)
    dim, basis = moduli(sphere, 3)
    assert dim == 3 and len(built) == 1
    built.clear()
    assert gauge_equivalent(sphere, basis[0], basis[0]) is not None
    assert len(built) == 1


def test_moduli_basis_combinations_are_inequivalent(sphere):
    z = closed_2_rep(sphere)
    combos = {}
    for a in (0, 1):
        for b in (0, 1):
            layers = {}
            if a:
                layers[1] = z
            if b:
                layers[2] = z
            combos[(a, b)] = MCElement.of(2, witt_exp(2, 2, layers))
    for k1, e1 in combos.items():
        assert mc_check(sphere, e1)[0]
        for k2, e2 in combos.items():
            w = gauge_equivalent(sphere, e1, e2)
            if k1 == k2:
                assert w is not None
            else:
                assert w is None


def test_deformed_product_series(sphere):
    z = closed_2_rep(sphere)
    e = MCElement(2, {1: z})
    F = deformation_product(sphere, e)
    ch = sphere.chains(2)[0]
    series = F.value(ch)
    assert F.degree == 2 and series.order == 2
    assert series.coeffs[0] == 1 and series.coeffs[1] == z.value(ch)


def test_associativity_witness_matches_mc(sphere, cr4):
    e = MCElement(1, {1: closed_2_rep(sphere)})
    assert associativity_witness(sphere, e) is None
    bad = crown_non_cocycle(cr4)
    w = associativity_witness(cr4, bad)
    assert w is not None
    assert mc_check(cr4, bad)[1][1] == w


def test_doctored_carrier_breaks_the_equivalence(diamond):
    """mc_check with a sign-flipped carrier must disagree with the Witt
    side somewhere."""
    car = SimplicialCarrier(diamond)
    bad = SignFlip(car)
    rng = random.Random("mc:flip")
    disagreements = 0
    for _ in range(30):
        terms = {1: face_sum(diamond, car.random_elem(1, rng))}
        if rng.random() < 0.5:
            terms[2] = car.random_elem(2, rng)
            e = MCElement(2, terms)
        else:
            e = MCElement(1, terms)
        if mc_check(diamond, e, carrier=bad)[0] != is_witt_cocycle(diamond, e.w):
            disagreements += 1
    assert disagreements >= 1
