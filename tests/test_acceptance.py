"""End-to-end acceptance runs, one printed verdict line per criterion.

Each test prints PASS/FAIL with the criterion number so the pytest
transcript doubles as the acceptance report.  All checks are exact."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from posetdeform import cli
from posetdeform.deform import (
    MCElement,
    gauge_equivalent,
    is_witt_cocycle,
    mc_check,
    moduli,
    witt_coboundary,
    witt_exp,
    witt_mul,
)
from posetdeform.hochschild import RelHochschildCarrier, hh_dims
from posetdeform.opcore import SignFlip
from posetdeform.simplicial import SimpCochain, SimplicialCarrier, cohomology_dims
from posetdeform.suites import SUITES

POSETS = Path(__file__).resolve().parents[1] / "posets"


def verdict(capsys, num, text, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print("FAIL criterion %d: %s" % (num, text))
        raise
    with capsys.disabled():
        print("PASS criterion %d: %s" % (num, text))


def face_sum(p, x):
    out = {}
    for c in p.chains(x.degree + 1):
        acc = Fraction(0)
        for i in range(x.degree + 2):
            acc += (-1) ** i * x.value(c[:i] + c[i + 1 :])
        if acc != 0:
            out[c] = acc
    return SimpCochain(x.degree + 1, out)


def test_criterion_1_betti_numbers(capsys, chain3, diamond, cr4, sphere):
    def check():
        start = time.monotonic()
        expected = {
            chain3: [1, 0, 0, 0],
            diamond: [1, 0, 0],
            cr4: [1, 1, 0],
            sphere: [1, 0, 1],
        }
        for p, betti in expected.items():
            n = len(betti) - 1
            assert cohomology_dims(p, n, strict=True) == betti, p.name
            assert cohomology_dims(p, n, strict=False) == betti, p.name
        assert time.monotonic() - start < 60.0

    verdict(
        capsys,
        1,
        "betti numbers on chain3, diamond, cr4, sphere14 in both modes",
        check,
    )


def test_criterion_2_morphism_verification(capsys):
    def check():
        for name in ("diamond", "cr4"):
            code = cli.main(
                [
                    "verify",
                    str(POSETS / ("%s.json" % name)),
                    "--suite",
                    "iso",
                    "--samples",
                    "200",
                    "--format",
                    "json",
                    "--no-meta",
                ]
            )
            doc = json.loads(capsys.readouterr().out)
            assert code == 0, name
            assert doc["failed"] == 0 and doc["ok"] is True, name
            assert doc["samples"] == 200
            # 16 degree pairs with p,q <= 3, at least one check per sample
            assert doc["checks"] >= 200 * 16, name

    verdict(
        capsys,
        2,
        "iso suite, 200 samples per degree pair, diamond and cr4, 0 failures",
        check,
    )


def test_criterion_3_axiom_suites(capsys, diamond):
    def check():
        for car in (SimplicialCarrier(diamond), RelHochschildCarrier(diamond)):
            for name in ("operad", "brace", "hga", "dgla"):
                rep = SUITES[name](car, samples=100, seed=0)
                assert rep.failed == 0 and rep.ok, (name, car.name)
                assert rep.samples == 100

    verdict(
        capsys,
        3,
        "operad/brace/hga/dgla suites, 100 samples, both carriers, 0 failures",
        check,
    )


def test_criterion_4_witt_equivalence(capsys, diamond, cr4):
    def check():
        rng = random.Random("acceptance:c4")
        counts = {True: 0, False: 0}
        total = 0
        for p in (diamond, cr4):
            car = SimplicialCarrier(p)
            for _ in range(60):
                order = rng.randint(1, 2)
                kind = rng.randrange(3)
                if kind == 0:
                    # multiplicative exponential of coboundary layers: MC
                    layers = {
                        n: face_sum(p, car.random_elem(1, rng))
                        for n in range(1, order + 1)
                    }
                    e = MCElement.of(order, witt_exp(2, order, layers))
                elif kind == 1:
                    e = MCElement(1, {1: face_sum(p, car.random_elem(1, rng))})
                else:
                    terms = {
                        n: car.random_elem(2, rng) for n in range(1, order + 1)
                    }
                    e = MCElement(order, terms)
                ok = mc_check(p, e)[0]
                assert ok == is_witt_cocycle(p, e.w)
                counts[ok] += 1
                total += 1
        assert total >= 100
        # the sample really spans both outcomes
        assert counts[True] >= 20 and counts[False] >= 20

    verdict(
        capsys,
        4,
        "mc_check equals the Witt cocycle test on 120 mixed elements",
        check,
    )


def test_criterion_5_moduli(capsys, cr4, sphere):
    def check():
        start = time.monotonic()
        for order in (1, 2, 3):
            dim, basis = moduli(cr4, order)
            assert dim == 0 and basis == []
            dim, basis = moduli(sphere, order)
            assert dim == order and len(basis) == order
            for e in basis:
                assert mc_check(sphere, e)[0]
        z = moduli(sphere, 1)[1][0].term(1)
        e1 = MCElement(1, {1: z})
        e2 = MCElement(1, {1: z.scale(Fraction(2))})
        assert gauge_equivalent(sphere, e1, e2) is None
        psi = SimplicialCarrier(sphere).random_elem(1, random.Random("acc:c5"))
        e3 = MCElement(1, {1: z.add(face_sum(sphere, psi))})
        w = gauge_equivalent(sphere, e1, e3)
        assert w is not None
        assert witt_mul(witt_coboundary(sphere, w), e3.w) == e1.w
        assert time.monotonic() - start < 300.0

    verdict(
        capsys,
        5,
        "moduli dimensions 0 on cr4 and N on sphere14, gauge classes separate",
        check,
    )


def test_criterion_6_complex_agreement(capsys, chain2, chain3, diamond):
    def check():
        for p in (chain2, chain3, diamond):
            simp = cohomology_dims(p, 2, strict=True)
            rel = hh_dims(p, 2, "relative")
            full = hh_dims(p, 2, "full")
            assert simp == rel == full, p.name

    verdict(
        capsys,
        6,
        "H^n dims agree across simplicial, relative, and full complexes",
        check,
    )


def test_criterion_7_mutation_sensitivity(capsys, diamond):
    def check():
        for name in SUITES:
            rep = SUITES[name](
                SignFlip(SimplicialCarrier(diamond)), samples=3, seed=0
            )
            assert rep.failed >= 1, name
        car = SimplicialCarrier(diamond)
        bad = SignFlip(car)
        rng = random.Random("acc:c7")
        disagreements = 0
        for _ in range(30):
            e = MCElement(1, {1: face_sum(diamond, car.random_elem(1, rng))})
            if mc_check(diamond, e, carrier=bad)[0] != is_witt_cocycle(diamond, e.w):
                disagreements += 1
        assert disagreements >= 1

    verdict(
        capsys,
        7,
        "flipped-sign mutants are caught by the iso, axiom, and Witt checks",
        check,
    )
