"""Randomized law suites run green on both carriers and catch sabotage."""

import ast
import inspect
import json
from pathlib import Path

import pytest

from posetdeform import opcore
from posetdeform.deform import mc_check, moduli
from posetdeform.gsiso import verify_morphism
from posetdeform.hochschild import RelHochschildCarrier
from posetdeform.opcore import SignFlip
from posetdeform.simplicial import SimplicialCarrier
from posetdeform import suites
from posetdeform.suites import (
    SUITES,
    brace_suite,
    dgla_suite,
    hga_suite,
    operad_suite,
)


def carriers(p):
    return [SimplicialCarrier(p), RelHochschildCarrier(p)]


def test_suite_registry():
    assert list(SUITES) == ["operad", "brace", "hga", "dgla", "iso"]
    assert SUITES["operad"] is operad_suite
    assert SUITES["iso"] is verify_morphism


def test_suites_imports_nothing_from_gsiso():
    """gsiso builds on suites and registers "iso" itself; an import the
    other way round would make the two modules a cycle again."""
    tree = ast.parse(Path(suites.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not [m for m in imported if "gsiso" in m.split(".")], imported


@pytest.mark.parametrize("name", sorted(SUITES))
def test_laws_hold_on_both_carriers(diamond, name):
    for car in carriers(diamond):
        rep = SUITES[name](car, samples=4, seed=0)
        assert rep.ok, rep.failures
        assert rep.failed == 0
        assert rep.checks > 0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_sign_sabotage_is_detected(diamond, name):
    for car in carriers(diamond):
        rep = SUITES[name](SignFlip(car), samples=4, seed=0)
        assert rep.failed >= 1


@pytest.mark.parametrize("name", sorted(SUITES))
def test_sign_sabotage_witnesses_name_a_chain(diamond, name):
    """The two sides of every law have one degree, zeros included, so each
    failure recorded under SignFlip names the first chain where they
    differ, never a mismatch of arity."""
    for car in carriers(diamond):
        rep = SUITES[name](SignFlip(car), samples=3, seed=1)
        assert rep.failures
        for f in rep.failures:
            assert f["witness"].startswith("("), f


SIGNFLIP_GOLDEN = Path(__file__).resolve().parent / "golden" / "signflip_suites.json"


def signflip_reports(posets):
    """to_dict of every suite under SignFlip on the simplicial carrier of
    each poset, at samples 3, seed 1 and max-degree 3: its failures and
    their witnesses, which read the values of both sides by key."""
    return {p.name: [SUITES[name](SignFlip(SimplicialCarrier(p)), samples=3, seed=1,
                                  max_degree=3).to_dict() for name in SUITES]
            for p in posets}


def test_sign_sabotage_reports_match_golden(diamond, cr4):
    """The failure lists and witnesses under SignFlip on diamond and cr4,
    byte for byte, against a file captured before dense composites kept
    only their vectors."""
    got = json.dumps(signflip_reports([diamond, cr4]), indent=2, sort_keys=True) + "\n"
    assert got.encode() == SIGNFLIP_GOLDEN.read_bytes()


class SlotOneFlip:
    """A mutant carrier, kept out of the package: it negates every
    insertion into slot 1, through compose_at and the kernel alike."""

    def __init__(self, base):
        self.base = base
        self.name = base.name + "+slot1flip"

    def compose_at(self, f, j, g):
        out = self.base.compose_at(f, j, g)
        return -out if j == 1 else out

    def compose_into(self, out, s, f, j, g):
        self.base.compose_into(out, -s if j == 1 else s, f, j, g)

    def __getattr__(self, attr):
        return getattr(self.base, attr)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_slot_one_flip_is_detected(diamond, name):
    """Every suite, the operad and iso suites first among them, reports
    failures on the slot-1 mutant of either carrier."""
    for car in carriers(diamond):
        rep = SUITES[name](SlotOneFlip(car), samples=4, seed=0)
        assert rep.failed >= 1, name


def test_slot_one_flip_fails_every_mc_element(sphere):
    """mc_check on the slot-1 mutant rejects each basis element of the
    order-1 and order-2 moduli of sphere14, all of which are MC."""
    car = SimplicialCarrier(sphere)
    bad = SlotOneFlip(car)
    for order in (1, 2):
        for e in moduli(sphere, order)[1]:
            assert mc_check(sphere, e, car)[0]
            assert not mc_check(sphere, e, bad)[0]


def test_shared_constants_survive_every_suite(diamond):
    """identity() and mult() are built once per carrier and handed to
    every caller; after all five suites on one carrier they are still
    the constants 1."""
    for car in carriers(diamond):
        for name in SUITES:
            assert SUITES[name](car, samples=3, seed=0).ok, name
        assert car.mult() is car.mult()
        assert car.identity() is car.identity()
        assert car.mult() == car.constant(2)
        assert car.identity() == car.constant(1)


def test_report_shape(diamond):
    rep = operad_suite(SimplicialCarrier(diamond), samples=2, seed=7)
    d = rep.to_dict()
    assert d["suite"] == "operad"
    assert d["poset"] == "diamond"
    assert d["samples"] == 2 and d["seed"] == 7
    assert d["ok"] is True and d["failed"] == 0
    assert d["failures"] == []
    assert d["checks"] == rep.checks


def test_failures_record_witnesses(diamond):
    rep = dgla_suite(SignFlip(SimplicialCarrier(diamond)), samples=3, seed=0)
    assert rep.failed >= len(rep.failures) >= 1
    assert len(rep.failures) <= 25
    f = rep.failures[0]
    assert set(f) == {"check", "degrees", "witness"}


def test_transcripts_are_deterministic(cr4):
    a = hga_suite(SimplicialCarrier(cr4), samples=3, seed=5).to_dict()
    b = hga_suite(SimplicialCarrier(cr4), samples=3, seed=5).to_dict()
    assert a == b


def test_brace_suite_runs_on_crown(cr4):
    for car in carriers(cr4):
        rep = brace_suite(car, samples=3, seed=2)
        assert rep.ok


BRACE_SIGN = "eps += shifted[p] * i_p"


@pytest.mark.parametrize(
    "mutant", ["eps += shifted[p] * (i_p + 1)", "eps += arities[p] * i_p"]
)
def test_an_off_by_one_brace_sign_is_killed(diamond, cr4, sphere, monkeypatch, mutant):
    """opcore._brace_terms with its insertion sign off by one, in the
    count of inputs before a block or in the degree of the block: the
    brace, hga and dgla suites report failures on every poset.  iso
    reports none, and cannot: both of its sides build their braces,
    circles and differentials from the same opcore, so the mutant changes
    them alike."""
    src = inspect.getsource(opcore._brace_terms)
    assert src.count(BRACE_SIGN) == 1
    ns = dict(vars(opcore))
    exec(src.replace(BRACE_SIGN, mutant), ns)
    monkeypatch.setattr(opcore, "_brace_terms", ns["_brace_terms"])
    for poset in (diamond, cr4, sphere):
        car = SimplicialCarrier(poset)
        for name in ("brace", "hga", "dgla"):
            rep = SUITES[name](car, samples=2, seed=0, max_degree=2)
            assert rep.failed >= 1, (poset.name, name)
        assert SUITES["iso"](car, samples=2, seed=0, max_degree=2).ok, poset.name
