"""Poset construction, chain enumeration, and serialization."""

import gc
import json
from math import comb

import pytest
from poset_builders import le

from posetdeform import posets
from posetdeform.posets import (
    CycleDetected,
    DuplicateElement,
    Poset,
    TooLarge,
    UnknownElement,
    chain_poset,
    crown_poset,
    diamond_poset,
    sphere_poset,
)


def test_builder_names_and_sizes():
    assert chain_poset(2).name == "chain2" and chain_poset(2).n == 2
    assert chain_poset(3).name == "chain3" and chain_poset(3).n == 3
    assert diamond_poset().name == "diamond" and diamond_poset().n == 4
    assert crown_poset().name == "cr4" and crown_poset().n == 4
    assert sphere_poset().name == "sphere14" and sphere_poset().n == 14


def test_chain3_strict_chains():
    p = chain_poset(3)
    assert len(p.chains(1, strict=True)) == 3
    assert len(p.chains(2, strict=True)) == 1
    labels = p.chain_labels(p.chains(2, strict=True)[0])
    assert list(labels) == ["0", "1", "2"]


def test_diamond_chain_counts(diamond):
    assert [len(diamond.chains(n)) for n in range(4)] == [4, 9, 16, 25]
    assert [len(diamond.chains(n, strict=True)) for n in range(4)] == [4, 5, 2, 0]


def test_crown_has_no_strict_2_chains(cr4):
    assert len(cr4.intervals()) == 8
    assert len(cr4.chains(1, strict=True)) == 4
    assert cr4.chains(2, strict=True) == ()


def test_sphere_chain_counts(sphere):
    assert [len(sphere.chains(n, strict=True)) for n in range(4)] == [14, 36, 24, 0]
    assert len(sphere.intervals()) == 50
    assert len(sphere.chains(3)) == 194


def test_chains_leave_no_cyclic_garbage():
    """Building chains leaves nothing that only the cyclic collector
    frees: with it switched off, a collection afterwards finds nothing."""
    p = sphere_poset()
    gc.collect()
    gc.disable()
    try:
        for strict in (False, True):
            for n in range(4):
                p.chains(n, strict=strict)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_deep_level_is_built_without_recursion():
    """Levels are built bottom-up in a loop, so degree 1500 of a
    one-element poset is one chain of 1,501 entries, not a RecursionError."""
    assert chain_poset(1).chains(1500) == ((0,) * 1501,)


def test_a_refused_level_builds_nothing(monkeypatch):
    """sphere14's weak chains to degree 3 hold 1,220 vertices.  Past a
    budget one lower, chains(3) raises TooLarge and adds no level, not
    even the ones below it that were not built yet."""
    p = sphere_poset()
    p.chains(1)
    before = dict(p._chains)
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1219)
    with pytest.raises(TooLarge):
        p.chains(3)
    assert p._chains == before
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1220)
    assert len(p.chains(3)) == 194


def test_weak_counts_from_strict_counts(chain3, diamond, cr4, sphere):
    # a weak n-chain is a strict k-chain with entries repeated, and the
    # number of repetition patterns is C(n, k)
    for p in (chain3, diamond, cr4, sphere):
        strict = [len(p.chains(k, strict=True)) for k in range(5)]
        for n in range(5):
            expected = sum(strict[k] * comb(n, k) for k in range(n + 1))
            assert len(p.chains(n)) == expected


def test_chains_are_sorted_tuples(diamond):
    for n in range(3):
        for strict in (False, True):
            cs = diamond.chains(n, strict=strict)
            assert isinstance(cs, tuple)
            assert list(cs) == sorted(cs)


def test_from_relations_takes_transitive_closure():
    p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert le(p, p.index("a"), p.index("c"))
    assert not le(p, p.index("c"), p.index("a"))


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Poset.from_relations(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_element():
    with pytest.raises(DuplicateElement):
        Poset.from_relations(["x", "x"], [])


def test_unknown_element():
    with pytest.raises(UnknownElement):
        Poset.from_relations(["a"], [("a", "zzz")])
    with pytest.raises(UnknownElement):
        diamond_poset().index("nope")


def test_chain_label_round_trip(diamond):
    for c in diamond.chains(2):
        labels = diamond.chain_labels(c)
        assert tuple(map(diamond.index, labels)) == c


def test_json_round_trip(tmp_path, diamond):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diamond.to_dict(), indent=2, sort_keys=True))
    q = Poset.from_dict(json.loads(path.read_text()))
    assert q.name == diamond.name
    assert list(q.labels) == list(diamond.labels)
    for n in range(4):
        assert q.chains(n) == diamond.chains(n)
        assert q.chains(n, strict=True) == diamond.chains(n, strict=True)


def test_to_dict_writes_the_cover_relations():
    """A chain of 300 is written as its 299 covers, not its 44,850
    comparable pairs, and reads back to the same up-sets."""
    p = chain_poset(300)
    d = p.to_dict()
    assert len(d["relations"]) == 299
    assert Poset.from_dict(d).upsets == p.upsets


def test_reflexivity_and_antisymmetry(cr4, diamond):
    for p in (cr4, diamond):
        for i in range(p.n):
            assert le(p, i, i)
            for j in range(p.n):
                if i != j:
                    assert not (le(p, i, j) and le(p, j, i))
