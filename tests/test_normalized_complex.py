"""The normalized relative Hochschild complex that hh_dims ranks by default.

The relative cochains that vanish whenever an argument lies in the
diagonal are the cochains on strict chains.  They form a subcomplex
quasi-isomorphic to the whole relative complex (Loday, Cyclic Homology,
1.5.7; Cibils, JPAA 56, 1989), so strict and weak relative dimensions are
equal, and by Gerstenhaber-Schack equal to the nerve's.  hh_dims relies on
d keeping strict unit keys on strict keys, and refuses, naming the key,
wherever it would not."""

import time

import pytest

from posetdeform import posets
from posetdeform.hochschild import RelHochschildCarrier, hh_dims
from posetdeform.opcore import differential
from posetdeform.posets import TooLarge, chain_poset, crown_poset, diamond_poset, sphere_poset
from posetdeform.simplicial import SimpCochain, cohomology_dims
from poset_builders import levels_poset, product_poset

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from poset_strategies import level_posets


def s2_x_s1():
    """sphere14 x cr4: 56 elements, the nerve S^2 x S^1 (Walker)."""
    return product_poset(sphere_poset(), crown_poset())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(level_posets())
def test_strict_and_weak_relative_and_nerve_dimensions_agree(p):
    strict = hh_dims(p, 3, "relative")
    assert strict == hh_dims(p, 3, "relative", strict=False)
    assert strict == cohomology_dims(p, 3, strict=True)


@pytest.mark.parametrize("build", [diamond_poset, crown_poset, sphere_poset, s2_x_s1])
def test_d_keeps_every_strict_unit_key_on_strict_keys(build):
    """d = [m, -] of the unit cochain on each strict chain, one at a time,
    up to the height of the poset: every output key is a strict chain."""
    p = build()
    car, n = RelHochschildCarrier(p), 0
    while keys := p.chains(n, strict=True):
        for key in keys:
            for out in differential(car, SimpCochain._of(n, {key: 1})).values:
                assert all(a != b for a, b in zip(out, out[1:])), (key, out)
        n += 1
    assert n == {"diamond": 3, "cr4": 2, "sphere14": 3}.get(p.name, 4)


def test_an_output_key_outside_the_strict_keys_is_refused_by_name(diamond, monkeypatch):
    """A structure constant doctored to 0 where x o_1 m glues a chain that
    repeats its first element breaks the cancellation of the degenerate
    terms: d of a strict unit key then reaches a weak chain, and hh_dims
    raises ValueError naming it, rather than dropping the entry."""
    true = RelHochschildCarrier._structure

    def structure(car, j, q, c):
        return 0 if (j, q) == (1, 2) and c[0] == c[1] else true(car, j, q, c)

    monkeypatch.setattr(RelHochschildCarrier, "_structure", structure)
    with pytest.raises(ValueError, match=r"unit keys at \((\d+), \1, \d+\)$"):
        hh_dims(diamond, 2, "relative")


def test_degrees_past_the_height_read_zero_and_build_nothing():
    """diamond has height 2: degree 40 answers at once, and no strict
    level past 3, the first empty one, is built."""
    p = diamond_poset()
    start = time.perf_counter()
    assert hh_dims(p, 40, "relative") == [1] + [0] * 40
    assert time.perf_counter() - start < 1
    assert max(n for n, strict in p._chains if strict) == 3


def test_nerve_degrees_past_the_height_read_zero_and_build_nothing():
    """cohomology_dims ends where hh_dims does: on diamond, degree 40
    ranks only to level 3, the first empty one, and Poset.chains reads a
    level past it as () without building or keeping it."""
    p = diamond_poset()
    assert cohomology_dims(p, 40) == [1] + [0] * 40
    assert p.chains(40, strict=True) == ()
    assert max(n for n, strict in p._chains if strict) == 3


def test_slot_widths_past_four_bits():
    """levels_poset(8, 2) is S^7, the 8-fold suspension of S^0, on 16
    elements: in strict degrees 6 and 7 the slot width of the packed
    differential, b = (n + 2).bit_length() + 1, is 5 bits."""
    p = levels_poset(8, 2)
    expected = [1, 0, 0, 0, 0, 0, 0, 1, 0]
    assert hh_dims(p, 8, "relative") == cohomology_dims(p, 8) == expected


def test_strict_chains_are_counted_against_the_budget(monkeypatch):
    """chain12's strict chains are its nonempty subsets: those of degrees
    0..11 hold 12 * 2**11 = 24,576 vertices.  They are counted against
    posets.CHAIN_BUDGET before any strict level is built."""
    p = chain_poset(12)
    assert sum((k + 1) * c for k, c in enumerate(p.chain_counts(11, strict=True))) == 24576
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 24575)
    with pytest.raises(TooLarge, match="strict chains of degrees 0..11"):
        hh_dims(p, 10, "relative")
    assert not any(strict for _, strict in p._chains)


def test_the_strict_complex_needs_no_degree_cap():
    """S^2 x S^1 to degree 5: Betti numbers 1, 1, 1, 1 by Kunneth, and 0
    past its dimension."""
    p = s2_x_s1()
    assert hh_dims(p, 5, "relative") == [1, 1, 1, 1, 0, 0] == cohomology_dims(p, 5)
