"""hh_dims's packed transposes against one differential per unit key.

hh_dims reads PACK_BLOCK rows of each transposed d_n off the signed
base-2**b digits of one differential; unit_route builds each row from a
differential of its own.  Both must build the same SparseMat, for either
carrier and for the relative one on weak and on strict keys, with rows
cleared or not, and across blocks; a structure constant outside the
bound the slot width rests on must never decode into wrong entries."""

import pytest

from posetdeform import hochschild
from posetdeform.hochschild import (
    PACK_BLOCK,
    FullHochschildCarrier,
    RelHochschildCarrier,
    hh_dims,
)
from posetdeform.linalg import _eliminate
from posetdeform.posets import chain_poset
from poset_builders import product_poset
import unit_route

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from poset_strategies import level_posets

CARRIERS = {"relative": RelHochschildCarrier, "full": FullHochschildCarrier}


class Captured(Exception):
    """Carries hh_dims's transpose builder out of its chain_ranks call."""


def packed_route(poset, max_n, which, strict=False):
    """hh_dims's own transpose builder, matrix(n, skip), taken from the
    chain_ranks call it would rank."""

    def grab(count, matrix):
        raise Captured(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hochschild, "chain_ranks", grab)
        with pytest.raises(Captured) as got:
            hh_dims(poset, max_n, which, strict)
    return got.value.args[0]


def assert_same(got, want):
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


def same_matrices(poset, max_n, which, strict=False):
    """Both routes build the same transpose of d_n for n <= max_n with no
    row cleared, with the pivot columns of the transpose of d_{n-1}
    cleared, as chain_ranks clears them, and with every third row cleared.
    Strict keys stop at the height of the poset, and so does the check.
    Returns the number of unit keys of each degree."""
    packed, car = packed_route(poset, max_n, which, strict), CARRIERS[which](poset)
    sizes, pivots = [], frozenset()
    for n in range(max_n + 1):
        if not unit_route.unit_keys(car, n, strict):
            break
        want = unit_route.transpose(car, n, strict=strict)
        assert_same(packed(n, frozenset()), want)
        for skip in (pivots, frozenset(range(0, want.rows, 3))):
            if skip:
                assert_same(packed(n, skip), unit_route.transpose(car, n, skip, strict))
        pivots = frozenset(c for c, _ in _eliminate(want)[0])
        sizes.append(want.rows)
    return sizes


@pytest.mark.parametrize(
    "poset_name, max_n, which",
    [
        ("chain3", 2, "full"),
        ("cr4", 2, "full"),
        ("diamond", 3, "relative"),
        ("cr4", 4, "relative"),
        ("sphere", 4, "relative"),
    ],
)
def test_packed_transposes_match_one_differential_per_unit_key(
    request, poset_name, max_n, which
):
    """The relative complex on weak and on strict keys."""
    for strict in (False, True) if which == "relative" else (False,):
        same_matrices(request.getfixturevalue(poset_name), max_n, which, strict)


def test_blocks_split_where_there_are_more_unit_keys_than_one_holds(cr4, sphere):
    """Full cr4 has 8**3 = 512 unit keys in degree 2, two blocks;
    relative sphere14 has 302 weak 4-chains, a full block and a part,
    and S^2 x S^1 has 344 strict 1-chains and 576 strict 2-chains."""
    assert same_matrices(cr4, 2, "full")[2] == 512 == 2 * PACK_BLOCK
    assert same_matrices(sphere, 4, "relative")[4] == 302
    s2_x_s1 = product_poset(sphere, cr4)
    assert same_matrices(s2_x_s1, 2, "relative", strict=True)[1:] == [344, 576]
    assert same_matrices(chain_poset(4), 1, "full")[1] == 10**2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(level_posets())
def test_packed_transposes_match_on_random_posets(p):
    same_matrices(p, 2, "relative")
    same_matrices(p, 3, "relative", strict=True)
    same_matrices(p, 1, "full")


@pytest.mark.parametrize("wrong", [2, 16])
@pytest.mark.parametrize("poset_name", ["diamond", "cr4", "sphere"])
def test_a_wrong_structure_constant_is_matched_or_refused(request, poset_name, wrong):
    """One relative structure constant doctored to 2, or to 16, which no
    slot of b <= 4 bits holds, on the last output chain c of degree n + 1,
    weak or strict, for x o_1 m (j = 1, q = 2) and for m o_2 x (j = 2,
    q = n): the doctored reference differs from the true one, and the
    packed route builds the doctored reference or raises ValueError, never
    a third matrix."""
    poset = request.getfixturevalue(poset_name)
    true = RelHochschildCarrier._structure
    for strict in (False, True):
        for n in (1, 2, 3):
            if not poset.chains(n + 1, strict):
                break
            honest = unit_route.transpose(RelHochschildCarrier(poset), n, strict=strict)
            c = poset.chains(n + 1, strict)[-1]
            for j, q in ((1, 2), (2, n)):

                def structure(car, jj, qq, cc, target=(j, q, c)):
                    return wrong if (jj, qq, cc) == target else true(car, jj, qq, cc)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(RelHochschildCarrier, "_structure", structure)
                    want = unit_route.transpose(RelHochschildCarrier(poset), n, strict=strict)
                    assert want.entries != honest.entries
                    packed = packed_route(poset, n, "relative", strict)
                    try:
                        got = packed(n, frozenset())
                    except ValueError:
                        continue
                assert_same(got, want)
