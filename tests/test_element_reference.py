"""MCElement.from_dict, which reads every layer in one pass, against the
route it replaced: SimpCochain.from_dict per layer, then MCElement(order,
terms).

The one-pass reader maps and order-checks each distinct label tuple once
per element, reads plain n and n/d with int(), and puts the values straight
into the series.  On every document it must return an equal element or
raise the same exception type with the same message as the old route, so
the faults must be reported in the same order.  Each document is read on
the diamond and then on its opposite: the same labels, the order reversed,
so a chain checked on one poset is no chain on the other."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdeform.deform import MAX_ORDER, MCElement
from posetdeform.posets import diamond_poset
from posetdeform.scalars import rational
from posetdeform.simplicial import SimpCochain
from poset_builders import opposite_poset
from test_cochain_reference import outcome

DIAMOND = diamond_poset()
POSETS = (DIAMOND, opposite_poset(DIAMOND))


def reference_cochain(poset, d):
    """SimpCochain.from_dict as it was: every entry checked in turn, then
    the constructor, which checks the chain lengths."""
    if not isinstance(d, dict):
        raise ValueError("a cochain must be a JSON object")
    degree, entries = d.get("degree"), d.get("entries", [])
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError("degree %r is not an integer >= 0" % (degree,))
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "chain" in e and "value" in e for e in entries
    ):
        raise ValueError("entries must be a list of objects with a chain and a value")
    vals, ix, up = {}, poset._index, poset.upsets
    for e in entries:
        if not isinstance(e["chain"], list):
            raise ValueError("chain %r is not a list" % (e["chain"],))
        ch = tuple([ix[lab] if lab in ix else poset.index(lab) for lab in e["chain"]])
        if not all(up[a] >> b & 1 for a, b in zip(ch, ch[1:])):
            raise ValueError("%r is not a chain" % (e["chain"],))
        if ch in vals:
            raise ValueError("chain %r is listed twice" % (e["chain"],))
        v = e["value"]
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise ValueError("value %r is not a string or an integer" % (v,))
        try:
            vals[ch] = rational(v)
        except ZeroDivisionError:
            raise ValueError("value %r divides by zero" % (v,)) from None
    return SimpCochain(degree, vals)


def reference_element(poset, d):
    """MCElement.from_dict as it was, with the checks MCElement.__init__
    made on its terms."""
    if not isinstance(d, dict) or not isinstance(d.get("terms", {}), dict):
        raise ValueError("an element must be a JSON object with a 'terms' object")
    if "order" not in d:
        raise ValueError("order is missing")
    order = d["order"]
    if isinstance(order, bool) or not isinstance(order, int):
        raise ValueError("order %r is not an integer" % (order,))
    terms = {}
    for k, cd in d.get("terms", {}).items():
        try:
            n = int(k)
        except ValueError:
            raise ValueError("layer key %r is not an integer" % (k,)) from None
        if n in terms:
            raise ValueError("layer %r repeats layer %d" % (k, n))
        terms[n] = reference_cochain(poset, cd)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError("order %d outside 1..%d" % (order, MAX_ORDER))
    for n, c in terms.items():
        if not 1 <= n <= order:
            raise ValueError("term index %d outside 1..%d" % (n, order))
        if c.degree != 2:
            raise ValueError("term %d has degree %d, expected 2" % (n, c.degree))
    return MCElement(order, terms)


def check(doc):
    """Both routes agree on doc on both posets; returns the outcomes."""
    got = []
    for p in POSETS:
        want = outcome(reference_element, p, doc)
        assert outcome(MCElement.from_dict, p, doc) == want
        got.append(want)
    return got


# 2-chains of the diamond, as labels: each is a chain of the diamond, and
# the strict ones are none of its opposite
CHAINS = [list(DIAMOND.chain_labels(c)) for c in DIAMOND.chains(2)]
BAD_CHAINS = [
    ["top", "a", "bot"],  # a chain of the opposite only
    ["a", "b", "top"],  # incomparable
    ["bot", "zz", "top"],  # unknown label
    [["a"], "b", "top"],  # unhashable
    ["zz", ["a"], "top"],  # unknown before unhashable
    ["bot", 7, "top"],
    ["bot", "top"],  # wrong length
    ["bot", "a", "top", "top"],
    [],
    "bot a top",  # not a list
]
VALUES = st.one_of(
    st.sampled_from(["1", "-1", "1/6", "-2/4", "0", "0/3", "7/1", "1.5", "-3/8", 5, -2, 0]),
    st.sampled_from(["3/0", "x", "", "1/-2", None, True, 1.5, [1]]),
    st.fractions(max_denominator=30).map(str),
)
GOOD_VALUES = st.sampled_from(["1", "-1", "1/6", "-2/4", "0", "7/1", "1.5", 5, -2])


def rarely(draw):
    """True one time in four (st.integers would lean towards one end)."""
    return draw(st.sampled_from([False, False, False, True]))


@st.composite
def layers(draw, pool, faulty):
    """A layer document on distinct chains of pool, which the layers of one
    element share; if faulty, an entry or the degree may carry a fault."""
    entries = []
    for labs in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique_by=tuple)):
        good = {"chain": labs, "value": draw(GOOD_VALUES)}
        if faulty and draw(st.booleans()):
            bad = {"chain": draw(st.sampled_from(BAD_CHAINS)), "value": draw(GOOD_VALUES)}
            odd = {"chain": labs, "value": draw(VALUES)}
            entries += draw(st.sampled_from([
                [bad], [bad], [bad], [odd], [odd], [good, odd], [good, odd],  # twice
                [{"chain": labs}], [["not", "an", "entry"]],
            ]))
        else:
            entries.append(good)
    degree = 2
    if faulty and rarely(draw):
        degree = draw(st.sampled_from([1, 3, 0, -1, "2", True, None]))
    return {"degree": degree, "entries": entries}


@st.composite
def elements(draw):
    """An element document: half of them clean, the rest with faults in
    their entries, layer keys, degrees and order, several at a time."""
    faulty = draw(st.booleans())
    pool = draw(st.lists(st.sampled_from(CHAINS), min_size=2, max_size=6, unique_by=tuple))
    order = draw(st.integers(1, 4))
    terms = {}
    for n in draw(st.lists(st.integers(1, order), min_size=1, max_size=4, unique=True)):
        key = str(n)
        if faulty and rarely(draw):
            key = draw(st.sampled_from(["0", "-1", "9", "x", " 2", "+1", "02", "1_0", ""]))
        terms[key] = draw(layers(pool, faulty))
    doc = {"order": order, "terms": terms}
    if faulty and rarely(draw):
        doc["order"] = draw(st.sampled_from([0, -3, MAX_ORDER + 1, "2", True, 2.0, None]))
        if rarely(draw):
            del doc["order"]
    return doc


@settings(max_examples=600, deadline=None, derandomize=True)
@given(elements())
def test_one_pass_reader_matches_the_per_layer_route(doc):
    """The same element, or the same exception type and message, as one
    SimpCochain.from_dict per layer and then MCElement(order, terms)."""
    check(doc)


def entry(labs, v="1"):
    return {"chain": labs, "value": v}


def element(*layers, order=2):
    return {
        "order": order,
        "terms": {str(n): {"degree": 2, "entries": es} for n, es in enumerate(layers, 1)},
    }


BA = ["bot", "a", "top"]
CASES = {
    # a chain of layer 1, read again in layer 2 with a fault only there
    "repeat then unknown label": element([entry(BA)], [entry(BA), entry(["bot", "zz", "top"])]),
    "repeat then non-chain": element([entry(BA)], [entry(BA), entry(["top", "a", "bot"])]),
    "repeat then listed twice": element([entry(BA)], [entry(BA), entry(BA, "2")]),
    "unhashable label": element([entry(BA)], [entry([["a"], "b", "top"])]),
    "unknown before unhashable": element([entry(BA)], [entry(["zz", ["a"], "top"])]),
    "wrong length in layer 2 only": element([entry(BA)], [entry(["bot", "a"])]),
    # the length is checked after every entry of its layer
    "wrong length before a bad value": element([entry(BA)], [entry(["bot", "a"]), entry(BA, "x")]),
    "wrong length before a bad chain": element([entry(["bot", "a"]), entry(["a", "b", "top"])]),
    "zero-valued wrong length": element([entry(["bot"], "0")]),
    # order, index and degree faults behind a layer fault
    "bad order behind a bad value": element([entry(BA, "3/0")], order=0),
    "bad index behind a non-chain": {
        "order": 1, "terms": {"7": {"degree": 2, "entries": [entry(["a", "b", "top"])]}},
    },
    "bad degree behind a bad value": {
        "order": 2, "terms": {"1": {"degree": 1, "entries": [entry(["a", "top"], None)]}},
    },
    "bad order behind a bad index": {"order": 101, "terms": {"0": {"degree": 1}}},
    "bad index before a bad degree": {
        "order": 2, "terms": {"1": {"degree": 1}, "3": {"degree": 2}},
    },
    "values over unreduced dens": element([entry(BA, "2/4"), entry(["bot", "b", "top"], "-3/9")],
                                          [entry(BA, "6/3"), entry(["a", "a", "top"], "1.5")]),
}


@pytest.mark.parametrize("doc", CASES.values(), ids=CASES.keys())
def test_each_fixed_case_matches_the_per_layer_route(doc):
    check(doc)


def test_the_fixed_cases_reach_every_kind_of_outcome():
    """The fixed cases hold valid elements on one poset and faults of each
    kind on the other: no kind of outcome is left unchecked."""
    seen = set()
    for doc in CASES.values():
        for got in check(doc):
            seen.add(type(got).__name__ if isinstance(got, MCElement) else got[0].__name__)
    assert seen == {"MCElement", "ValueError", "UnknownElement", "TypeError"}
    e = MCElement.from_dict(DIAMOND, CASES["values over unreduced dens"])
    assert e.term(1).value(tuple(map(DIAMOND.index, BA))) == Fraction(1, 2)
    assert e.term(2).value(tuple(map(DIAMOND.index, BA))) == 2
