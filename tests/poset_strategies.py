"""Hypothesis strategies for posets, shared by the property tests."""

from hypothesis import strategies as st

from posetdeform.posets import Poset


@st.composite
def level_posets(draw, lower=2):
    """Two to four levels of two or three elements, each element above at
    least lower elements of the level below, listed in a drawn order: with
    two, such posets often have H^1 and sometimes H^2, and with one they
    mostly have beat points."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    levels, k = [], 0
    for s in sizes:
        levels.append(list(range(k, k + s)))
        k += s
    pairs = [
        (a, b)
        for lo, hi in zip(levels, levels[1:])
        for b in hi
        for a in draw(st.lists(st.sampled_from(lo), min_size=lower, unique=True))
    ]
    order = draw(st.permutations(range(k)))
    labels = ["e%d" % i for i in order]
    return Poset.from_relations(labels, [("e%d" % a, "e%d" % b) for a, b in pairs])
