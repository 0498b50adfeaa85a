"""Posets built from other posets, for ground-truth tests.

The order complex of P x Q is homeomorphic to the product of the order
complexes of P and Q (J. W. Walker, Europ. J. Combin. 9, 1988), so its
Betti numbers follow by Kunneth; P and P^op have the same nerve; the
nerve of a disjoint union is the disjoint union of the nerves.  These
constructors stay out of the package: only the tests need them."""

from posetdeform.posets import Poset


def product_poset(p, q):
    """P x Q, ordered componentwise; (a, b) is labelled 'a*b'."""
    labels = ["%s*%s" % (a, b) for a in p.labels for b in q.labels]

    def label(i, k):
        return labels[i * q.n + k]

    pairs = [
        (label(i, k), label(j, k))
        for i in range(p.n) for j in p.up[i] if j != i for k in range(q.n)
    ] + [
        (label(i, k), label(i, m))
        for i in range(p.n) for k in range(q.n) for m in q.up[k] if m != k
    ]
    return Poset.from_relations(labels, pairs, name="%s*%s" % (p.name, q.name))


def opposite_poset(p):
    """P^op: the same elements with the order reversed."""
    pairs = [(p.labels[j], p.labels[i]) for i in range(p.n) for j in p.up[i] if j != i]
    return Poset.from_relations(p.labels, pairs, name=p.name + "^op")


def disjoint_union(*ps):
    """The disjoint union of the posets ps, no element of one comparable
    to an element of another; element a of the k-th is labelled 'k:a'."""
    labels = ["%d:%s" % (k, a) for k, p in enumerate(ps) for a in p.labels]
    pairs = [
        ("%d:%s" % (k, p.labels[i]), "%d:%s" % (k, p.labels[j]))
        for k, p in enumerate(ps) for i in range(p.n) for j in p.up[i] if j != i
    ]
    return Poset.from_relations(labels, pairs, name="+".join(p.name for p in ps))
