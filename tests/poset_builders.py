"""Posets built from other posets, for ground-truth tests.

The order complex of P x Q is homeomorphic to the product of the order
complexes of P and Q (J. W. Walker, Europ. J. Combin. 9, 1988), so its
Betti numbers follow by Kunneth; P and P^op have the same nerve, and
the subdivision sd(P) a homeomorphic one; the nerve of a disjoint union
is the disjoint union of the nerves.  The face poset of a simplicial
complex, given by its facets, has the complex's barycentric subdivision
as its nerve, so the facet lists TORUS7, S3_5 and RP2_6 give posets with
known Betti numbers.  Removing a beat point keeps the homotopy type of the
nerve, so core(P) does too.  These constructors, and the order test le,
stay out of the package: only the tests need them."""

from itertools import combinations, permutations

from posetdeform.posets import Poset


def le(p, i, j):
    """Whether element i lies below or at element j of the poset p."""
    return bool(p.upsets[i] >> j & 1)


def levels_poset(levels, width):
    """levels antichains of width elements each, every element above every
    element of the level below: the ordinal sum of the antichains.  Its
    nerve is a join of discrete sets, a wedge of (width - 1)**levels
    spheres of dimension levels - 1, and the elimination of its face-sum
    matrices fills in heavily."""
    labels = [["%d.%d" % (k, i) for i in range(width)] for k in range(levels)]
    pairs = [(a, b) for lo, hi in zip(labels, labels[1:]) for a in lo for b in hi]
    return Poset.from_relations(
        [a for level in labels for a in level], pairs,
        name="levels%dx%d" % (levels, width),
    )


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


def subdivision(p):
    """sd(P): the strict chains of P ordered by inclusion, given by covers
    (each chain over its faces one element shorter).  Its nerve is the
    barycentric subdivision of P's nerve; chain c is labelled by the
    tuple of its labels."""
    chains, n = [], 0
    while level := p.chains(n, strict=True):
        chains += level
        n += 1

    def label(c):
        return str(tuple(p.chain_labels(c)))

    pairs = [(label(c[:i] + c[i + 1 :]), label(c)) for c in chains if len(c) > 1
             for i in range(len(c))]
    return Poset.from_relations(map(label, chains), pairs, name="sd(%s)" % p.name)


def core(p):
    """The core of P: beat points taken out one at a time, the least
    index first, until none is left (Stong, Trans. AMS 123, 1966; Barmak,
    LNM 2032, 2011).  x is a beat point when the elements left strictly
    below it have a greatest one, or those strictly above it a least one.
    Taking one out keeps the homotopy type of the nerve, so core(P) has
    P's cohomology, though k core(P) is a smaller algebra."""
    left = list(range(p.n))

    def beat(x):
        below = [y for y in left if y != x and le(p, y, x)]
        above = [y for y in left if y != x and le(p, x, y)]
        return (any(all(le(p, z, y) for z in below) for y in below)
                or any(all(le(p, y, z) for z in above) for y in above))

    while (x := next(filter(beat, left), None)) is not None:
        left.remove(x)
    pairs = [(p.labels[i], p.labels[j]) for i in left for j in left if i != j and le(p, i, j)]
    return Poset.from_relations([p.labels[i] for i in left], pairs, name="core(%s)" % p.name)


def disjoint_union(*ps):
    """The disjoint union of the posets ps, no element of one comparable
    to an element of another; element a of the k-th is labelled 'k:a'."""
    labels = ["%d:%s" % (k, a) for k, p in enumerate(ps) for a in p.labels]
    pairs = [
        ("%d:%s" % (k, p.labels[i]), "%d:%s" % (k, p.labels[j]))
        for k, p in enumerate(ps) for i in range(p.n) for j in p.up[i] if j != i
    ]
    return Poset.from_relations(labels, pairs, name="+".join(p.name for p in ps))


# Csaszar's 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
# the boundary of the 4-simplex, a 3-sphere
S3_5 = list(combinations(range(5), 4))
# the 6-vertex real projective plane, the quotient of the icosahedron by
# the antipodal map: over Q its Betti numbers are [1, 0, 0]
RP2_6 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def faces(facets):
    """All nonempty faces of a simplicial complex, as sorted tuples."""
    return sorted(
        {
            c
            for f in facets
            for k in range(1, len(f) + 1)
            for c in combinations(sorted(f), k)
        }
    )


def subdivide(facets):
    """Facets of the barycentric subdivision, whose vertices are the
    faces: one flag of faces per ordering of a facet's vertices."""
    return [
        tuple(tuple(sorted(perm[:k])) for k in range(1, len(perm) + 1))
        for f in facets
        for perm in permutations(f)
    ]


def face_poset(facets):
    """Faces under inclusion, given by covers."""
    fs = faces(facets)
    pairs = [
        (str(s[:i] + s[i + 1 :]), str(s))
        for s in fs
        if len(s) > 1
        for i in range(len(s))
    ]
    return Poset.from_relations([str(s) for s in fs], pairs)
