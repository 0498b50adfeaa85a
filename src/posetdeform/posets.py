"""Finite posets and the enumerations every cochain complex is built on.

Conventions used throughout the package:

* elements are referred to by index internally and by label in all
  serialized input/output;
* an n-chain is a tuple of n+1 element indices; *weak* chains are
  monotone (v0 <= v1 <= ... <= vn, repeats allowed), *strict* chains are
  strictly increasing;
* chain lists and interval lists are produced in lexicographic index
  order, so every downstream matrix and report is reproducible.
"""

from itertools import islice
from operator import sub

# Most vertices, summed over the chains of degrees 0..n, that Poset.chains
# builds to degree n; it counts them first.  The largest complex in the
# tests and the benchmark holds 36,180.  Chains and the face-sum matrices
# on them take about 150 MB per million vertices; the entries held while
# eliminating those matrices are bounded by linalg.FILL_BUDGET instead.
CHAIN_BUDGET = 5_000_000


class PosetError(ValueError):
    pass


class TooLarge(ValueError):
    """A request beyond a documented size budget or cap."""


class CycleDetected(PosetError):
    """The reflexive-transitive closure of the input relations has x <= y
    and y <= x for distinct x, y, so there is no partial order."""


class DuplicateElement(PosetError):
    pass


class UnknownElement(PosetError):
    pass


class Poset:
    """Finite poset on labeled elements.

    ``upsets[i]`` is the up-set of element i as an int bitset: bit j is
    set exactly when i <= j (so bit i always is).  ``up[i]`` lists the
    same elements as a sorted tuple.  Build instances through
    :meth:`from_relations`, which closes an arbitrary generating set of
    pairs and validates antisymmetry.
    """

    def __init__(self, labels, upsets, name="poset"):
        self.labels = tuple(labels)
        self.upsets = tuple(upsets)
        self.name = name
        assert len(self.upsets) == len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        # successor lists (including the element itself), used by the
        # chain enumerator; sorted so enumeration is lexicographic
        self.up = tuple(_members(b) for b in self.upsets)
        self._chains = {}

    @classmethod
    def from_relations(cls, labels, pairs, name="poset"):
        labels = list(labels)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise DuplicateElement("duplicate element label %r" % (lab,))
            index[lab] = i
        n = len(labels)
        succ = [set() for _ in range(n)]
        pred = [[] for _ in range(n)]
        for a, b in pairs:
            if a not in index:
                raise UnknownElement("unknown element %r in relation" % (a,))
            if b not in index:
                raise UnknownElement("unknown element %r in relation" % (b,))
            i, j = index[a], index[b]
            if i != j and j not in succ[i]:
                succ[i].add(j)
                pred[j].append(i)
        # close in reverse topological order: an element's up-set is
        # itself plus the up-sets of its successors, all closed before it
        waiting = [len(s) for s in succ]
        ready = [i for i in range(n) if not waiting[i]]
        upsets = [0] * n
        while ready:
            j = ready.pop()
            bits = 1 << j
            for s in succ[j]:
                bits |= upsets[s]
            upsets[j] = bits
            for i in pred[j]:
                waiting[i] -= 1
                if not waiting[i]:
                    ready.append(i)
        if any(waiting):
            raise _cycle(labels, succ)
        return cls(labels, upsets, name=name)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement("unknown element %r" % (label,)) from None

    def chains(self, n, strict=False):
        """All weak (default) or strict n-chains, lexicographic.

        An n-chain has n+1 entries; chains(0) lists the singletons.  This
        is the one place a level is counted and built, and each is built
        once per poset: a level met before is one dict lookup.  For a new
        one, degrees 0..n are counted first (chain_counts raises TooLarge
        past CHAIN_BUDGET, before anything is built), then the missing
        levels are built bottom-up, level k extending each (k-1)-chain by
        the up-set of its last entry, less that entry for strict chains."""
        got = self._chains.get((n, strict))
        if got is None:
            if n < 0:
                raise ValueError("chain degree must be >= 0")
            self.chain_counts(n, strict)
            for k in range(n + 1):
                below, got = got, self._chains.get((k, strict))
                if got is None:
                    got = self._chains[k, strict] = tuple(
                        ch + (j,) for ch in below for j in self.up[ch[-1]]
                        if not (strict and j == ch[-1])
                    ) if k else tuple((i,) for i in range(self.n))
        return got

    def chain_counts(self, n, strict=False):
        """The numbers of weak (default) or strict chains of degrees 0..n,
        counted without enumerating any.  The k-chains that start at i
        number N_k[i] = sum of N_{k-1}[j] over j in up[i], less j = i for
        strict chains, and N_0[i] = 1 (powers of the zeta matrix, Stanley,
        EC1 3.8).  Raises TooLarge as soon as the chains counted so far
        hold more than CHAIN_BUDGET vertices: that total only grows with
        the degree.  A strict count of 0 ends the list, since every later
        one is 0 too.  chains calls it before it builds a new level."""
        per_start, counts, total = [1] * self.n, [], 0
        for k in range(n + 1):
            counts.append(sum(per_start))
            total += (k + 1) * counts[-1]
            if total > CHAIN_BUDGET:
                raise TooLarge(
                    "the %s chains of degrees 0..%d hold more than %d vertices"
                    % ("strict" if strict else "weak", k, CHAIN_BUDGET)
                )
            if not counts[-1]:
                break
            sums = [sum(map(per_start.__getitem__, up)) for up in self.up]
            per_start = list(map(sub, sums, per_start)) if strict else sums
        return counts

    def intervals(self):
        """All pairs (i, j) with i <= j, lexicographic: the weak 1-chains."""
        return self.chains(1)

    def chain_labels(self, chain):
        return tuple(self.labels[i] for i in chain)

    def __repr__(self):
        return "Poset(%r, n=%d)" % (self.name, self.n)

    def to_dict(self):
        """The cover relations i < j, nothing between them, lexicographic.
        Each up-set is walked in a linear extension (a larger up-set
        first), from just after i: an element left over is minimal above
        i, a cover, and takes its own up-set out of what is left."""
        ups, covers = self.upsets, [[] for _ in self.labels]
        ext = sorted(range(self.n), key=lambda i: -ups[i].bit_count())
        for at, i in enumerate(ext):
            left = ups[i] ^ 1 << i
            for j in islice(ext, at + 1, None):
                if not left:
                    break
                if left >> j & 1:
                    covers[i].append(j)
                    left &= ~ups[j]
        rels = [[self.labels[i], self.labels[j]]
                for i, js in enumerate(covers) for j in sorted(js)]
        return {"name": self.name, "elements": list(self.labels), "relations": rels}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict.  Raises PosetError unless ``elements`` is a
        list of string labels, ``relations`` a list of two-label lists and
        ``name``, if given, a string."""
        if not isinstance(d, dict) or "elements" not in d:
            raise PosetError("poset document needs an 'elements' list")
        elements, rels = d["elements"], d.get("relations", [])
        if not _labels(elements):
            raise PosetError("'elements' must be a list of string labels")
        if not isinstance(rels, list):
            raise PosetError("'relations' must be a list of pairs")
        for rel in rels:
            if not (_labels(rel) and len(rel) == 2):
                raise PosetError("relation %r is not a list of two labels" % (rel,))
        name = d.get("name", "poset")
        if not isinstance(name, str):
            raise PosetError("'name' must be a string")
        return cls.from_relations(elements, rels, name=name)


def _labels(x):
    return isinstance(x, list) and all(isinstance(lab, str) for lab in x)


def _members(bits):
    """Indices of the set bits of an int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _cycle(labels, succ):
    """The CycleDetected error for the lexicographically first pair i < j
    comparable both ways in the reflexive-transitive closure of succ."""
    reach = []
    for i in range(len(labels)):
        seen, todo = 1 << i, [i]
        while todo:
            for j in succ[todo.pop()]:
                if not seen >> j & 1:
                    seen |= 1 << j
                    todo.append(j)
        reach.append(seen)
    i, j = next(
        (i, j)
        for i, bits in enumerate(reach)
        for j in _members(bits)
        if i < j and reach[j] >> i & 1
    )
    return CycleDetected("%r and %r are comparable both ways" % (labels[i], labels[j]))


def chain_poset(k):
    """Total order 0 < 1 < ... < k-1 on k elements."""
    labels = [str(i) for i in range(k)]
    pairs = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    return Poset.from_relations(labels, pairs, name="chain%d" % k)


def diamond_poset():
    """bot < a, b < top; the nerve is contractible."""
    return Poset.from_relations(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        name="diamond",
    )


def crown_poset():
    """The 4-crown a, b < c, d; its nerve is a circle."""
    return Poset.from_relations(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
        name="cr4",
    )


def sphere_poset():
    """Face poset of the boundary of the 3-simplex: 4 vertices, 6 edges,
    4 triangles ordered by inclusion (14 elements).  Its nerve is the
    barycentric subdivision of the 2-sphere."""
    verts = ["0", "1", "2", "3"]
    edges = ["01", "02", "03", "12", "13", "23"]
    faces = ["012", "013", "023", "123"]
    pairs = []
    for e in edges:
        for v in verts:
            if v in e:
                pairs.append((v, e))
    for f in faces:
        for e in edges:
            if set(e) <= set(f):
                pairs.append((e, f))
    return Poset.from_relations(verts + edges + faces, pairs, name="sphere14")
