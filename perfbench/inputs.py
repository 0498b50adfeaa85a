"""Generated inputs, the operations run on them, and their expected answers.

Everything here is built from first principles with the standard library:
facet lists typed in by hand, face posets, barycentric subdivision, and
truncated exponentials for the Maurer-Cartan elements.  Nothing is imported
from posetdeform, so no expected answer is read back from the code under
test.  The answers come from topology (Betti numbers of the triangulated
spaces), from the Gerstenhaber-Schack theorem (Hochschild dimensions equal
those Betti numbers), and from the way each deformation element is built.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

# Csaszar's 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
# The 6-vertex real projective plane (hemi-icosahedron).
RP2_6 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]
# Boundary of the 4-simplex, a 3-sphere.
S3_5 = list(itertools.combinations(range(5), 4))
# Boundary of the 3-simplex, a 2-sphere; its face poset is sphere14.
S2_4 = list(itertools.combinations(range(4), 3))

# Rational Betti numbers of the spaces the facet lists triangulate.
BETTI = {
    "torus7": [1, 2, 1],
    "rp2_6": [1, 0, 0],
    "s3_5": [1, 0, 0, 1],
    "sphere14": [1, 0, 1],
    "cr4": [1, 1, 0],
}

# Sizes, chosen so that one pass of each workload takes 1.4 to 2 s at the
# reference speed; see README.md.
VERIFY_SAMPLES = 3
DEFORM_ORDER = 20
HH_DEGREE = 2
# what `verify --suite all` reports, in order
VERIFY_SUITES = ["operad", "brace", "hga", "dgla", "iso"]


def faces(facets):
    """All nonempty faces of the complex, as sorted vertex tuples."""
    out = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return sorted(out, key=lambda s: (len(s), s))


def check_manifold(facets, chi):
    """Every ridge lies in exactly two facets, and the alternating face
    count is the expected Euler characteristic."""
    ridges = {}
    for f in facets:
        f = tuple(sorted(f))
        for i in range(len(f)):
            r = f[:i] + f[i + 1 :]
            ridges[r] = ridges.get(r, 0) + 1
    if any(n != 2 for n in ridges.values()):
        raise AssertionError("a ridge does not lie in exactly two facets")
    got = sum((-1) ** (len(s) - 1) for s in faces(facets))
    if got != chi:
        raise AssertionError("Euler characteristic %d, expected %d" % (got, chi))


def barycentric(facets):
    """Facets of the barycentric subdivision: one flag of faces per
    ordering of each facet's vertices, faces numbered as in faces()."""
    index = {s: i for i, s in enumerate(faces(facets))}
    out = []
    for f in facets:
        for perm in itertools.permutations(sorted(f)):
            out.append(
                tuple(sorted(index[tuple(sorted(perm[:k]))] for k in range(1, len(perm) + 1)))
            )
    return out


def _label(face):
    return ".".join(map(str, face))


def face_poset(facets, name, rng):
    """Poset document of the nonempty faces under inclusion, given by its
    covering relations and listed in an order drawn from rng."""
    fs = faces(facets)
    labels = [_label(s) for s in fs]
    pairs = [
        [_label(s[:i] + s[i + 1 :]), _label(s)]
        for s in fs
        if len(s) > 1
        for i in range(len(s))
    ]
    rng.shuffle(labels)
    rng.shuffle(pairs)
    return {"name": name, "elements": labels, "relations": pairs}


def small_poset(name, rng):
    """The diamond and the 4-crown, in an element order drawn from rng."""
    if name == "diamond":
        labels = ["bot", "a", "b", "top"]
        pairs = [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]]
    else:
        labels = ["a", "b", "c", "d"]
        pairs = [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]
    rng.shuffle(labels)
    return {"name": name, "elements": labels, "relations": pairs}


# -- deformation elements on sphere14 ----------------------------------------


def _weak_chains(fs, n):
    """Weak n-chains of the face poset fs (faces ordered by inclusion)."""
    sets = {s: set(s) for s in fs}
    chains = [(s,) for s in fs]
    for _ in range(n):
        chains = [c + (t,) for c in chains for t in fs if sets[c[-1]] <= sets[t]]
    return chains


def _coboundary(cochain, chains):
    """Alternating face sum of an additive cochain on the given chains."""
    out = {}
    for c in chains:
        v = sum(
            (-1) ** i * cochain.get(c[:i] + c[i + 1 :], 0) for i in range(len(c))
        )
        if v:
            out[c] = v
    return out


def _exp_layers(log1, order):
    """Layers omega_1..omega_N of the pointwise exp(log1 * lam)."""
    layers = {k: {} for k in range(1, order + 1)}
    for c, v in log1.items():
        term = Fraction(1)
        for k in range(1, order + 1):
            term = term * v / k
            if term:
                layers[k][c] = term
    return layers


def _element_doc(layers, order):
    return {
        "order": order,
        "terms": {
            str(k): {
                "degree": 2,
                "entries": [
                    {"chain": [_label(s) for s in c], "value": str(v)}
                    for c, v in sorted(vals.items())
                ],
            }
            for k, vals in layers.items()
            if vals
        },
    }


def deformation_elements(rng, order):
    """Element documents on sphere14 whose verdicts hold by construction.

    z is twice the indicator of one strict 2-chain (a flag v < e < f); it
    pairs to +-2 with the fundamental cycle of the subdivided 2-sphere, so
    its class spans H^2 and no nonzero multiple of it is a coboundary.
    Taking log of a Witt cochain turns the Maurer-Cartan equation into the
    additive cocycle condition, layer by layer, so:

    * e1 = exp(z lam) and g = exp((z + ds) lam), the gauge transform of e1
      by psi = exp(s lam) for a random 1-cochain s, are both MC and
      gauge equivalent;
    * exp(a z lam) and exp(b z lam) with a != b are MC and inequivalent;
    * bad is g with layer 1 perturbed by a non-cocycle w, so it fails the
      MC equation first at layer 1.

    s takes the values +-1, so z + ds is odd on every strict 2-chain and
    +-1 on every degenerate one: g is nonzero on all weak 2-chains, and the
    work it makes does not depend on the seed.
    """
    fs = faces(S2_4)
    c1, c2, c3 = (_weak_chains(fs, n) for n in (1, 2, 3))
    flags = [c for c in c2 if len(set(c)) == 3]
    z = {rng.choice(flags): Fraction(2)}
    s = {c: Fraction(rng.choice((-1, 1))) for c in c1}
    gauged = dict(z)
    for c, v in _coboundary(s, c2).items():
        gauged[c] = gauged.get(c, 0) + v
    if len(gauged) != len(c2) or not all(gauged.values()):
        raise AssertionError("gauged log layer vanishes on some chain")
    if _coboundary(gauged, c3):
        raise AssertionError("gauged log layer is not a cocycle")

    degenerate = [c for c in c2 if c[0] == c[1] != c[2]]
    w = {rng.choice(degenerate): Fraction(1)}
    if not _coboundary(w, c3):
        raise AssertionError("perturbation is a cocycle")

    a = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    b = a + rng.randint(1, 3)
    bad = _exp_layers(gauged, order)
    bad[1] = {c: bad[1].get(c, 0) + w.get(c, 0) for c in set(bad[1]) | set(w)}
    bad[1] = {c: v for c, v in bad[1].items() if v}
    return {
        "e1": _element_doc(_exp_layers(z, order), order),
        "gauged": _element_doc(_exp_layers(gauged, order), order),
        "bad": _element_doc(bad, order),
        "ea": _element_doc(_exp_layers({c: a * v for c, v in z.items()}, order), order),
        "eb": _element_doc(_exp_layers({c: b * v for c, v in z.items()}, order), order),
    }


# -- workloads ----------------------------------------------------------------

WORKLOADS = ("verify", "hochschild", "nerve", "deform")


def _cli(argv, code, **expect):
    return {"kind": "cli", "argv": argv + ["--format", "json", "--no-meta"],
            "code": code, "expect": expect}


def build(workload, seed, workdir):
    """Write the workload's input files under workdir and return its
    operation list, each operation with its expected answer."""
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(workdir, exist_ok=True)

    def put(name, doc):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    posets, elements, ops = [], [], []

    def poset(name, doc):
        path = put(name, doc)
        posets.append(path)
        return path

    if workload == "verify":
        for name in ("diamond", "cr4"):
            path = poset(name, small_poset(name, rng))
            ops.append(_cli(
                ["verify", path, "--suite", "all", "--samples", str(VERIFY_SAMPLES),
                 "--seed", str(seed)],
                0, ok=True, suites_ok=VERIFY_SUITES,
            ))
    elif workload == "hochschild":
        sphere = poset("sphere14", face_poset(S2_4, "sphere14", rng))
        ops.append({"kind": "hh_dims", "poset": sphere, "max_n": HH_DEGREE,
                    "which": "relative",
                    "value": BETTI["sphere14"][: HH_DEGREE + 1]})
        cr4 = poset("cr4", small_poset("cr4", rng))
        b = BETTI["cr4"]
        ops.append(_cli(["hochschild", cr4, "--max-degree", "2"], 0,
                        simplicial=b, relative=b, full=b, agree=True))
    elif workload == "nerve":
        # (poset, space, facets, chi, top degree, also the weak complex?)
        spaces = []
        for name, facets, chi in (("torus7", TORUS7, 0), ("rp2_6", RP2_6, 1),
                                  ("s3_5", S3_5, 0)):
            top = len(BETTI[name]) - 1
            spaces.append((name, name, facets, chi, top, True))
            if name != "s3_5":
                sub = barycentric(facets)
                spaces.append(("sd_" + name, name, sub, chi, top, True))
                spaces.append(("sd2_" + name, name, barycentric(sub), chi, top, False))
        for name, space, facets, chi, top, weak in spaces:
            check_manifold(facets, chi)
            path = poset(name, face_poset(facets, name, rng))
            betti = BETTI[space][: top + 1]
            argv = ["cohomology", path, "--max-degree", str(top)]
            ops.append(_cli(argv, 0, betti=betti))
            if weak:
                ops.append(_cli(argv + ["--unnormalized"], 0, betti=betti))
    else:
        n = DEFORM_ORDER
        sphere = poset("sphere14", face_poset(S2_4, "sphere14", rng))
        cr4 = poset("cr4", small_poset("cr4", rng))
        docs = deformation_elements(rng, n)
        paths = {}
        for key, doc in docs.items():
            paths[key] = put(key, doc)
            elements.append((sphere, paths[key]))
        b2 = BETTI["sphere14"][2]
        ops.append(_cli(["deform", sphere, "--order", str(n)], 0,
                        dimension=n * b2, basis_len=n * b2))
        ops.append(_cli(["deform", cr4, "--order", str(n)], 0,
                        dimension=n * BETTI["cr4"][2], basis_len=0))
        ops.append(_cli(["mc-check", sphere, paths["gauged"]], 0, ok=True))
        ops.append(_cli(["mc-check", sphere, paths["bad"]], 1, ok=False,
                        witness_layer=1))
        ops.append(_cli(["gauge-equiv", sphere, paths["gauged"], paths["e1"]], 0,
                        equivalent=True))
        ops.append(_cli(["gauge-equiv", sphere, paths["ea"], paths["eb"]], 1,
                        equivalent=False))
    for k, op in enumerate(ops):
        op["id"] = k
    return {"posets": posets, "elements": elements, "ops": ops}


def check(op, result):
    """True when one operation's result matches its expected answer."""
    if result.get("error"):
        return False
    if op["kind"] == "hh_dims":
        return result.get("value") == op["value"]
    if result.get("code") != op["code"]:
        return False
    doc = result.get("doc")
    if not isinstance(doc, dict):
        return False
    for key, want in op["expect"].items():
        if key == "suites_ok":
            # the suites that report, in order, when every report is ok
            reports = doc.get("reports")
            got = None
            if isinstance(reports, list) and all(
                isinstance(r, dict) and r.get("ok") is True for r in reports
            ):
                got = [r.get("suite") for r in reports]
        elif key == "basis_len":
            basis = doc.get("basis")
            got = len(basis) if isinstance(basis, list) else None
        elif key == "witness_layer":
            witness = doc.get("witness")
            got = witness.get("layer") if isinstance(witness, dict) else None
        else:
            got = doc.get(key)
        if got != want:
            return False
    return True
