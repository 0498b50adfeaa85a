"""Span tracing of posetdeform from outside the package.

Tracer.install() replaces each traced function by a wrapper that records
one span per call: name, start, end, parent span and operation id.  A
function is replaced under every name that refers to it -- module globals
bound by ``from ... import`` and class attributes such as ``__add__ = add``
-- so calls through any of those names are seen.  Spans stay in memory in
flat integer arrays and are written out once, by save(), when the pass
ends.  Counts that need the call's arguments or result (matrix shapes,
nonzeros, output sizes) are summed per span name as the calls happen.

Fraction arithmetic lives in the standard library and is not wrapped: it
stays inside the self time of its callers.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = (
    "posets", "linalg", "opcore", "simplicial", "hochschild",
    "gsiso", "deform", "suites", "scalars", "cli",
)


def _eliminate_counts(args, kwargs, res):
    mat = args[0]
    rhs = kwargs.get("rhs", args[1] if len(args) > 1 else None)
    pivots, rowmap = res
    nnz_in = len(mat.entries)
    if rhs is not None:
        nnz_in += sum(1 for v in rhs if v)
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "nnz_in": nnz_in,
        "nnz_out": sum(len(row) for row in rowmap.values()),
        "rank": len(pivots),
    }


def _agree_counts(args, kwargs, res):
    car, a, b = args[:3]
    return {"vacuous": int(car.is_zero(a) and car.is_zero(b))}


# (span name, module, attribute path, counts(args, kwargs, result) or None)
TARGETS = (
    ("posets.chains", "posets", "Poset.chains", lambda a, k, r: {"out": len(r)}),
    ("posets.from_relations", "posets", "Poset.from_relations", None),
    ("linalg.eliminate", "linalg", "_eliminate", _eliminate_counts),
    ("linalg.rank", "linalg", "rank", None),
    ("linalg.rank_kernel", "linalg", "rank_kernel", None),
    ("linalg.solve_in_image", "linalg", "solve_in_image", None),
    ("opcore.brace", "opcore", "brace", None),
    ("opcore.circle", "opcore", "circle", None),
    ("opcore.differential", "opcore", "differential", None),
    ("simplicial.compose_at", "simplicial", "SimplicialCarrier.compose_at",
     lambda a, k, r: {"out_entries": len(r.values)}),
    ("simplicial.add", "simplicial", "SimpCochain.add", None),
    ("simplicial.coboundary_matrix", "simplicial", "coboundary_matrix",
     lambda a, k, r: {"nnz": len(r.entries)}),
    ("hochschild.rel_compose_at", "hochschild", "RelHochschildCarrier.compose_at", None),
    ("hochschild.rel_eval", "hochschild", "rel_eval", None),
    ("hochschild.full_compose_at", "hochschild", "FullHochschildCarrier.compose_at", None),
    ("hochschild.hh_dims", "hochschild", "hh_dims", None),
    ("gsiso.verify_morphism", "gsiso", "verify_morphism", None),
    ("gsiso.phi", "gsiso", "phi", None),
    ("suites.check", "suites", "SuiteReport.check", None),
    ("suites.agree", "suites", "agree", _agree_counts),
    ("deform.mc_check", "deform", "mc_check", None),
    ("deform.gauge_equivalent", "deform", "gauge_equivalent", None),
    ("deform.moduli", "deform", "moduli", None),
    ("deform.witt_coboundary", "deform", "witt_coboundary", None),
    ("deform.witt_log_layers", "deform", "witt_log_layers", None),
    ("scalars.series_mul", "scalars", "TruncSeries.__mul__", None),
    ("scalars.series_log", "scalars", "TruncSeries.log", None),
    ("scalars.series_exp", "scalars", "TruncSeries.exp", None),
    ("scalars.series_inverse", "scalars", "TruncSeries.inverse", None),
    ("cli.main", "cli", "main", None),
)
NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Spans of one pass; set ``op`` to the running operation's id."""

    def __init__(self):
        self.op = -1
        self.name = array("b")
        self.ops = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = {}
        self._stack = [-1]

    def install(self):
        """Wrap every TARGETS function under every name bound to it."""
        mods = [importlib.import_module("posetdeform." + m) for m in MODULES]
        classes = [
            v for m in mods for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("posetdeform.")
        ]
        for nid, (_, modname, path, counts) in enumerate(TARGETS):
            owner = importlib.import_module("posetdeform." + modname)
            *clsname, attr = path.split(".")
            if clsname:
                owner = getattr(owner, clsname[0])
            raw = vars(owner)[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(nid, fn, counts)
            new = classmethod(wrapped) if is_cm else wrapped
            for obj in mods + classes:
                for key, val in list(vars(obj).items()):
                    if val is raw:
                        setattr(obj, key, new)

    def _wrap(self, nid, fn, counts):
        names, ops, parents = self.name, self.ops, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        now = time.perf_counter_ns
        totals = self.counts.setdefault(NAMES[nid], {})

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            ops.append(self.op)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if counts is not None:
                for k, v in counts(args, kwargs, res).items():
                    totals[k] = totals.get(k, 0) + v
            return res

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    def save(self, path):
        """Write the spans: a JSON header line, then the five arrays."""
        header = {"names": NAMES, "n": len(self.start), "counts": self.counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.ops, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    """Read a span file back: (header, name, ops, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("b", "i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(path):
    """Per span name: calls and self time in seconds, plus the summed
    counts; and per operation id, the time spent in cli.main."""
    header, name, ops, parent, start, end = load(path)
    names = header["names"]
    n = header["n"]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats = {nm: {"calls": 0, "self_s": 0.0} for nm in names}
    main_by_op = {}
    main_id = names.index("cli.main")
    for i in range(n):
        st = stats[names[name[i]]]
        st["calls"] += 1
        st["self_s"] += (dur[i] - child[i]) / 1e9
        if name[i] == main_id:
            main_by_op[ops[i]] = main_by_op.get(ops[i], 0.0) + dur[i] / 1e9
    for nm, extra in header["counts"].items():
        stats[nm].update(extra)
    return stats, main_by_op

