"""Command-line front end.

Seven verbs: validate, cohomology, hochschild, verify, deform,
mc-check, gauge-equiv.  Each takes a poset file first, and main loads it
before it runs the verb.  Posets and deformation elements are JSON
files read through one loader, _load.  Reports go to standard output as
a table (default) or as exactly one JSON document (--format json).  Exit
status: 0 for success or a passing check, 1 for a negative mathematical
answer (a failing suite, a non-MC element, inequivalent deformations,
disagreeing complexes), 2 for usage or input problems.

All sampling is driven by the --seed value through named generators, so
a report is a pure function of argv plus file contents; --no-meta drops
the generation timestamp to make that reproducibility byte-exact.
"""

import argparse
import json
import sys
import time
from functools import cache

from . import __version__
from .deform import (
    MAX_ORDER, MCElement, NotMC, gauge_equivalent, mc_check, moduli, witt_to_dict,
)
from .hochschild import hh_dims
from .posets import Poset, TooLarge
from .simplicial import SimplicialCarrier, cohomology_dims
from .suites import SUITES


class _InputError(Exception):
    """Anything that should terminate with exit code 2."""


class _RepeatedKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs):
    """object_pairs_hook for json.load, which on its own keeps the last of
    repeated keys without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _RepeatedKey(key)
        obj[key] = value
    return obj


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except _RepeatedKey as e:
        raise _InputError(
            "%s: key %s appears twice in one object" % (path, json.dumps(e.args[0]))
        ) from e
    except OSError as e:
        raise _InputError("%s: %s" % (path, e.strerror or e)) from e
    except UnicodeDecodeError as e:
        raise _InputError("%s: not UTF-8 text (%s)" % (path, e.reason)) from e
    except json.JSONDecodeError as e:
        raise _InputError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, e.lineno, e.colno, e.msg)
        ) from e
    except RecursionError as e:
        raise _InputError("%s: JSON nested too deeply" % path) from e
    except ValueError as e:  # an integer past sys.get_int_max_str_digits()
        raise _InputError("%s: %s" % (path, e)) from e


def _load(path, read, *context):
    """read(*context, data) on the JSON document at path; a document that
    read refuses is an input error naming the file."""
    data = _load_json(path)
    try:
        return read(*context, data)
    except (KeyError, TypeError, ValueError) as e:
        raise _InputError("%s: %s" % (path, e)) from e


@cache  # built once per process: argparse makes a formatter per argument
def _parser():
    top = argparse.ArgumentParser(
        prog="posetdeform",
        description="Poset cochain operads, Hochschild comparison, and "
        "formal deformations of incidence algebras.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("poset")
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the version/timestamp block for byte-stable output",
    )

    sub.add_parser("validate", parents=[common], help="check a poset file")

    c = sub.add_parser(
        "cohomology", parents=[common], help="betti numbers of the nerve"
    )
    c.add_argument("--max-degree", type=int, default=2)
    c.add_argument(
        "--unnormalized",
        action="store_true",
        help="use all weak chains instead of the strict-chain complex",
    )

    h = sub.add_parser(
        "hochschild",
        parents=[common],
        help="compare simplicial, relative, and full cohomology dimensions",
    )
    h.add_argument("--max-degree", type=int, default=2)

    ver = sub.add_parser(
        "verify", parents=[common], help="run randomized verification suites"
    )
    ver.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    ver.add_argument("--samples", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-degree", type=int, default=3)

    d = sub.add_parser(
        "deform", parents=[common], help="moduli of formal deformations"
    )
    d.add_argument("--order", type=int, default=1)

    mc = sub.add_parser(
        "mc-check", parents=[common], help="test the Maurer-Cartan equation"
    )
    mc.add_argument("element")

    ge = sub.add_parser(
        "gauge-equiv", parents=[common], help="decide gauge equivalence"
    )
    ge.add_argument("element1")
    ge.add_argument("element2")

    return top


def _run_validate(args, p):
    report = {
        "verb": "validate",
        "poset": p.name,
        "elements": p.n,
        "intervals": sum(map(len, p.up)),  # counted, not enumerated
        "status": "ok",
    }
    return report, 0


def _run_cohomology(args, p):
    if args.max_degree < 0:
        raise _InputError("--max-degree must be >= 0")
    strict = not args.unnormalized
    betti = cohomology_dims(p, args.max_degree, strict=strict)
    report = {
        "verb": "cohomology",
        "poset": p.name,
        "max_degree": args.max_degree,
        "mode": "strict" if strict else "weak",
        "betti": betti,
    }
    return report, 0


def _run_hochschild(args, p):
    n = args.max_degree
    if not 0 <= n <= 2:
        raise _InputError("--max-degree must lie in 0..2 (full-complex cap)")
    full = hh_dims(p, n, "full")  # first: its cap refuses a large poset at once
    simp = cohomology_dims(p, n, strict=True)
    relative = hh_dims(p, n, "relative")
    agree = simp == relative == full
    report = {
        "verb": "hochschild",
        "poset": p.name,
        "max_degree": n,
        "simplicial": simp,
        "relative": relative,
        "full": full,
        "agree": agree,
    }
    return report, 0 if agree else 1


def _run_verify(args, p):
    if args.samples < 1:
        raise _InputError("--samples must be >= 1")
    if not 0 <= args.max_degree <= 3:
        raise _InputError("--max-degree must lie in 0..3")
    suites = [*SUITES] if args.suite == "all" else [args.suite]
    # count, before the first trial, the top level the suites run can read
    # (a count, not a build: a sparse run may never build it)
    p.chain_counts(max(SUITES[name].reads(args.max_degree) for name in suites))
    car = SimplicialCarrier(p)
    reports = [
        SUITES[name](
            car, samples=args.samples, seed=args.seed, max_degree=args.max_degree
        )
        for name in suites
    ]
    ok = all(r.ok for r in reports)
    if len(reports) == 1:
        report = {"verb": "verify", **reports[0].to_dict()}
    else:
        report = {
            "verb": "verify",
            "poset": p.name,
            "ok": ok,
            "reports": [r.to_dict() for r in reports],
        }
    return report, 0 if ok else 1


def _run_deform(args, p):
    if not 1 <= args.order <= MAX_ORDER:
        raise _InputError("--order must lie in 1..%d" % MAX_ORDER)
    dim, basis = moduli(p, args.order)
    report = {
        "verb": "deform",
        "poset": p.name,
        "order": args.order,
        "dimension": dim,
        "basis": [e.to_dict(p) for e in basis],
    }
    return report, 0


def _run_mc_check(args, p):
    e = _load(args.element, MCElement.from_dict, p)
    ok, witness = mc_check(p, e)
    report = {
        "verb": "mc-check",
        "poset": p.name,
        "order": e.order,
        "ok": ok,
        "witness": None if ok else {"layer": witness[0], "chain": list(witness[1])},
    }
    return report, 0 if ok else 1


def _run_gauge_equiv(args, p):
    e1 = _load(args.element1, MCElement.from_dict, p)
    e2 = _load(args.element2, MCElement.from_dict, p)
    try:
        wit = gauge_equivalent(p, e1, e2)
    except (NotMC, ValueError) as e:
        raise _InputError(str(e)) from e
    report = {
        "verb": "gauge-equiv",
        "poset": p.name,
        "order": e1.order,
        "equivalent": wit is not None,
        "witness": None if wit is None else witt_to_dict(p, wit, e1.order),
    }
    return report, 0 if wit is not None else 1


_HANDLERS = {
    "validate": _run_validate,
    "cohomology": _run_cohomology,
    "hochschild": _run_hochschild,
    "verify": _run_verify,
    "deform": _run_deform,
    "mc-check": _run_mc_check,
    "gauge-equiv": _run_gauge_equiv,
}


def _table_lines(value, indent=""):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                yield "%s%s:" % (indent, k)
                yield from _table_lines(v, indent + "  ")
            else:
                yield "%s%s: %s" % (indent, k, _scalar(v))
    elif isinstance(value, list):
        if {*map(type, value)} <= {int, str}:  # no bool, None or container
            yield "%s%s" % (indent, " ".join(map(str, value)))
        elif all(not isinstance(x, (dict, list)) for x in value):
            yield "%s%s" % (indent, " ".join(map(_scalar, value)))
        else:
            for x in value:
                yield from _table_lines(x, indent + "  ")
                yield "%s-" % indent
    else:
        yield "%s%s" % (indent, _scalar(value))


def _scalar(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (dict, list)) and not v:
        return "(none)"
    return str(v)


def _emit(report, args):
    if not args.no_meta:
        report = dict(report)
        report["meta"] = {
            "version": __version__,
            "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in _table_lines(report):
            print(line)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        p = _load(args.poset, Poset.from_dict)
        report, code = _HANDLERS[args.verb](args, p)
    except (_InputError, TooLarge) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(report, args)
    return code


def console_entry():
    sys.exit(main(sys.argv[1:]))
