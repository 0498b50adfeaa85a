"""posetdeform benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One pass runs a workload's
operations one at a time, in a fixed order, in a fresh interpreter
(worker.py), so no memo survives from one pass to the next, just as none
survives between two command-line invocations.  Passes run one after
another until S seconds have gone by, so at most one worker runs at a time.

The seed fixes the inputs: the element order of every generated poset, the
random Maurer-Cartan elements, and the --seed given to `verify`.  Every
answer is checked against the ground truth in inputs.py.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, as medians over
the passes.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics: counts, which must be identical in every traced pass,
and self times (median over traced passes).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import spans
from worker import REF_LOOP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 3
PASS_TIMEOUT = 150


def _fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(ops_path, spans_path=None):
    """Run one pass in a fresh interpreter and return its report."""
    cmd = [sys.executable, WORKER, ops_path, str(time.monotonic_ns())]
    if spans_path:
        cmd.append(spans_path)
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout)


def at_ref_speed(report):
    """The pass's timings scaled to the reference speed."""
    speed = REF_LOOP_S / report["loop_s"]
    return {
        "wall_s": report["wall_s"] * speed,
        "cpu_s": report["cpu_s"] * speed,
        "setup_s": report["setup_s"] * REF_LOOP_S / report["loop_setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "speed": speed,
    }


def judge(plan, report, tally):
    """Count the pass's operations and the ones whose answer is wrong."""
    results = {r["id"]: r for r in report["results"]}
    for op in plan["ops"]:
        tally["attempted"] += 1
        res = results[op["id"]]
        if not inputs.check(op, res):
            tally["failed"] += 1
            print("wrong answer: op %d %s: %s" % (
                op["id"], op.get("argv", op["kind"]), res.get("error") or
                {k: v for k, v in res.items() if k != "id"}), file=sys.stderr)


def layer_metrics(stats, main_by_op, plan):
    """Per-layer values of one traced pass, keyed by BENCHMARK.json name."""
    verb_s = {}
    for op in plan["ops"]:
        if op["kind"] == "cli":
            verb = op["argv"][0]
            verb_s[verb] = verb_s.get(verb, 0.0) + main_by_op.get(op["id"], 0.0)
    agree = stats["suites.agree"]
    out = {
        "suites.checks": stats["suites.check"]["calls"],
        "suites.agree.useful_ratio": (
            (agree["calls"] - agree.get("vacuous", 0)) / agree["calls"]
            if agree["calls"] else 0.0
        ),
    }
    for name, st in stats.items():
        for stat, value in st.items():
            out["%s.%s" % (name, stat)] = value
    for verb, s in verb_s.items():
        out["cli.%s.s" % verb] = s
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "posetdeform", "cli.py")):
        _fail("no posetdeform sources under %s" % os.path.join(ROOT, "src"))
    spec = _spec()
    work = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        result = measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, spec, work):
    plan = inputs.build(args.workload, args.seed, work)
    ops_path = os.path.join(work, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    # compile the package's bytecode once, as an install would, whatever
    # PYTHONDONTWRITEBYTECODE says
    warm = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "posetdeform")],
        capture_output=True, text=True, timeout=PASS_TIMEOUT,
    )
    if warm.returncode != 0:
        sys.stderr.write(warm.stdout + warm.stderr)
        _fail("cannot compile posetdeform")

    tally = {"attempted": 0, "failed": 0}
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        enough = len(plain) >= MIN_PASSES if not args.trace else (
            len(plain) >= 2 and len(traced) >= 2)
        if enough and time.monotonic() - t0 >= args.seconds:
            break
        trace_this = bool(args.trace) and len(traced) < len(plain)
        spans_path = os.path.join(work, "spans.bin") if trace_this else None
        report = run_pass(ops_path, spans_path)
        if report is None:
            _fail("a pass of %s crashed" % args.workload)
        judge(plan, report, tally)
        scaled = at_ref_speed(report)
        if trace_this:
            scaled["layers"] = layer_metrics(*spans.summarize(spans_path), plan)
            os.remove(spans_path)
            traced.append(scaled)
        else:
            plain.append(scaled)
        print("pass %d%s: measured wall %.3f s, cpu %.3f s, setup %.3f s; "
              "at reference speed %.3f, %.3f, %.3f s" % (
                  len(plain) + len(traced), " traced" if trace_this else "",
                  report["wall_s"], report["cpu_s"], report["setup_s"],
                  scaled["wall_s"], scaled["cpu_s"], scaled["setup_s"]),
              file=sys.stderr)
    correct = tally["failed"] == 0

    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            value = statistics.median(r[m["name"]] for r in plain)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain) - 1)
            elif m["unit"] == "count":
                values = [r["layers"].get(name, 0) for r in traced]
                if len(set(values)) != 1:
                    correct = False
                    print("count %s differs between traced passes: %s" % (name, values),
                          file=sys.stderr)
                value = values[0]
            else:
                value = statistics.median(
                    r["layers"].get(name, 0) * (r["speed"] if m["unit"] == "s" else 1)
                    for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, **tally, "metrics": metrics}


if __name__ == "__main__":
    main()
