"""One pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py OPS_JSON SPAWN_NS [SPANS_FILE]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so set-up time counts interpreter start.  Set-up
ends once posetdeform.cli is imported and every poset and element file of
the pass has been parsed.  The operations then run one at a time, in
order; their outputs are returned unjudged, as one JSON document on
stdout, and run.py checks them.  With SPANS_FILE the library is traced
(spans.py) and the spans are written there when the pass ends.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Time of Speedometer.loop on a fast, idle core of the machine the baseline
# was taken on (KVM guest on an Intel Xeon, Python 3.11).  Reported times
# are in seconds at this speed: measured seconds times REF_LOOP_S over the
# loop's mean time measured alongside them.
REF_LOOP_S = 0.0006


class Speedometer:
    """Samples the speed of this process's CPU while a pass runs.

    The host shares its cores: the same code can take 1.8 times as long
    from one second to the next.  A thread times a fixed exact-arithmetic
    loop every PERIOD seconds, on the same CPU as the pass, so the time of
    a stretch of the pass can be divided by the loop's time over the same
    stretch.  The loop is benchmark code that no change to the package
    touches, so the quotient compares commits run at different machine
    speeds.  A loop of Fractions, like the program's own arithmetic, slows
    down with the program in the host's slow states more closely than a
    loop of small integers does.  The cyclic collector is off while a sample is
    timed, so no collection that the pass's heap sets off lands in it, and
    the mean of the samples, the speed averaged over the stretch, is what
    a stretch of the pass is divided by.
    """

    PERIOD = 0.02

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def loop():
        acc = 0
        for i in range(1, 300):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
        return acc

    def time_loop(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.loop()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _run(self):
        while not self._stop.wait(self.PERIOD):
            self.samples.append(self.time_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()



def main(argv):
    ops_path, spawn_ns = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    # one CPU for the operations and the speedometer thread alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Speedometer() as speed:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from posetdeform import cli

        tracer = None
        if spans_path:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        # bound after install(), so a traced pass calls the wrappers
        from posetdeform.deform import MCElement
        from posetdeform.hochschild import hh_dims
        from posetdeform.posets import Poset

        def load(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        plan = load(ops_path)
        parsed = {path: Poset.from_dict(load(path)) for path in plan["posets"]}
        for poset_path, elem_path in plan["elements"]:
            MCElement.from_dict(parsed[poset_path], load(elem_path))
        setup_ns = time.monotonic_ns() - spawn_ns
        # a short set-up gets few samples: add some timed right after it
        setup_loops = speed.samples + [speed.time_loop() for _ in range(10)]

        results = []
        first = len(speed.samples)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in plan["ops"]:
            if tracer:
                tracer.op = op["id"]
            out, err = io.StringIO(), io.StringIO()
            res = {"id": op["id"]}
            try:
                if op["kind"] == "cli":
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        res["code"] = cli.main(op["argv"])
                    res["stdout"] = out.getvalue()
                else:
                    p = Poset.from_dict(load(op["poset"]))
                    res["value"] = hh_dims(p, op["max_n"], op["which"])
            except Exception:
                res["error"] = traceback.format_exc()
            results.append(res)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        op_loops = speed.samples[first:] or setup_loops
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.save(spans_path)
    for res in results:
        if "stdout" in res:
            try:
                res["doc"] = json.loads(res.pop("stdout"))
            except ValueError:
                res["doc"] = None
    json.dump(
        {
            "setup_s": setup_ns / 1e9,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss_kb / 1024,
            "loop_setup_s": statistics.median(setup_loops),
            "loop_s": statistics.fmean(op_loops),
            "results": results,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main(sys.argv[1:])
