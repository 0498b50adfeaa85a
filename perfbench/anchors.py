"""Time the relative Hochschild targets that are too slow for a workload.

    python3 perfbench/anchors.py

Runs hh_dims(sphere14, 3, "relative") and hh_dims(s3_5, 2, "relative")
(relative HH up to degree 2 of the 3-sphere's face poset) in this
interpreter, checks each answer against the Betti numbers in inputs.py,
and prints one JSON object with the median wall time of REPEATS runs of
each, in seconds at the reference speed (see README.md).
The s3_5 anchor takes about 40 s per repeat at the seed commit.  The
anchors in baseline.json come from this script.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

import inputs
from worker import REF_LOOP_S, Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPEATS = 3
ANCHORS = (
    ("hh_dims_sphere14_3", inputs.S2_4, "sphere14", 3),
    ("hh_dims_s3_5_2", inputs.S3_5, "s3_5", 2),
)


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from posetdeform.hochschild import hh_dims
    from posetdeform.posets import Poset

    out = {}
    for key, facets, space, degree in ANCHORS:
        want = (inputs.BETTI[space] + [0] * degree)[: degree + 1]
        times = []
        for _ in range(REPEATS):
            poset = Poset.from_dict(inputs.face_poset(facets, space, random.Random(0)))
            with Speedometer() as speed:
                t0 = time.perf_counter()
                got = hh_dims(poset, degree, "relative")
                seconds = time.perf_counter() - t0
            loops = speed.samples or [speed.time_loop()]
            times.append(seconds * REF_LOOP_S / statistics.fmean(loops))
            if got != want:
                print("error: %s gave %s, expected %s" % (key, got, want), file=sys.stderr)
                sys.exit(1)
        out[key] = {"value": statistics.median(times), "unit": "s", "repeats": REPEATS}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
