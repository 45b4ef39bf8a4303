"""Hat ladder: the hat stage of the README config, timed in-process on
intervals of 150, 300 and 600 points, with the outcome of its certificates
and of its Golub-Kahan-Lanczos runs.

Run from the root of a checkout:

    python3 tools/hat_ladder.py --lengths 150 300 600 --repeats 3 --out ladder.json

Each rung builds the README witness (interval, r=5, fiber 2, brick side 30,
test scale 1), untimed, and then times ``witness.hat_normalize`` (seed 0)
``--repeats`` times with one BLAS thread.  ``operators.certified_below`` is
wrapped, so each rung also records its calls per hat, how many it certified
and how many it refused, and the seconds spent in it.  Where the checkout
has them, ``operators.norm_enclosure`` and ``operators._lanczos_enclosure``
are wrapped too: per hat, the records valued, the Lanczos runs among them,
their steps (one ``np.linalg.eigh`` of the bidiagonal's Gram matrix per
step), and the upper-end certificates a record takes, proved and refused.
``np.linalg.svd`` is counted by the number of columns of its matrix: below
and from 2 CERT_PANEL = 96.  A checkout without the Lanczos routines
records zeros for them.  The hat report is recorded too, so the records of
two checkouts show whether they reach the same values, and so is the
process's peak RSS after each rung (the rungs run in the order given).  The
hat exponent is the least-squares slope of log(hat seconds) against log N
over the rungs run.

``--src`` imports banddim from the ``src/`` of another checkout, so two
checkouts can be measured by the same script.  The script is not part of the
test suite: the 600 rung takes seconds to tens of seconds per repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
R, FIBER, BRICK_SIDE, TEST_SCALE, SEED = 5, 2, 30, 1, 0


def _slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[150, 300, 600])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    # Thread counts are read when numpy loads BLAS, so set them first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from banddim import operators
    from banddim.cover import brick_cover
    from banddim.space import generate_space
    from banddim.witness import build_upper_witness, default_test_set, hat_normalize

    keys = ("calls", "certified", "seconds", "records", "lanczos_runs", "lanczos_steps",
            "upper_certificates", "upper_refused", "svd_small", "svd_large")
    tally = dict.fromkeys(keys, 0)
    inside = {"record": False, "lanczos": False}

    def wrap(owner, name, make):
        original = getattr(owner, name, None)
        if original is not None:
            setattr(owner, name, make(original))

    def counted_certificate(original):
        def certified_below(mat, bound, *panels):
            start = time.perf_counter()
            ok = original(mat, bound, *panels)
            tally["seconds"] += time.perf_counter() - start
            tally["calls"] += 1
            tally["certified"] += ok
            if inside["record"]:
                tally["upper_certificates"] += 1
                tally["upper_refused"] += not ok
            return ok
        return certified_below

    def within(flag, key):
        def make(original):
            def run(*args):
                tally[key] += 1
                inside[flag] = True
                try:
                    return original(*args)
                finally:
                    inside[flag] = False
            return run
        return make

    def counted_linalg(name):
        def make(original):
            def run(a, *args, **kwargs):
                if name == "svd":
                    tally["svd_large" if np.shape(a)[-1] >= 96 else "svd_small"] += 1
                elif inside["lanczos"]:
                    tally["lanczos_steps"] += 1
                return original(a, *args, **kwargs)
            return run
        return make

    wrap(operators, "certified_below", counted_certificate)
    wrap(operators, "norm_enclosure", within("record", "records"))
    wrap(operators, "_lanczos_enclosure", within("lanczos", "lanczos_runs"))
    wrap(np.linalg, "svd", counted_linalg("svd"))
    wrap(np.linalg, "eigh", counted_linalg("eigh"))
    rungs = []
    for length in args.lengths:
        space = generate_space("interval", length=length)
        witness = build_upper_witness(space, brick_cover(space, R, BRICK_SIDE), R, FIBER,
                                      test_set=default_test_set(space, TEST_SCALE, FIBER))
        hat_s, cert_s = [], []
        for _ in range(args.repeats):
            tally.update(dict.fromkeys(keys, 0))
            start = time.perf_counter()
            report = hat_normalize(witness, seed=SEED).report
            hat_s.append(time.perf_counter() - start)
            cert_s.append(tally["seconds"])
        rungs.append({
            "length": length, "N": length * FIBER,
            "hat_s": [round(t, 4) for t in hat_s],
            "hat_s_median": round(statistics.median(hat_s), 4),
            "certificate_s": [round(t, 4) for t in cert_s],
            "certificate_s_median": round(statistics.median(cert_s), 4),
            "certificates": tally["calls"], "certified": tally["certified"],
            "refused": tally["calls"] - tally["certified"],
            "records": tally["records"], "lanczos_runs": tally["lanczos_runs"],
            "lanczos_steps": tally["lanczos_steps"],
            "upper_certificates": tally["upper_certificates"],
            "upper_refused": tally["upper_refused"],
            "svd_calls_below_96_columns": tally["svd_small"],
            "svd_calls_from_96_columns": tally["svd_large"],
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "hat_report": report,
        })
    doc = {"config": {"family": "interval", "r": R, "fiber": FIBER,
                      "brick_side": BRICK_SIDE, "test_scale": TEST_SCALE, "seed": SEED,
                      "repeats": args.repeats},
           "rungs": rungs}
    if len(rungs) > 1:
        doc["hat_exp"] = round(_slope([r["N"] for r in rungs],
                                      [r["hat_s_median"] for r in rungs]), 3)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
