"""Pipeline benchmark for banddim: cover -> witness -> check -> hat -> extract.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid6-subcmd --seed 1 --seconds 35 --trace 0

Workloads and why they were chosen are in ``workloads.py``.  One process
runs one pipeline at a time through ``banddim.cli.main(argv)``, repeating
until the next pipeline would end after ``--seconds`` (at least once), and
checks every output with ``oracle.py``.

With ``--trace 0`` it reports the end-to-end metrics:

    run_s        wall time of one pipeline, median over the pipelines run
    cpu_s        user plus system CPU time of one pipeline, median
    setup_s      fresh-interpreter import of banddim.cli plus generation of
                 the workload's inputs, median of 9
    peak_rss_mb  peak resident memory of the benchmark process (MB = 2^20 B)
    artifact_mb  bytes written to the output directory: reports and bundle
    failed_frac  stages that failed, exited non-zero or gave wrong output,
                 over stages attempted; the JSON line carries it as
                 ``failed`` over ``attempted``, since a metric must not be 0

With ``--trace 1`` it alternates untraced and traced pipelines, then traces
the interval check prefix at the scaling rung the workload is not, and
reports the per-layer metrics of ``tracing.py``, the scaling exponents and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment (versions, BLAS threads, CPU).  The program is
imported from ``src/`` of the checkout; without it the benchmark exits 2.
``selftest.py`` checks that corrupted outputs are counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread: on a shared 2-core machine a second one widened the
# run-to-run spread of run_s from 9% to 16% without making runs faster.
BLAS_THREADS = "1"


def prepare():
    """Point BLAS, the import path and this process at the checkout's
    ``src/``; returns an error message, or None when banddim is importable
    from there."""
    if not os.path.isfile(os.path.join(SRC, "banddim", "cli.py")):
        return f"no banddim sources in {SRC}"
    # Thread counts are read when numpy loads BLAS, so set them first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import banddim
    if os.path.dirname(os.path.abspath(banddim.__file__)) != os.path.join(SRC, "banddim"):
        return f"banddim imported from {banddim.__file__}, not {SRC}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.report(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
