"""Self-test of the benchmark's failure accounting.

Runs a small interval pipeline, then corrupts copies of its output (a flipped
verdict, a wrong color count, a drifted epsilon, a failed hat) and checks
that the oracle counts each corrupted stage as failed, while the clean output
counts none.  A pipeline whose CLI call exits non-zero must count all its
stages as failed.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every case is counted as expected, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from dataclasses import replace

from run import prepare

CASES = []


def case(expected):
    def register(fn):
        CASES.append((fn.__name__, expected, fn))
        return fn
    return register


def _edit(out, name, change):
    path = os.path.join(out, name)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@case([])
def clean(out):
    pass


@case(["check"])
def flipped_verdict(out):
    _edit(out, "check_report.json",
          lambda doc: doc["conditions"][2].update(verdict=False))


@case(["check"])
def drifted_epsilon(out):
    _edit(out, "check_report.json",
          lambda doc: doc.update(epsilon=doc["epsilon"] * (1 + 1e-6)))


@case(["hat"])
def failed_hat(out):
    _edit(out, "hat_report.json", lambda doc: doc.update(passed=False))


@case(["extract"])
def wrong_color_count(out):
    _edit(out, "extracted_cover.json", lambda doc: doc["families"].append([]))


@case(["extract"])
def class_above_corner_bound(out):
    _edit(out, "extraction_report.json", lambda doc: doc.update(
        s_max=doc["s_max"] - 1,
        corners=[dict(c, s=min(c["s"], doc["s_max"] - 1)) for c in doc["corners"]]))


def main():
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import banddim.cli
    import harness
    import oracle
    from workloads import RUN_STAGES, Workload

    small = Workload(
        name="interval40-selftest", why="self-test", family="interval", size=40,
        r=2, fiber=1, brick_side=12, stages=RUN_STAGES, subcommands=False, colors=2,
        epsilon=4.283729905961322, c2_worst=0.18350341907227397)
    ok = True
    tmp = harness.scratch_dir("selftest")
    try:
        # A brick side below the scale makes `run` exit 3 at the cover stage.
        bad = replace(small, brick_side=1)
        calls = bad.write_inputs(0, os.path.join(tmp, "bad-inputs"))
        sample = harness.run_pipeline(bad, calls, os.path.join(tmp, "bad"))
        print(f"non-zero exit: failed {len(sample.failed)} of {sample.attempted} stages")
        ok &= sample.failed == list(RUN_STAGES)

        # One clean pipeline; the `clean` case checks it, the others corrupt
        # copies of it.
        reference = os.path.join(tmp, "reference")
        (_, argv), = small.write_inputs(0, os.path.join(tmp, "inputs"))
        with contextlib.redirect_stdout(None):
            rc = banddim.cli.main(argv(reference))
        print(f"pipeline: exit code {rc}")
        ok &= rc == 0
        for name, expected, corrupt in CASES:
            out = os.path.join(tmp, name)
            shutil.copytree(reference, out)
            corrupt(out)
            failed = oracle.failed_stages(small, out, RUN_STAGES)
            frac = len(failed) / len(RUN_STAGES)
            good = failed == expected
            ok &= good
            print(f"{name:26s} failed {failed} failed_frac {frac:.3f} "
                  f"{'ok' if good else f'EXPECTED {expected}'}")
    finally:
        shutil.rmtree(tmp)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
