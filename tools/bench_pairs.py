"""Benchmark pairs: ``perfbench/run.py`` on two checkouts, run by turns, with
the statistics a speed claim rests on.

Run from anywhere, naming the two checkouts:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload interval300-check grid6-subcmd --pairs 10 --seconds 35 \\
        --seed 1 --out BENCH_name.json

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` in each checkout, one after the other, with the same seed; the
parent goes first in even pairs and the change in odd ones, so a drift of
the machine over the session falls on both sides alike.  Each checkout runs
its own ``perfbench/``, which this script only reads.  A run that exits
non-zero or prints no result line stops the script.

Each workload named runs all its pairs before the next one starts.  For
one workload the output is its document; for several, a JSON list of their
documents in the order named.  A document holds every run's result line
(the last line ``run.py`` prints), and for each end-to-end metric both
sides' medians and quartiles (``statistics.quantiles``, inclusive method),
the per-pair ratios change / parent, and the pairs each side won (lower is better; ties count for
neither).  ``claim_holds`` applies the rule for a claimed gain: the change
wins at least nine tenths of the pairs, and its median lies below the
parent's by more than the parent's interquartile range.

The end-to-end metrics and their bounds are read from the change's
``BENCHMARK.json``, which this script only reads.  ``verdict`` applies
the no-regression rule to each, with the allowance ``bound`` times the
parent's median: ``worse`` when the change's median is worse than the
parent's by more than the allowance; else ``unresolved`` when either
side's interquartile range is wider than the allowance, unless every
change run beats every parent run; else ``no worse``.  ``failed`` holds
the failed and attempted stages of each side, with the verdict ``worse``
when the change fails a larger share of them.  Standard library only,
and not part of the test suite: ten pairs at 35 s take about 15 minutes
per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

def run_once(checkout, workload, seed, seconds):
    """The result line of one benchmark run in ``checkout``."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """Median and quartiles of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent, change, bound):
    """The no-regression verdict of a lower-is-better metric on two sides'
    runs."""
    before, after = spread(parent), spread(change)
    allowance = bound * before["median"]
    if after["median"] - before["median"] > allowance:
        return "worse"
    if max(before["iqr"], after["iqr"]) > allowance and not max(change) < min(parent):
        return "unresolved"
    return "no worse"


def summarize(pairs, metric, bound):
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    before, after = spread(parent), spread(change)
    return {
        "parent": dict(before, values=parent),
        "change": dict(after, values=change),
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "parent_wins": sum(p < c for p, c in zip(parent, change)),
        "claim_holds": (sum(c < p for p, c in zip(parent, change)) >= 0.9 * len(pairs)
                        and before["median"] - after["median"] > before["iqr"]),
        "bound": bound,
        "verdict": verdict(parent, change, bound),
    }


def failed_stages(pairs):
    """The failed and attempted stages of each side, and the verdict."""
    counts = {side: {key: sum(p[side][key] for p in pairs) for key in ("failed", "attempted")}
              for side in ("parent", "change")}
    share = {side: c["failed"] / c["attempted"] for side, c in counts.items()}
    return dict(counts, verdict="worse" if share["change"] > share["parent"] else "no worse")


def run_pairs(sides, workload, bounds, args):
    """The document of one workload's pairs, with the end-to-end metrics
    and bounds ``bounds``."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"pair": i, "seed": seed, "order": order}
        for side in order:
            pair[side] = run_once(sides[side], workload, seed, args.seconds)
            print(f"{workload} pair {i} seed {seed} {side}: run_s "
                  f"{pair[side]['metrics']['run_s']['value']:.4f}", file=sys.stderr)
        pairs.append(pair)
    return {
        "workload": workload,
        "seconds": args.seconds,
        "command": f"perfbench/run.py --workload {workload} --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": pairs,
        "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "summary": {m: summarize(pairs, m, bound) for m, bound in bounds.items()
                    if all(m in p[s]["metrics"] for p in pairs for s in ("parent", "change"))},
        "failed": failed_stages(pairs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    if any(m["better"] != "lower" for m in end_to_end):
        parser.error("the verdict reads only end-to-end metrics where lower is better")
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    docs = [run_pairs(sides, workload, bounds, args) for workload in args.workload]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(docs[0] if len(docs) == 1 else docs, indent=1, sort_keys=True)
                 + "\n")
    for doc in docs:
        for metric, row in doc["summary"].items():
            print(f"{doc['workload']} {metric}: parent {row['parent']['median']:.4g} "
                  f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}], change "
                  f"{row['change']['median']:.4g} [{row['change']['q1']:.4g}, "
                  f"{row['change']['q3']:.4g}], change wins {row['change_wins']} of "
                  f"{len(doc['pairs'])}, claim holds: {row['claim_holds']}, "
                  f"{row['verdict']} (bound {row['bound']:g})")
        failed = doc["failed"]
        print(f"{doc['workload']} failed stages: parent {failed['parent']['failed']} of "
              f"{failed['parent']['attempted']}, change {failed['change']['failed']} of "
              f"{failed['change']['attempted']}, {failed['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
