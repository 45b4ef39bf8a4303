"""Benchmark workloads: what each one runs, why it was chosen, and the
reference values its outputs are checked against.

Every workload is a list of ``banddim.cli.main(argv)`` calls.  A call covers
one or more pipeline stages; the oracle checks each stage's artifact on its
own, so a failure is counted per stage.  The workload seed becomes the
config ``seed`` (``run`` workloads) or ``witness hat --seed`` (subcommand
workload); it drives the hat's random samples and nothing else, so the
reference values below hold for every seed.

The three workloads split the loop into the layers that dominate it: hat,
extraction and checking.  Each is small enough that a run holds several
pipelines and reports their median: on a shared 2-core Xeon the time of one
pipeline drifts by 10-40% over a minute, so a run of one long pipeline (the
README config takes 24 s, a 12x12 grid chain 70 s) cannot be repeated
steadily within the run budget.

``interval150-hat``
    The README ``banddim run`` config (interval 150, r=5, fiber 2, brick 30,
    test_scale 1) with the stages up to ``hat``.  The hat takes about 80% of
    it, two thirds of that in dense SVDs; fiber 2 exercises the sampled
    fiber checks of condition 5.  Optimisations of extraction predict no
    change here.

``grid6-subcmd``
    The subcommand chain (space gen, cover gen, cover check, witness build,
    witness check, witness hat, extract, report) on a 6x6 linf grid at r=1,
    fiber 1.  Extraction takes about 85% of it, almost all in the matrix-unit
    identities of one corner of size 36.  It is the only workload that
    reloads bundles through ``load_witness`` and the only one on the
    subcommand path beside ``run``.  The cover is built with
    ``cover gen --r 3``: ``banddim run`` with the default auto-brick cover
    cannot build a grid witness at r=1 and exits 3 with "cover is not
    3-separated"; the program is left as it is.

``interval300-check``
    The README parameters on 300 points, stages up to ``check`` only.  It
    bypasses hat and extraction; condition 4 and ``decompose_neighbors``
    dominate, both growing about as n^2.  Hat or identity optimisations
    predict no change here.

A traced run reports every per-layer metric on every workload, so the result
has the same keys throughout.  Only ``grid6-subcmd`` reaches every layer; on
the others the layers they bypass read 0:

* ``interval150-hat``: ``extract.*`` except ``extract.decompose_s``, and
  ``space.load_s`` and ``witness.load_s`` (``run`` keeps its objects in
  memory);
* ``interval300-check``: the same, and ``witness.hat_s``,
  ``witness.hat.svd_*`` and ``fdalg.funcalc_calls``.

The scaling exponents are fitted only from stages both rungs run, and fail
rather than read 0.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace

RUN_STAGES = ("space", "cover", "witness", "check", "hat", "extract", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str           # "interval" or "grid"
    size: int             # interval length, or grid side
    r: int                # witness scale; the cover is built at 3r
    fiber: int
    brick_side: int
    stages: tuple         # pipeline stages, in order
    subcommands: bool     # True: one CLI call per stage; False: one `run` call
    colors: int           # colors of the extracted cover
    epsilon: float        # reference declared epsilon
    c2_worst: float       # reference condition-2 worst deviation

    @property
    def points(self):
        """Point ids as the CLI writes them in JSON."""
        if self.family == "interval":
            return list(range(self.size))
        return [list(p) for p in itertools.product(range(self.size), repeat=2)]

    def config(self, seed):
        if self.family == "interval":
            space = {"family": "interval", "length": self.size}
        else:
            space = {"family": "grid", "sides": [self.size, self.size],
                     "metric": "linf"}
        return {"space": space, "cover": {"brick_side": self.brick_side},
                "r": self.r, "fiber": self.fiber, "test_scale": 1,
                "stages": list(self.stages), "seed": seed}

    def write_inputs(self, seed, dirpath):
        """Generate the workload's inputs; returns the calls of one pipeline
        as (stages, argv-builder) pairs, the builder taking the output dir."""
        os.makedirs(dirpath, exist_ok=True)
        if not self.subcommands:
            cfg_path = os.path.join(dirpath, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(self.config(seed), fh, sort_keys=True)
            return [(self.stages,
                     lambda out: ["run", "--config", cfg_path, "--out-dir", out])]
        side = str(self.size)
        j = os.path.join
        calls = {
            "space": lambda o: ["space", "gen", "--family", "grid", "--sides", side,
                                side, "--metric", "linf", "--out", j(o, "space.json")],
            "cover": lambda o: ["cover", "gen", "--space", j(o, "space.json"),
                                "--r", str(3 * self.r), "--brick-side",
                                str(self.brick_side), "--out", j(o, "cover.json")],
            "cover_check": lambda o: ["cover", "check", "--space", j(o, "space.json"),
                                      "--cover", j(o, "cover.json"),
                                      "--r", str(3 * self.r),
                                      "--out", j(o, "cover_check.json")],
            "witness": lambda o: ["witness", "build", "--space", j(o, "space.json"),
                                  "--cover", j(o, "cover.json"), "--r", str(self.r),
                                  "--fiber", str(self.fiber), "--test-scale", "1",
                                  "--out", j(o, "witness")],
            "check": lambda o: ["witness", "check", "--witness", j(o, "witness"),
                                "--out", j(o, "check_report.json")],
            "hat": lambda o: ["witness", "hat", "--witness", j(o, "witness"),
                              "--seed", str(seed), "--out", j(o, "hat_report.json")],
            "extract": lambda o: ["extract", "--witness", j(o, "witness"),
                                  "--cover-out", j(o, "extracted_cover.json"),
                                  "--out", j(o, "extraction_report.json")],
            "report": lambda o: ["report", "--inputs", j(o, "check_report.json"),
                                 j(o, "hat_report.json"),
                                 j(o, "extraction_report.json"),
                                 "--out", j(o, "report.json")],
        }
        return [((stage,), calls[stage]) for stage in self.stages]


# Reference values written by the seed code.  They depend neither on the seed
# nor, as measured, on the length or side: intervals of 150, 300 and 600
# points, and grids of side 6 and 10, give the same values.
INTERVAL_EPSILON = 2.9517633852448792
INTERVAL_C2_WORST = 0.0871290708247231
GRID_EPSILON = 7.071067811865475
GRID_C2_WORST = 0.4999999999999999

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="interval150-hat",
            why="README run config up to hat: hat takes ~80%, mostly dense SVDs; "
                "fiber 2 drives condition-5 fiber sampling",
            family="interval", size=150, r=5, fiber=2, brick_side=30,
            stages=RUN_STAGES[:5], subcommands=False, colors=2,
            epsilon=INTERVAL_EPSILON, c2_worst=INTERVAL_C2_WORST),
        Workload(
            name="grid6-subcmd",
            why="6x6 grid subcommand chain: identities take ~85%; reloads bundles; "
                "cover gen --r 3, since run's auto-brick exits 3 at r=1",
            family="grid", size=6, r=1, fiber=1, brick_side=12,
            stages=("space", "cover", "cover_check", "witness", "check", "hat",
                    "extract", "report"),
            subcommands=True, colors=3,
            epsilon=GRID_EPSILON, c2_worst=GRID_C2_WORST),
        Workload(
            name="interval300-check",
            why="interval 300 up to check: condition 4 and decompose_neighbors "
                "grow about as n^2; bypasses hat and extraction",
            family="interval", size=300, r=5, fiber=2, brick_side=30,
            stages=RUN_STAGES[:4], subcommands=False, colors=2,
            epsilon=INTERVAL_EPSILON, c2_worst=INTERVAL_C2_WORST),
    )
}

# The rungs between which the traced run fits scaling exponents: the stages
# the two interval workloads share, at both sizes.
SCALING_RUNGS = {n: replace(WORKLOADS["interval300-check"],
                            name=f"interval{n}-check", size=n)
                 for n in (150, 300)}
