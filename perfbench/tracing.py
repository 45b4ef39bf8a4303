"""Traced run: spans and counters around banddim's public functions.

``Tracer.install()`` replaces each traced function where its callers look it
up (a module attribute such as ``banddim.cli.check_witness``, or a method
such as ``BandOperator.__matmul__``) by a wrapper that records into the
tracer; ``uninstall()`` puts the originals back.  The program is not
changed.

Stage-level functions record spans (name, start, end, parent span) in
memory.  Hot kernels (matmul, norms, map applications) only add to a call
counter and a time total, which keeps the cost of millions of calls low.
The six conditions of ``check_witness`` run one after another, so each one's
time is the interval from the first call that starts it to the first call
that starts the next one; the markers are listed in ``install``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import Counter, defaultdict

CHECK = "witness.check"


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Tracer:
    def __init__(self):
        self.spans = []                   # [name, start, end, parent index]
        self.calls = Counter()            # kernel name -> calls
        self.seconds = defaultdict(float)  # kernel or phase name -> seconds
        self.counts = Counter()           # other counters
        self._stack = []
        self._open = Counter()
        self._patches = []
        self._phase = 0
        self._phase_start = 0.0

    # -- recording --------------------------------------------------------

    def _begin(self, name):
        now = time.perf_counter()
        self.spans.append([name, now, None, self._stack[-1] if self._stack else None])
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1
        if name == CHECK:
            self._phase, self._phase_start = 1, now

    def _end(self):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1
        if span[0] == CHECK:
            self.seconds[f"{CHECK}.c{self._phase}"] += span[2] - self._phase_start
            self._phase = 0

    def mark(self, phase):
        """Start check condition ``phase`` if the previous one is running."""
        if self._phase and self._phase == phase - 1:
            now = time.perf_counter()
            self.seconds[f"{CHECK}.c{self._phase}"] += now - self._phase_start
            self._phase, self._phase_start = phase, now

    @contextlib.contextmanager
    def span(self, name):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr, name, mark=0, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if mark:
                    self.mark(mark)
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after:
                    after(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _kernel(self, owner, attr, name, mark=0, within=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if within and not self._open[within]:
                    return fn(*args, **kwargs)
                if mark:
                    self.mark(mark)
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
                if after:
                    after(result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _marker(self, owner, attr, mark):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.mark(mark)
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        import numpy

        import banddim.cli as cli
        import banddim.cpmaps as cpmaps
        import banddim.extract as extract
        import banddim.fdalg as fdalg
        import banddim.operators as operators
        import banddim.space as space
        import banddim.witness as witness

        def bundle(args, result):
            self.counts["witness.bundle_bytes"] += dir_bytes(args[1])

        def nonzero(result):
            self.counts["operators.matmul_nonzero"] += bool(result.blocks)

        for owner in (cli, space):
            self._span(owner, "load_space", "space.load")
            self._span(owner, "save_space", "space.save")
        self._span(cli, "generate_space", "space.generate")
        self._span(cli, "brick_cover", "cover.brick")
        for owner in (cli, witness, extract):
            self._span(owner, "verify_cover", "cover.verify")
        self._span(cli, "build_upper_witness", "witness.build")
        self._span(cli, "save_witness", "witness.save", after=bundle)
        self._span(cli, "load_witness", "witness.load")
        self._span(cli, "check_witness", CHECK)
        self._span(cli, "hat_normalize", "witness.hat")
        self._span(cli, "threshold_setup", "extract.threshold")
        self._span(cli, "build_translation_system", "extract.translation")
        for owner in (cli, extract):
            self._span(owner, "matrix_unit_identities", "extract.identities")
        self._span(cli, "extract_cover", "extract.cover")
        self._span(extract, "decompose_neighbors", "extract.decompose")
        # Condition markers: c1 starts with check_witness, c2 with
        # condition2_errors, c3 with color_phis, c4 with the first
        # compression after that, c5 with normalizer_check, c6 with
        # factorize_order_zero.
        self._marker(witness, "condition2_errors", 2)
        self._marker(witness.DiagDimWitness, "color_phis", 3)
        for owner in (witness, extract):
            self._span(owner, "factorize_order_zero", "cpmaps.factorize",
                       mark=6 if owner is witness else 0)
        self._span(witness, "order_zero_check", "cpmaps.order_zero")
        self._span(witness, "cop_check", "cpmaps.cop")

        op = operators.BandOperator
        self._kernel(op, "__matmul__", "operators.matmul", after=nonzero)
        self._kernel(op, "__add__", "operators.addsub")
        self._kernel(op, "__sub__", "operators.addsub")
        for owner in (operators, cpmaps, witness, extract):
            self._kernel(owner, "operator_norm", "operators.norm")
        self._kernel(operators, "normalizer_check", "operators.normalizer_check",
                     mark=5)
        self._kernel(fdalg.FdElement, "is_canonical_diagonal", "fdalg.canonical_diag")
        self._kernel(fdalg.FdElement, "funcalc", "fdalg.funcalc")
        self._kernel(cpmaps.CompressionMap, "apply", "cpmaps.compress_apply", mark=4)
        self._kernel(cpmaps.InclusionMap, "apply", "cpmaps.include_apply")
        self._kernel(cpmaps.InclusionMap, "image_of_unit", "cpmaps.unit_image")
        self._kernel(numpy.linalg, "svd", "witness.hat.svd", within="witness.hat")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def total(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name, child=None):
        """Time in spans ``name`` not covered by their direct children (only
        children named ``child`` when given)."""
        covered = defaultdict(float)
        for n, start, end, parent in self.spans:
            if parent is not None and child in (None, n):
                covered[parent] += end - start
        return sum(end - start - covered[i]
                   for i, (n, start, end, _) in enumerate(self.spans) if n == name)

    def layer_metrics(self):
        """The per-layer metrics, name -> (value, unit)."""
        s, c, k = self.seconds, self.calls, self.counts
        matmuls = c["operators.matmul"]
        out = {
            "extract.identities_s": (self.total("extract.identities"), "s"),
            "extract.identities_calls": (self.count("extract.identities"), "count"),
            "extract.translation_s": (
                self.self_time("extract.translation", "extract.identities"), "s"),
            "extract.threshold_s": (self.total("extract.threshold"), "s"),
            "extract.cover_s": (self.total("extract.cover"), "s"),
            "extract.decompose_s": (self.total("extract.decompose"), "s"),
            "operators.matmul_calls": (matmuls, "count"),
            "operators.matmul_s": (s["operators.matmul"], "s"),
            "operators.matmul_nonzero_ratio": (
                k["operators.matmul_nonzero"] / matmuls if matmuls else 0.0, "ratio"),
            "operators.addsub_calls": (c["operators.addsub"], "count"),
            "operators.norm_calls": (c["operators.norm"], "count"),
            "operators.norm_s": (s["operators.norm"], "s"),
            "operators.normalizer_checks": (c["operators.normalizer_check"], "count"),
            "witness.hat_s": (self.total("witness.hat"), "s"),
            "witness.hat.svd_calls": (c["witness.hat.svd"], "count"),
            "witness.hat.svd_s": (s["witness.hat.svd"], "s"),
            "witness.check_s": (self.total(CHECK), "s"),
        }
        for i in range(1, 7):
            out[f"{CHECK}.c{i}_s"] = (s[f"{CHECK}.c{i}"], "s")
        out.update({
            "witness.build_s": (self.total("witness.build"), "s"),
            "witness.save_s": (self.total("witness.save"), "s"),
            "witness.load_s": (self.total("witness.load"), "s"),
            "witness.bundle_bytes": (k["witness.bundle_bytes"], "bytes"),
            "fdalg.canonical_diag_calls": (c["fdalg.canonical_diag"], "count"),
            "fdalg.canonical_diag_s": (s["fdalg.canonical_diag"], "s"),
            "fdalg.funcalc_calls": (c["fdalg.funcalc"], "count"),
            "cpmaps.compress_apply_calls": (c["cpmaps.compress_apply"], "count"),
            "cpmaps.compress_apply_s": (s["cpmaps.compress_apply"], "s"),
            "cpmaps.include_apply_calls": (c["cpmaps.include_apply"], "count"),
            "cpmaps.include_apply_s": (s["cpmaps.include_apply"], "s"),
            "cpmaps.unit_image_calls": (c["cpmaps.unit_image"], "count"),
            "cpmaps.factorize_calls": (self.count("cpmaps.factorize"), "count"),
            "cpmaps.factorize_s": (self.total("cpmaps.factorize"), "s"),
            "cpmaps.order_zero_s": (self.total("cpmaps.order_zero"), "s"),
            "cpmaps.cop_s": (self.total("cpmaps.cop"), "s"),
            "space.generate_s": (self.total("space.generate"), "s"),
            "space.load_s": (self.total("space.load"), "s"),
            "space.save_s": (self.total("space.save"), "s"),
            "cover.brick_s": (self.total("cover.brick"), "s"),
            "cover.verify_s": (self.total("cover.verify"), "s"),
            "cli.self_s": (self.self_time("cli.main"), "s"),
        })
        return out


SCALED_STAGES = {"scaling.build_exp": "witness.build_s",
                 "scaling.check_exp": "witness.check_s",
                 "scaling.decompose_exp": "extract.decompose_s"}


def scaling_exponents(small, large, ratio):
    """Fitted exponents t ~ n^k between two rungs whose sizes differ by
    ``ratio``, from their layer metrics."""
    out = {}
    for name, stage in SCALED_STAGES.items():
        t0, t1 = small[stage][0], large[stage][0]
        if not (t0 > 0 and t1 > 0):
            raise ValueError(f"{stage} is {t0} and {t1} s on the scaling rungs; "
                             "no exponent can be fitted")
        out[name] = (math.log(t1 / t0) / math.log(ratio), "exponent")
    return out
