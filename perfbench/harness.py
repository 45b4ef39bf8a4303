"""Measurement loop of the pipeline benchmark (see run.py for usage).

One process, one pipeline at a time (a closed loop with a single client).
Each pipeline calls ``banddim.cli.main(argv)`` in this process, writes into
a fresh directory under a ``.perfbench-*`` directory at the root of the
checkout (the benchmark reads and writes only inside its checkout), and is
checked by the oracle after its clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy

import banddim.cli
import oracle
from tracing import Tracer, dir_bytes, scaling_exponents
from workloads import SCALING_RUNGS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 2 ** 20
SETUP_REPEATS = 9


@dataclass
class Sample:
    run_s: float
    cpu_s: float
    artifact_bytes: int
    attempted: int
    failed: list


def scratch_dir(prefix):
    """A new, empty directory at the root of the checkout."""
    return tempfile.mkdtemp(prefix=f".perfbench-{prefix}-", dir=ROOT)


def _cpu_seconds():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def _call(argv):
    """One CLI call; an exception escaping ``main`` counts as a failed call."""
    try:
        return banddim.cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_pipeline(wl, calls, out, tracer=None):
    """Run the calls of one pipeline into ``out``; time, then check it."""
    os.makedirs(out)
    gc.collect()
    log = io.StringIO()
    failed = []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for stages, argv in calls:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                rc = _call(argv(out))
            else:
                with tracer.span("cli.main"):
                    rc = _call(argv(out))
        if rc != 0:
            failed.extend(stages)
    run_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
    stages = [s for group, _ in calls for s in group]
    failed += oracle.failed_stages(wl, out, [s for s in stages if s not in failed])
    if failed:
        print(f"{wl.name}: failed stages {failed}\n{log.getvalue()}", file=sys.stderr)
    sample = Sample(run_s, cpu_s, dir_bytes(out), len(stages), failed)
    shutil.rmtree(out)
    return sample


def measure_setup(wl, seed, tmp):
    """Median over repeats of a fresh-interpreter import of ``banddim.cli``
    plus generation of the workload's inputs; returns it with the calls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(banddim.__file__)),
                    env.get("PYTHONPATH")) if p)
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import banddim.cli"], env=env,
                       cwd=tmp, check=True)
        calls = wl.write_inputs(seed, os.path.join(tmp, f"inputs{i}"))
        times.append(time.perf_counter() - start)
    return statistics.median(times), calls


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "blas": blas, "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model()}


def tail_percentile(values):
    """(p, value) of the highest percentile with at least ten samples above
    it, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n), sorted(values)[n - 11]


def _traced_pipeline(wl, calls, out):
    tracer = Tracer()
    tracer.install()
    try:
        sample = run_pipeline(wl, calls, out, tracer)
    finally:
        tracer.uninstall()
    return sample, tracer


def run(wl, seed, seconds, trace):
    """Measure one workload; returns (samples, metrics, notes)."""
    tmp = scratch_dir(wl.name)
    try:
        return (_trace_run if trace else _timed_run)(wl, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp)


def _repeat(seconds, once):
    """Call ``once(i)`` for i = 0, 1, ... until the next call would end after
    ``seconds`` (judged by the median call so far); at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def _timed_run(wl, seed, seconds, tmp):
    setup_s, calls = measure_setup(wl, seed, tmp)
    samples = _repeat(seconds, lambda i: run_pipeline(
        wl, calls, os.path.join(tmp, f"run{i}")))
    runs = [s.run_s for s in samples]
    metrics = {
        "run_s": (statistics.median(runs), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
                        "MB"),
        "artifact_mb": (statistics.median(s.artifact_bytes for s in samples) / MB, "MB"),
    }
    notes = [f"pipelines: {len(samples)}; run_s samples: {runs}"]
    tail = tail_percentile(runs)
    notes.append(f"run_s p{tail[0]}: {tail[1]} s" if tail else
                 "run_s tail percentile: fewer than 11 samples")
    return samples, metrics, notes


def _median_metrics(runs):
    return {name: (statistics.median_low(m[name][0] for m in runs), unit)
            for name, (_, unit) in runs[0].items()}


def _trace_run(wl, seed, seconds, tmp):
    """Untraced and traced pipelines in alternation, then the scaling rungs
    this workload is not; per-layer metrics are medians over the traced
    pipelines."""
    calls = wl.write_inputs(seed, os.path.join(tmp, "inputs"))

    def pair(i):
        plain = run_pipeline(wl, calls, os.path.join(tmp, f"plain{i}"))
        traced, tracer = _traced_pipeline(wl, calls, os.path.join(tmp, f"traced{i}"))
        return plain, traced, tracer.layer_metrics()

    pairs = _repeat(seconds, pair)
    samples = [s for plain, traced, _ in pairs for s in (plain, traced)]
    metrics = _median_metrics([layers for _, _, layers in pairs])
    rungs = {}
    for n, rung in SCALING_RUNGS.items():
        if wl.family == rung.family and wl.size == n:
            rungs[n] = metrics
            continue
        rung_calls = rung.write_inputs(seed, os.path.join(tmp, f"{rung.name}-inputs"))
        sample, tracer = _traced_pipeline(rung, rung_calls, os.path.join(tmp, rung.name))
        samples.append(sample)
        rungs[n] = tracer.layer_metrics()
    small, large = sorted(rungs)
    metrics.update(scaling_exponents(rungs[small], rungs[large], large / small))
    plain_s = statistics.median(plain.run_s for plain, _, _ in pairs)
    traced_s = statistics.median(traced.run_s for _, traced, _ in pairs)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    notes = [f"pairs: {len(pairs)}; median untraced run_s {plain_s} s, "
             f"traced {traced_s} s"]
    return samples, metrics, notes


def report(wl, seed, seconds, trace):
    """Run, print the human-readable report, and return the result dict."""
    samples, metrics, notes = run(wl, seed, seconds, trace)
    attempted = sum(s.attempted for s in samples)
    failed = sum(len(s.failed) for s in samples)
    mode = "traced" if trace else "untraced"
    print(f"workload {wl.name} seed {seed} ({mode}): {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value!r} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted!r} ratio "
          f"({failed} of {attempted} stages)")
    for line in notes:
        print(f"  {line}")
    print("env " + json.dumps(environment(), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
