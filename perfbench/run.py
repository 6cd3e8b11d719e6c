"""leftex benchmark.

    python3 perfbench/run.py --workload {numbers,decide,orbits} --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one thread (numpy/BLAS/OpenMP capped at 1), a closed
loop with a single caller: each op is one public call, checked exactly
before the next one starts.

A pass runs the workload's whole op list against freshly imported leftex
modules, so every pass starts with empty module caches, as one CLI
invocation would.  Passes repeat until ``--seconds`` have elapsed, and each
op's latency is its median over the passes.  The end-to-end times are
scaled to a reference machine speed (see ``calibrate``).  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones.  The last line of standard output is the JSON result; the
lines before it are a readable summary.
"""

from __future__ import annotations

import os

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy  # noqa: E402,F401  -- imported once, outside every timed set-up

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("words", "configuration", "rules", "numeric", "properties", "dynamics", "render", "cli")
#: set-ups timed before the first pass; each pass adds one more
SETUP_REPEATS = 15
#: the reference loop's best time, in seconds, at the speed that the
#: end-to-end times are scaled to (about its time on a 2-vCPU Xeon VM)
REFERENCE_S = 1e-3

_REF_BYTES = bytes(range(256)) * 4
_REF_DICT = {i: 7 * i for i in range(512)}
_REF_ARRAY = numpy.frombuffer(bytes(range(256)) * 4096, dtype=numpy.uint8)
_REF_OUT = numpy.empty(len(_REF_ARRAY) - 2, dtype=numpy.uint8)
_REF_INTS = (3**13000 + 1, 7**10000 + 1)


def _reference_loop():
    """A fixed mix of interpreter, dict and list work, one product of two
    20 000-bit integers and three numpy passes over 1 MB, which is the mix
    the workloads spend their time on.  The numpy part writes into a buffer
    allocated once, so that its time does not depend on the state of the
    allocator."""
    x, y = _REF_INTS
    x * y
    t, d = _REF_BYTES, _REF_DICT
    s = 0
    for i in range(len(t) - 2):
        s += (t[i] * 3 + t[i + 1]) ^ t[i + 2]
    out = [d[i] + d[(i * 31) & 511] for i in range(512)]
    a, b = _REF_ARRAY, _REF_OUT
    numpy.multiply(a[:-2], 3, out=b)
    numpy.add(b, a[1:-1], out=b)
    numpy.bitwise_xor(b, a[2:], out=b)
    return s + len(out) + int(b[::4096].sum())


def calibrate():
    """Best of two times of the reference loop now, with the garbage
    collector off, so that it does not depend on what the program keeps
    alive.

    The shared machine runs this process up to 40% slower for tens of
    seconds at a time.  Each timed interval is therefore scaled by
    ``REFERENCE_S`` over the mean of the reference times taken just before
    it, during it (see ``Sampler``) and just after it.  The loop is the
    benchmark's own code, so a change to leftex moves the scaled times
    exactly as much as the raw ones."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds, refs):
    """``seconds`` at the reference speed, given the reference times
    measured before, during and after the interval."""
    return seconds * len(refs) * REFERENCE_S / sum(refs)


class Sampler:
    """Takes reference times during an op, every ``interval`` seconds, from
    a SIGALRM handler, so that an op longer than a phase of the machine is
    scaled by the speed over its whole time.  ``paused`` is the time the
    samples took, which is kept out of the op's latency.  A disabled
    sampler takes none."""

    def __init__(self, interval=0.2, enabled=True):
        self.interval, self.enabled = interval, enabled
        self.refs, self.paused = [], 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.refs.append(calibrate())
        self.paused += time.perf_counter() - start

    def start(self):
        self.refs, self.paused = [], 0.0
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        """Returns (reference times, seconds paused) since ``start``."""
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return self.refs, self.paused

    def __enter__(self):
        if self.enabled:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)


def fresh_import():
    """Import leftex with no module of it loaded before, so module-level
    caches start empty."""
    for name in [n for n in sys.modules if n == "leftex" or n.startswith("leftex.")]:
        del sys.modules[name]
    pkg = importlib.import_module("leftex")
    lx = types.SimpleNamespace(pkg=pkg)
    for name in MODULES:
        setattr(lx, name, importlib.import_module(f"leftex.{name}"))
    return lx


def set_up(workload, ops, tracer=None):
    """Time the import and the automata build; returns (lx, ctx, seconds)."""
    gc.collect()
    start = time.perf_counter()
    lx = fresh_import()
    if tracer is not None:
        spans.install(lx, tracer)
        tracer.op = "setup"
    ctx = workload.setup(lx, ops)
    return lx, ctx, time.perf_counter() - start


def scaled_set_up(workload, ops):
    """One untraced set-up's time at the reference speed."""
    before = calibrate()
    seconds = set_up(workload, ops)[2]
    return scale(seconds, [before, calibrate()])


def run_pass(workload, ops, tracer=None):
    """One pass over the op list; returns a dict of timings and failures.

    ``refs`` holds the reference times: one before the set-up, then one
    after the set-up and after each op.  Untraced passes also sample them
    during each op."""
    if tracer is not None:
        tracer.reset_pass()
    refs = [calibrate()]
    lx, ctx, setup_s = set_up(workload, ops, tracer)
    refs.append(calibrate())
    latencies, scaled, results, failed = [], [], [], set()
    with Sampler(enabled=tracer is None) as sampler:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            sampler.start()
            start = time.perf_counter()
            try:
                result, error = workload.run(lx, ctx, op), None
            except Exception as exc:  # a raising op is a failed op; the run goes on
                result, error = None, exc
            elapsed = time.perf_counter() - start
            during, paused = sampler.stop()
            latencies.append(elapsed - paused)
            refs.append(calibrate())
            scaled.append(scale(latencies[-1], [refs[-2], *during, refs[-1]]))
            results.append(result)
            if error is not None:
                failed.add(k)
                print(f"op {k} ({op.kind}) raised {type(error).__name__}: {error}",
                      file=sys.stderr)
                continue
            try:
                ok = workload.check(lx, ctx, op, result)
            except Exception as exc:
                print(f"op {k} ({op.kind}) check raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                ok = False
            if not ok:
                failed.add(k)
                print(f"op {k} ({op.kind}) failed its check", file=sys.stderr)
    failed.update(workload.finish_pass(lx, ctx, ops, results))
    if tracer is not None:
        tracer.op = None
    pow_cache = getattr(lx.numeric, "_pow_cache", {})
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "refs": refs,
        "scaled_setup_s": scale(setup_s, refs[:2]),
        "scaled": scaled,
        "failed": len(failed),
        "pow_cache": (len(pow_cache),
                      sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in pow_cache.items()) / 1e6),
    }


def quantile(values, q):
    """Inclusive-method quantile with q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(passes, setups, attempted, failed):
    """Times at the reference speed.  ``wall_s`` sums each op's median
    latency over the passes; the percentiles pool every timed op of every
    pass."""
    typical = [statistics.median(column) for column in zip(*(p["scaled"] for p in passes))]
    pooled = [t for p in passes for t in p["scaled"]]
    return {
        "wall_s": (sum(typical), "s"),
        "op_p50_ms": (1e3 * quantile(pooled, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(pooled, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer_specs():
    """Per-layer metric name -> (layer key, field, unit)."""
    specs = {}
    units = {"calls": "count", "self_s": "s", "symbols": "count", "digits": "count",
             "absorbed": "count", "seeds": "count", "unknown": "count", "bytes": "count",
             "max_head": "count"}
    fields = {
        "numeric.rational_to_config": ("calls", "digits", "self_s"),
        "numeric.config_to_rational": ("calls", "digits", "self_s"),
        "numeric.verify_mul": ("self_s",),
        "configuration.canonicalize": ("calls", "absorbed", "self_s"),
        "configuration.window": ("calls", "symbols", "self_s"),
        "words": ("calls", "symbols", "self_s"),
        "rules.apply": ("calls", "symbols", "self_s", "max_head"),
        "rules.map_windows": ("calls", "symbols", "self_s"),
        "rules.compose": ("self_s",),
        "properties.is_left_expansive": ("calls", "seeds", "self_s", "unknown"),
        "properties.find_left_expansive_dims": ("self_s",),
        "properties.classify_rapid": ("self_s",),
        "properties.estimate_spreading_speed": ("self_s",),
        "properties.left_spreading_witnesses": ("self_s",),
        "dynamics.aperiodicity_scan": ("self_s",),
        "dynamics.limit_point_census": ("self_s",),
        "dynamics.recurrence_scan": ("self_s",),
        "dynamics.detect_eventual_period": ("self_s",),
        "render.render_to": ("self_s", "bytes"),
        "cli.main": ("calls", "self_s"),
    }
    for layer, names in fields.items():
        for field in names:
            specs[f"{layer}.{field}"] = (layer, field, units[field])
    return specs


def layer_metrics(tracer, traced, untraced):
    """Per traced pass averages of the tracer's totals, plus derived ratios."""
    n = len(traced)
    out = {}
    for name, (layer, field, unit) in per_layer_specs().items():
        tot = tracer.totals.get(layer, {})
        value = tot.get(field, 0)
        out[name] = (value if field == "max_head" else value / n, unit)
    mw = tracer.totals.get("rules.map_windows", {})
    out["rules.map_windows.short_share"] = (mw.get("short", 0) / mw["calls"] if mw.get("calls")
                                            else 0.0, "ratio")
    ex = tracer.totals.get("properties.is_left_expansive", {})
    out["properties.is_left_expansive.seeds_per_s"] = (
        ex.get("seeds", 0) / ex["incl_s"] if ex.get("incl_s") else 0.0, "1/s")
    out["properties.is_left_expansive.repeat_ratio"] = (
        tracer.repeats / tracer.queries if tracer.queries else 0.0, "ratio")
    out["numeric.pow_cache.entries"] = (statistics.mean(p["pow_cache"][0] for p in traced), "count")
    out["numeric.pow_cache.mb"] = (statistics.mean(p["pow_cache"][1] for p in traced), "MB")
    # a traced pass is timed from its set-up on, so that compose spans fit
    # inside it; the overhead compares passes at the reference speed, since
    # the machine's speed drifts between them
    out["trace.wall_s"] = (statistics.median(p["setup_s"] + p["wall_s"] for p in traced), "s")
    traced_s, untraced_s = (statistics.median(p["scaled_setup_s"] + sum(p["scaled"]) for p in ps)
                            for ps in (traced, untraced))
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.self_s_sum"] = (sum(t["self_s"] for t in tracer.totals.values()) / n, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "leftex")):
        print(f"no leftex package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    ops, record = workload.generate(args.seed)

    setups = [scaled_set_up(workload, ops) for _ in range(SETUP_REPEATS)]
    tracer = spans.Tracer() if args.trace else None
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, ops))
        setups.append(passes[-1]["scaled_setup_s"])
        if tracer is not None:
            traced.append(run_pass(workload, ops, tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = sum(len(p["latencies"]) for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    if tracer is None:
        metrics = end_to_end(passes, setups, attempted, failed)
    else:
        metrics = layer_metrics(tracer, traced, passes)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"), "w") as out:
            tracer.write_to(out)

    print("pass wall_s, unscaled " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print("pass wall_s, scaled " + " ".join(f"{sum(p['scaled']):.4f}" for p in passes))
    refs = [r for p in passes + traced for r in p["refs"]]
    print(f"reference loop ms: min {1e3 * min(refs):.4f} median {1e3 * statistics.median(refs):.4f}"
          f" max {1e3 * max(refs):.4f} (times are scaled to {1e3 * REFERENCE_S:g})")
    record["passes"] = len(passes)
    record["traced_passes"] = len(traced)
    record["ops_per_pass"] = len(ops)
    print("inputs " + json.dumps(record, sort_keys=True))
    if tracer is None:
        print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"op latency: {len(passes)} passes of {len(ops)} ops, {len(passes) * len(ops)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
