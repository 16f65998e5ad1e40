#!/usr/bin/env python3
"""tgkit benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads: census, certify, chart, verify (or `all`, which runs the four in
turn in this process).  Each is a closed loop with one client: the next op
starts when the previous one has returned and been checked.  Inputs come
from `generate.py` and depend only on --seed.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

--trace 1 runs untraced ops for 30% of --seconds, replays the same ops
with every public tgkit entry point rebound to a span recorder
(tracing.py), replays them untraced once more, and reports per-op layer
numbers plus the tracing overhead against the two untraced passes.
Spans are written to .bench_out/ at the repository root.

Run from a checkout that holds src/tgkit; without it the benchmark exits 2.
"""
from __future__ import annotations

import os
import sys

# One closed-loop client on a 2-core box; every kernel is a tiny numpy call,
# so BLAS worker threads would only measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("census", "certify", "chart", "verify")
SETUP_PROBES = 11
TRACE_UNTRACED_SHARE = 0.3
TAIL_MIN_BEYOND = 10
# op_tail_ms percentile of each workload.  It is fixed, so runs that get
# through different numbers of ops report the same percentile, and each
# leaves at least TAIL_MIN_BEYOND samples beyond it in the slowest runs.
# verify's round-robin makes seven cost levels of 1/7 of the ops each; a
# percentile near the edge between two (85.7%, heisenberg over hyperbolic2)
# flips between them with the op count, so verify takes p80, mid-level.
# Beyond p95 the ~1 ms certify ops time scheduler preemptions.
TAIL_PCT = {"census": 70.0, "certify": 95.0, "chart": 75.0, "verify": 80.0}
CHECK_OP = -2       # op id of the bench's own check calls while tracing


def _use_checkout():
    if not (SRC / "tgkit" / "__init__.py").is_file():
        print(f"error: no tgkit sources under {SRC}; run from a tgkit checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def tail(latencies, pct):
    """(percentile, value, samples beyond) at percentile `pct`, or at the
    highest percentile with TAIL_MIN_BEYOND samples beyond it if lower."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, s[-1], 0
    pct = min(pct, 100.0 * (n - TAIL_MIN_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return pct, s[rank - 1], n - rank


def setup_probe(workload, seed):
    """(when, seconds): set-up time of a fresh process, which imports tgkit
    and builds the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    when = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return when, json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def op_loop(tg, runner, items, budget=None, count=None, tracer=None, between=None):
    """Closed loop over items; stops after `budget` seconds or `count` ops.

    Only runner.op is timed; `between(elapsed)` runs after each op's check.
    Returns (start times, latencies, failures) where failures lists (op
    index, messages) for ops that raised or failed their check.
    """
    clock = time.perf_counter
    began = clock()
    deadline = began + (budget or 0.0)
    started, latencies, failures = [], [], []
    i = 0
    while (i < count) if count is not None else (i == 0 or clock() < deadline):
        prepared = items[i % len(items)]
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        started.append(t0)
        try:
            out = runner.op(tg, prepared)
            errs = None
        except Exception as exc:    # an op that raises is a failed op
            errs = [f"{type(exc).__name__}: {exc}"]
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.op_id = CHECK_OP
        if errs is None:
            try:
                errs = runner.check(tg, prepared, out)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            failures.append((i, errs))
        if between is not None:
            between(clock() - began)
        i += 1
    return started, latencies, failures


def _report_failures(workload, failures):
    for i, errs in failures[:5]:
        print(f"[{workload}] op {i} failed: {'; '.join(errs)}", file=sys.stderr)


def run_workload(workload, seed, seconds, trace):
    """Returns (attempted, failed, metrics{name: (value, unit)}, notes)."""
    probes = [setup_probe(workload, seed)] if not trace else []
    import calibrate
    import generate
    import tracing
    import workloads
    t0 = time.perf_counter()
    tg, runner, items = workloads.setup(workload, seed)
    own_setup = time.perf_counter() - t0
    # one untimed op so lazy numpy set-up is not charged to the first op
    op_loop(tg, runner, items, count=1)
    notes = [f"inputs {len(items)} (fingerprint "
             f"{generate.fingerprint(generate.make_inputs(workload, seed))[:16]})"]
    if not trace:
        cal = calibrate.Calibration()
        cal.maybe_sample()

        # the remaining set-up probes are spread over the run, so a slow
        # spell of a shared machine moves one sample, not the median
        def between(elapsed):
            cal.maybe_sample()
            if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
                probes.append(setup_probe(workload, seed))

        started, raw, failures = op_loop(tg, runner, items, budget=seconds, between=between)
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
        _report_failures(workload, failures)
        lat = cal.scale(started, raw)
        setup = cal.scale(*zip(*probes))
        n = len(lat)
        pct, tail_s, beyond = tail(lat, TAIL_PCT[workload])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput_ops_s": (n / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        _, raw_tail, _ = tail(raw, TAIL_PCT[workload])
        notes.append(f"times scaled to a {calibrate.REFERENCE_MS} ms reference kernel "
                     f"(median {statistics.median(cal.took) * 1e3:.4f} ms over "
                     f"{len(cal.took)} samples); raw: throughput {n / sum(raw):.4f}/s, "
                     f"p50 {statistics.median(raw) * 1e3:.4f} ms, "
                     f"tail {raw_tail * 1e3:.4f} ms")
        notes.append(f"setup probes raw {', '.join(f'{p[1]:.4f}' for p in probes)} s; "
                     f"scaled {', '.join(f'{p:.4f}' for p in setup)} s; "
                     f"this process {own_setup:.4f} s")
        notes.append(f"ops {n}, timed {sum(raw):.3f} s; op_tail_ms is p{pct:.2f} "
                     f"with {beyond} of {n} samples beyond it")
        notes.append(f"fail_ratio {len(failures) / n:.6f} ({len(failures)} of {n})")
        return n, len(failures), metrics, notes

    # untraced, traced, untraced again on the same n ops: the two untraced
    # passes bracket the traced one, so a drift of the machine's speed
    # does not pass for tracing overhead
    _, lat0, fail0 = op_loop(tg, runner, items, budget=TRACE_UNTRACED_SHARE * seconds)
    n = len(lat0)
    tracer = tracing.Tracer()
    with tracing.Rebound(tracer, tracing.targets(tg)):
        tracer.op_id = -1
        runner.build(tg, generate.make_inputs(workload, seed))
        _, lat1, fail1 = op_loop(tg, runner, items, count=n, tracer=tracer)
    _, lat2, fail2 = op_loop(tg, runner, items, count=n)
    failures = fail0 + [(i + n, e) for i, e in fail1] + [(i + 2 * n, e) for i, e in fail2]
    _report_failures(workload, failures)
    threshold = tg.tg_analysis.SearchConfig().residual_threshold
    layer, bases = tracing.layer_metrics(tracer, n, threshold)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.save(path)
    thr0, thr1 = 2 * n / (sum(lat0) + sum(lat2)), n / sum(lat1)
    layer["trace.untraced_throughput_ops_s"] = thr0
    layer["trace.traced_throughput_ops_s"] = thr1
    layer["trace.overhead_ratio"] = thr1 / thr0
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    notes.append(f"traced {n} ops, {len(tracer)} spans -> {path.relative_to(ROOT)}")
    notes.append(f"tracing overhead: traced throughput {thr1:.3f}/s against "
                 f"untraced {thr0:.3f}/s on the same {n} ops (untraced passes "
                 f"before and after: {n / sum(lat0):.3f}/s, {n / sum(lat2):.3f}/s)")
    notes.extend(f"{k} base: {v:g}" for k, v in bases.items())
    notes.append("wait time: absent (one thread, no queue), not measured as 0 ms")
    notes.append(f"fail_ratio {len(failures) / (3 * n):.6f} "
                 f"({len(failures)} of {3 * n})")
    return 3 * n, len(failures), metrics, notes


def _unit(name):
    if name.endswith("throughput_ops_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "calls_per_rk4_step")):
        return "ratio"
    return "count"


def metric_names():
    """Per-layer names printed by --trace 1, in order."""
    _use_checkout()
    import tracing
    return tracing.metric_names() + ["trace.untraced_throughput_ops_s",
                                     "trace.traced_throughput_ops_s",
                                     "trace.overhead_ratio"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_checkout()
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads
        workloads.setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out = {}
    for w in names:
        n, f, metrics, notes = run_workload(w, args.seed, args.seconds, bool(args.trace))
        attempted += n
        failed += f
        print(f"== {w} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for note in notes:
            print(f"   {note}")
        for k, (v, unit) in metrics.items():
            print(f"   {k:48s} {v:14.6g} {unit}")
            key = k if len(names) == 1 else f"{w}.{k}"
            out[key] = {"value": v, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
