"""Run one workload of the end-to-end benchmark, or all of them.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The system is driven only through its public API, the ``repro serve``
command line and HTTP; the package is imported from ``src/`` of the
working directory.  Each metric is printed by name with its unit and
sample count, then a context line (seed, machine, versions, the
percentile ``tail_ms`` stands for), and last one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones of a
separate traced run (see ``layers.py``), whose spans are written under
``.perfbench/traces/``.  Any failed correctness check makes the exit
code 1.

``BENCHMARK.json`` declares ``fit`` and ``serve_bulk`` only.
``serve_interactive`` runs by name (and under ``all``) but is not
declared: its ~6 ms median mostly measures how fast the host wakes idle
CPUs, which moved it by a third between two sets of runs of the same
code on a shared 2-CPU VM, while both declared workloads held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

WORKLOADS = ("fit", "serve_bulk", "serve_interactive")
HASH_SEED = "0"


def no_span(name: str, **attrs):
    return nullcontext()


def run_end_to_end(name: str, root: Path, seed: int, seconds: float, workdir: Path, tally):
    """Set up ``SETUP_REPEATS`` times (keeping the last), then measure with tracing off."""
    from perfbench import fit, serving
    from perfbench.common import SETUP_REPEATS, median

    setup = {"fit": fit.setup, "serve_bulk": serving.setup_bulk,
             "serve_interactive": serving.setup_interactive}[name]
    setup_times, ctx = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                ctx.close()
                ctx = None
            gc.collect()
            start = time.perf_counter()
            ctx = setup(root, seed, workdir)
            setup_times.append(time.perf_counter() - start)
        if name == "fit":
            fit.measure(ctx, seconds, tally, no_span)
            metrics, context = fit.end_to_end(ctx)
        elif name == "serve_bulk":
            serving.attach_oracle(ctx, tally)
            metrics, context = serving.bulk_end_to_end(ctx, serving.measure_bulk(ctx, seconds, tally))
        else:
            serving.attach_oracle(ctx, tally)
            steps = serving.measure_interactive(ctx, seconds, tally)
            metrics, context = serving.interactive_end_to_end(ctx, steps)
    finally:
        if ctx is not None:
            ctx.close()
    metrics["setup_s"] = (median(setup_times), "s", len(setup_times))
    metrics["error_rate"] = (tally.error_rate, "ratio", tally.attempted)
    return metrics, context


def run_traced(name: str, root: Path, seed: int, seconds: float, workdir: Path, tally,
               units: dict[str, str]):
    """The workload's loop untraced and traced (for the tracing overhead), then the layer probes."""
    from perfbench import fit, layers, serving
    from perfbench.common import median
    from perfbench.loadgen import Request
    from repro.queries import BINARY_WIRE_CONTENT_TYPE, encode_binary_workload
    from repro.telemetry import Tracer

    trace = Tracer()
    counters0 = layers.federated_counts()
    half = seconds / 2
    ctx = None
    try:
        if name == "fit":
            # Few, long iterations: alternate untraced and traced ones so drift cancels.
            ctx = fit.setup(root, seed, workdir)
            deadline, i = time.perf_counter() + seconds, 0
            while time.perf_counter() < deadline or i < 2:
                fit.iteration(ctx, i, tally, trace.span if i % 2 else no_span)
                i += 1
            untraced = median(ctx.stages["total"][0::2])
            traced = median(ctx.stages["total"][1::2])
            overhead_n = i
            release, release_id = ctx.last_release
            published = [serving.Published("gowallalike", ctx.data, release, release_id)]
            store_dir = ctx.last_store
        else:
            if name == "serve_bulk":
                ctx = serving.setup_bulk(root, seed, workdir)
                measure = serving.measure_bulk
            else:
                ctx = serving.setup_interactive(root, seed, workdir)
                measure = serving.measure_base_rate
            serving.attach_oracle(ctx, tally)
            result = measure(ctx, half, tally)
            untraced = median(result.latency_s)
            overhead_n = len(result.due)
            segment = layers.ServedSegment(ctx.server)
            result = measure(ctx, half, tally, span=trace.span)
            traced = median(result.latency_s)
            overhead_n += len(result.due)
            published, store_dir = ctx.published, ctx.store_dir

        first = published[0]
        bulk = serving.bulk_workload(first.data.domain, seed)
        payload = encode_binary_workload(bulk)
        if name == "fit":
            batches = [ctx.verify]
        elif name == "serve_bulk":
            batches = [serving.mixed_batches(first.data.domain, seed, 0, fit.VERIFY_BATCHES)]
        else:
            batches = ctx.workloads
        metrics = {}
        metrics.update(layers.probe_fit(trace, [p.data for p in published], seed, workdir))
        metrics.update(layers.probe_federated(trace, first.data, seed))
        metrics.update(layers.probe_binary(trace, store_dir, first.release_id, payload))
        metrics.update(layers.probe_json(trace, store_dir, published, batches))
        service = metrics.pop("service_json_ms" if name == "serve_interactive" else "service_binary_ms")
        metrics.pop("service_binary_ms", None)
        metrics.pop("service_json_ms", None)
        if name == "fit":
            request = Request(serving.query_path(first.release_id), payload,
                              BINARY_WIRE_CONTENT_TYPE, serving.binary_oracle(first.release, bulk))
            metrics.update(layers.serve_probe(root, workdir, store_dir, request, half / 2,
                                              trace, tally, service))
        else:
            metrics.update(segment.finish(result, service))
    finally:
        if ctx is not None:
            ctx.close()
    counters1 = layers.federated_counts()
    metrics.update({key: (counters1[key] - counters0[key], 1) for key in counters0})
    metrics["trace.overhead_ms"] = (1e3 * (traced - untraced), overhead_n)
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), overhead_n)
    layers.export_trace(trace, workdir.parent / "traces", f"{name}-seed{seed}")
    return {key: (metrics[key][0], unit, metrics[key][1]) for key, unit in units.items()}, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.dont_write_bytecode = True
    import numpy
    import repro

    if root / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    from perfbench.common import Tally

    # The metric names and units are the ones BENCHMARK.json declares.
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    base = root / ".perfbench"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = base / "work"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        tempfile.tempdir = str(workdir)
        tally = Tally()
        try:
            if args.trace:
                metrics, context = run_traced(name, root, args.seed, args.seconds, workdir, tally, units)
            else:
                metrics, context = run_end_to_end(name, root, args.seed, args.seconds, workdir, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for metric, (value, unit, n) in metrics.items():
            print(f"{name:18s} {metric:32s} {value:14.6g} {unit:6s} n={n}")
        context.update({
            "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "samples": {m: n for m, (_, _, n) in metrics.items()},
        })
        print("context " + json.dumps(context, sort_keys=True))
        for problem in tally.problems:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        summary["correct"] &= tally.failed == 0
        summary["attempted"] += tally.attempted
        summary["failed"] += tally.failed
        for metric in units:
            value, unit, _ = metrics[metric]
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # String hashing is salted per process unless PYTHONHASHSEED is set, and
    # the salt alone moves the server's JSON and dispatch times by up to ~15%
    # between otherwise identical runs.  Re-run under a fixed salt, which the
    # ``repro serve`` subprocess inherits.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
