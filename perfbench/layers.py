"""The traced run: per-layer metrics, each timed from outside the program.

Spans come only from this package: a ``repro.telemetry.Tracer`` of its
own, never installed with ``enable()`` so the program's span sites stay
off, records a span around each call into a layer's public functions;
the records stay in memory and are written as JSON lines and as a
Chrome trace when the run ends.
Each probed call runs alone in its span, so its duration is the layer's
self time; where a layer's share is what remains of one call after
separately timed calls (``api.assembly_s``, ``serve.store_put_self_s``,
``federated.wire_s``) it is computed by that subtraction, and can read
below zero when that share is smaller than the calls' run-to-run noise.

Every workload reports every layer metric, measured on that workload's
own inputs: its points feed the fit, publish and federated probes, its
releases and query batches feed the query probes, and its server (for
``fit``, a server started over the last store the loop published) gives
the HTTP-side figures.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from .common import EPSILON, Post, ServeProcess, Tally, cpu_seconds, derive_seed, median, tail
from .loadgen import LoadResult, Request

FIT_REPEATS = 3
QUERY_REPEATS = 5
FEDERATED_COUNTERS = {
    "federated.retries": "repro_federated_retries_total",
    "federated.timeouts": "repro_federated_timeouts_total",
    "federated.corrupt_frames": "repro_federated_corrupt_frames_total",
}


def export_trace(tracer, directory: Path, stem: str) -> None:
    """Write the spans as JSON lines and as a Chrome trace."""
    from repro.telemetry import to_chrome_trace

    directory.mkdir(parents=True, exist_ok=True)
    tracer.export_jsonl(directory / f"{stem}.jsonl")
    (directory / f"{stem}.chrome.json").write_text(json.dumps(to_chrome_trace(tracer.records)))


def federated_counts() -> dict[str, float]:
    from repro.telemetry import get_registry

    registry = get_registry()
    return {name: registry.get(metric).value for name, metric in FEDERATED_COUNTERS.items()}


def stat(values, scale: float = 1.0) -> tuple[float, int]:
    """(median × scale, sample count)."""
    return scale * median(values), len(values)


def timed(span, name: str, times: dict, call):
    """Run ``call`` inside a span named ``name``; append its seconds to ``times[name]``."""
    start = time.perf_counter()
    with span(name):
        result = call()
    times[name].append(time.perf_counter() - start)
    return result


def probe_fit(tracer, datasets, seed: int, workdir: Path) -> dict:
    """Fit and publish layers over the workload's datasets (summed per repeat)."""
    from repro import from_spec
    from repro.mechanisms import laplace_noise
    from repro.serve import ReleaseStore, write_artifact
    from repro.spatial import privtree_decomposition

    span = tracer.span
    reps = []
    for rep in range(FIT_REPEATS):
        times = defaultdict(list)
        counts = defaultdict(int)
        for k, data in enumerate(datasets):
            rng = derive_seed(seed, 211, k)
            structure = timed(span, "core.structure", times,
                              lambda: privtree_decomposition(data, EPSILON / 2, rng=rng))
            timed(span, "mechanisms.leaf_noise", times,
                  lambda: laplace_noise(2.0 / EPSILON, size=structure.leaf_count, rng=rng))
            release = timed(span, "api.fit", times,
                            lambda: from_spec("privtree", epsilon=EPSILON).fit(data, rng=rng))
            timed(span, "spatial.flat_compile", times, lambda: release.tree.flat())
            document = timed(span, "api.to_json", times, lambda: json.dumps(release.to_json()))
            path = workdir / f"probe-{rep}-{k}.bin"
            counts["serve.artifact_bytes"] += timed(span, "serve.artifact_write", times,
                                                    lambda: write_artifact(release, path))
            path.unlink()
            store = ReleaseStore(workdir / f"probe-store-{rep}-{k}")
            timed(span, "serve.store_put", times, lambda: store.put(release))
            counts["core.tree_nodes"] += structure.size
            counts["core.tree_leaves"] += structure.leaf_count
            counts["serve.json_bytes"] += len(document.encode("utf-8"))
        reps.append(({name: sum(v) for name, v in times.items()}, counts))

    def med(expression):
        return median([expression(t) for t, _ in reps]), len(reps)

    def count(name):
        return reps[0][1][name], 1

    return {
        "core.structure_s": med(lambda t: t["core.structure"]),
        "core.tree_nodes": count("core.tree_nodes"),
        "core.tree_leaves": count("core.tree_leaves"),
        "mechanisms.leaf_noise_s": med(lambda t: t["mechanisms.leaf_noise"]),
        "api.fit_s": med(lambda t: t["api.fit"]),
        "api.assembly_s": med(lambda t: t["api.fit"] - t["core.structure"] - t["mechanisms.leaf_noise"]),
        "spatial.flat_compile_s": med(lambda t: t["spatial.flat_compile"]),
        "api.to_json_s": med(lambda t: t["api.to_json"]),
        "serve.artifact_write_s": med(lambda t: t["serve.artifact_write"]),
        "serve.store_put_self_s": med(
            lambda t: t["serve.store_put"] - t["api.to_json"] - t["serve.artifact_write"]),
        "serve.json_bytes": count("serve.json_bytes"),
        "serve.artifact_bytes": count("serve.artifact_bytes"),
    }


def probe_federated(tracer, data, seed: int) -> dict:
    """In-process and TCP federated fits of the same data and seed."""
    from repro.federated import connect_collectors, federated_privtree_histogram, shard_dataset

    from .fit import Collectors

    span = tracer.span
    shards = shard_dataset(data, 2)
    collectors = Collectors(shards)
    times = defaultdict(list)
    try:
        for rep in range(FIT_REPEATS):
            rng = derive_seed(seed, 223, rep)
            timed(span, "federated.inproc_fit", times,
                  lambda: federated_privtree_histogram(shards, epsilon=EPSILON, rng=rng))
            timed(span, "federated.tcp_fit", times, lambda: collectors.fit(
                f"probe-{seed}-{rep}", rng, None,
                connect=lambda *a, **kw: timed(span, "federated.connect", times,
                                               lambda: connect_collectors(*a, **kw))))
    finally:
        collectors.close()
    wire = [tcp - conn - inproc for tcp, conn, inproc in zip(
        times["federated.tcp_fit"], times["federated.connect"], times["federated.inproc_fit"])]
    return {
        "federated.inproc_fit_s": stat(times["federated.inproc_fit"]),
        "federated.connect_s": stat(times["federated.connect"]),
        "federated.wire_s": stat(wire),
    }


def probe_binary(tracer, store_dir: Path, release_id: str, payload: bytes) -> dict:
    """The packed-binary serve path, layer by layer, on a release read from the store."""
    from repro.queries import decode_binary_workload, encode_binary_answers
    from repro.serve import ReleaseStore, SynopsisService

    span = tracer.span
    service = SynopsisService(ReleaseStore(store_dir, create=False), cache_size=8)
    release = service.release(release_id)
    domain = release.query_domain
    times = defaultdict(list)
    for _ in range(QUERY_REPEATS):
        batch = timed(span, "queries.binary_decode", times, lambda: decode_binary_workload(payload))
        timed(span, "queries.validate", times, lambda: batch.validate(domain))
        values = timed(span, "spatial.traverse", times,
                       lambda: release.range_count_arrays(batch.q_lows, batch.q_highs))
        offsets = np.arange(len(batch) + 1, dtype=np.uint32)
        timed(span, "queries.binary_encode", times,
              lambda: encode_binary_answers(np.asarray(values, dtype=np.float64), offsets))
        timed(span, "serve.service_binary", times,
              lambda: service.answer_batch_binary(release_id, payload))
    traverse = times["spatial.traverse"]
    return {
        "queries.binary_decode_ms": stat(times["queries.binary_decode"], 1e3),
        "queries.validate_ms": stat(times["queries.validate"], 1e3),
        "spatial.traverse_ms": stat(traverse, 1e3),
        "spatial.traverse_ns_per_query": stat(traverse, 1e9 / len(batch)),
        "queries.binary_encode_ms": stat(times["queries.binary_encode"], 1e3),
        "service_binary_ms": stat(times["serve.service_binary"], 1e3),
    }


def probe_json(tracer, store_dir: Path, published, batches) -> dict:
    """The JSON serve path and the store's read path, on releases read from the store."""
    from repro.queries import decode_query_batch
    from repro.serve import ReleaseStore, SynopsisService, read_artifact

    span = tracer.span
    store = ReleaseStore(store_dir, create=False)
    service = SynopsisService(store, cache_size=len(published))
    times = defaultdict(list)
    for entry, workloads in zip(published, batches):
        release = service.release(entry.release_id)
        domain = release.query_domain
        for workload in workloads:
            raw = json.loads(json.dumps([query.to_wire() for query in workload]))
            decoded = timed(span, "queries.json_decode", times,
                            lambda: decode_query_batch(raw, spatial=True))
            flat = timed(span, "api.answer", times, lambda: release.answer(decoded))
            timed(span, "queries.group", times, lambda: decoded.group_answers(flat, domain))
            timed(span, "serve.service_json", times,
                  lambda: service.answer_batch(entry.release_id, raw))
        binary_path = store.root / store.manifest_entry(entry.release_id)["binary_path"]
        for _ in range(QUERY_REPEATS):
            timed(span, "serve.cold_load", times, lambda: store.get(entry.release_id).warm())
            timed(span, "serve.artifact_read", times, lambda: read_artifact(binary_path))
    return {
        "queries.json_decode_ms": stat(times["queries.json_decode"], 1e3),
        "api.answer_ms": stat(times["api.answer"], 1e3),
        "queries.group_ms": stat(times["queries.group"], 1e3),
        "service_json_ms": stat(times["serve.service_json"], 1e3),
        "serve.cold_load_ms": stat(times["serve.cold_load"], 1e3),
        "serve.artifact_read_ms": stat(times["serve.artifact_read"], 1e3),
    }


def server_state(server: ServeProcess) -> dict:
    """The server's cache counters, its own batch-time totals and its CPU seconds."""
    post = Post(server.port)
    try:
        stats = json.loads(post.get("/statz")[1])
        metrics = post.get("/metrics")[1].decode()
    finally:
        post.close()
    for line in metrics.splitlines():
        name, _, value = line.partition(" ")
        if name in ("repro_serve_request_latency_seconds_sum", "repro_serve_request_latency_seconds_count"):
            stats[name.rsplit("_", 1)[1]] = float(value)
    stats["cpu"] = cpu_seconds(server.pid)
    return stats


class ServedSegment:
    """Server-side figures over one traced load segment."""

    def __init__(self, server: ServeProcess) -> None:
        self.server = server
        self.before = server_state(server)

    def finish(self, result: LoadResult, service: tuple[float, int]) -> dict:
        """Layer metrics of the segment; ``service`` is the in-process service time (ms, n).

        The HTTP overhead is the mean round trip (send to answer, queueing
        excluded) minus the mean time the server itself spent per batch."""
        after = server_state(self.server)
        delta = {key: after[key] - self.before[key]
                 for key in ("hits", "misses", "sum", "count", "cpu")}
        n = len(result.due)
        round_trip = float(np.mean(result.done - result.sent))
        server_batch = delta["sum"] / max(1.0, delta["count"])
        lookups = delta["hits"] + delta["misses"]
        late = result.late_s
        return {
            "serve.service_ms": service,
            "serve.http_overhead_ms": (1e3 * (round_trip - server_batch), n),
            "serve.server_cpu_ms_per_batch": (1e3 * delta["cpu"] / max(1, n), n),
            "serve.cache_hit_ratio": (delta["hits"] / max(1, lookups), lookups),
            "loadgen.late_ms": (1e3 * tail(late)[0] if len(late) else 0.0, len(late)),
            "loadgen.max_backlog": (result.max_backlog, n),
        }


def serve_probe(root: Path, workdir: Path, store_dir: Path, request: Request, seconds: float,
                tracer, tally: Tally, service: tuple[float, int]) -> dict:
    """A short traced closed loop against a server started over ``store_dir``."""
    from .loadgen import closed_loop

    with ServeProcess(root, store_dir, cache=8, workdir=workdir) as server:
        segment = ServedSegment(server)
        result = closed_loop(server.port, request, seconds, tally, span=tracer.span)
        return segment.finish(result, service)
