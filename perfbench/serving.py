"""Workloads ``serve_bulk`` and ``serve_interactive``: ``repro serve`` over HTTP.

``serve_bulk`` is a closed loop with one keep-alive client against
``repro serve --workers 1 --cache 8``: every request is the same packed
binary batch of 10k range counts, a third each from the small, medium and
large bands, over a release fitted from 200k ``gowallalike`` points.  The
flat traversal does most of the work, and the work per query changes with
the band.

``serve_interactive`` is an open loop: seeded Poisson arrivals over two
keep-alive connections against ``repro serve --workers 1 --cache 2``.  A
request is a JSON batch of 16 mixed range, point and marginal queries for
one of four releases (2-d and 4-d, different sizes), picked with fixed
skewed odds, so the two-slot cache misses now and then.  Traversal is
small; JSON decoding, answer dispatch, the HTTP path and cold artifact
loads carry the cost.  The offered rate climbs a ladder; the base rate
gives the latency figures and the highest rate that holds the latency
limit without a growing backlog is ``max_rate``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .common import EPSILON, Post, ServeProcess, Tally, derive_seed, peak_rss_mb, timing
from .loadgen import LoadResult, Request, closed_loop, open_loop, poisson_schedule

BANDS = ("small", "medium", "large")
BULK_POINTS = 200_000
BULK_QUERIES = 10_000

#: Releases of serve_interactive with the odds a request targets each.
INTERACTIVE_DATASETS = ("gowallalike", "roadlike", "nyclike", "beijinglike")
INTERACTIVE_WEIGHTS = (0.85, 0.08, 0.04, 0.03)
QUERIES_PER_REQUEST = 16
BATCHES_PER_RELEASE = 64
RATES = (10, 20, 40, 80, 160)
BASE_SHARE = 0.8  # of the run's seconds spent at the base rate; the rest splits over the ladder
LATENCY_LIMIT_MS = 100.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


def query_path(release_id: str) -> str:
    return f"/releases/{release_id}/query"


def bulk_workload(domain, seed: int):
    from repro.queries import Workload
    from repro.spatial import generate_workload

    rng = np.random.default_rng([seed, 23])
    sizes = (BULK_QUERIES - 2 * (BULK_QUERIES // 3), BULK_QUERIES // 3, BULK_QUERIES // 3)
    return Workload.ranges([box for band, k in zip(BANDS, sizes)
                            for box in generate_workload(domain, band, k, rng=rng)])


def mixed_batches(domain, seed: int, k: int, count: int):
    """``count`` JSON-ready batches of the bench's mixed range/point/marginal kind."""
    from repro.experiments.perf import build_mixed_workload
    from repro.spatial import generate_workload

    rng = np.random.default_rng([seed, 29, k])
    batches = []
    for j in range(count):
        boxes = generate_workload(domain, BANDS[j % 3], QUERIES_PER_REQUEST, rng=rng)
        batches.append(build_mixed_workload(domain, boxes, QUERIES_PER_REQUEST, rng))
    return batches


def json_body(workload) -> bytes:
    return json.dumps({"queries": [query.to_wire() for query in workload]}).encode("utf-8")


def binary_oracle(release, workload) -> bytes:
    """The binary answer bytes, computed in-process from the fitted release."""
    from repro.queries import encode_binary_answers

    offsets = np.arange(len(workload) + 1, dtype=np.uint32)
    return encode_binary_answers(np.asarray(release.answer(workload), dtype=np.float64), offsets)


def json_oracle(release, release_id: str, workload) -> bytes:
    """The JSON response bytes, computed in-process from the fitted release."""
    answers = workload.group_answers(release.answer(workload), release.query_domain)
    response = {"id": release_id, "method": release.method, "count": len(answers), "answers": answers}
    return json.dumps(response).encode("utf-8")


@dataclass
class Published:
    name: str
    data: object
    release: object
    release_id: str


@dataclass
class ServeContext:
    seed: int
    workdir: Path
    store_dir: Path
    published: list[Published]
    server: ServeProcess
    warm: list[tuple[Request, bytes]]  # warm-up request and the body it got
    pool: list[list[Request]] = field(default_factory=list)  # per release
    workloads: list[list] = field(default_factory=list)

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _publish(seed: int, store_dir: Path, datasets) -> list[Published]:
    from repro import from_spec
    from repro.serve import ReleaseStore

    store = ReleaseStore(store_dir)
    published = []
    for k, (name, data) in enumerate(datasets):
        release = from_spec("privtree", epsilon=EPSILON).fit(data, rng=derive_seed(seed, 101, k))
        release.flat()
        published.append(Published(name, data, release, store.put(release, dataset=name)))
    return published


def _start(root: Path, workdir: Path, store_dir: Path, cache: int, warm_requests) -> tuple:
    server = ServeProcess(root, store_dir, cache=cache, workdir=workdir)
    try:
        post = Post(server.port)
        try:
            warm = [(request, post(request.path, request.body, request.content_type)[1])
                    for request in warm_requests]
        finally:
            post.close()
    except BaseException:
        server.stop()
        raise
    return server, warm


def setup_bulk(root: Path, seed: int, workdir: Path) -> ServeContext:
    """Points, one fit, publish, bulk batch, server start, one warm-up batch."""
    from repro.datasets import gowallalike
    from repro.queries import BINARY_WIRE_CONTENT_TYPE, encode_binary_workload

    store_dir = workdir / "bulk-store"
    published = _publish(seed, store_dir, [("gowallalike", gowallalike(BULK_POINTS, rng=seed))])
    workload = bulk_workload(published[0].data.domain, seed)
    request = Request(query_path(published[0].release_id), encode_binary_workload(workload),
                      BINARY_WIRE_CONTENT_TYPE, b"")
    server, warm = _start(root, workdir, store_dir, 8, [request])
    return ServeContext(seed, workdir, store_dir, published, server, warm, [[request]], [[workload]])


def setup_interactive(root: Path, seed: int, workdir: Path) -> ServeContext:
    """Four datasets and fits, publish, request pool, server start, one request per release."""
    from repro import datasets

    store_dir = workdir / "interactive-store"
    published = _publish(seed, store_dir,
                         [(name, getattr(datasets, name)(rng=seed)) for name in INTERACTIVE_DATASETS])
    pool, workloads = [], []
    for k, entry in enumerate(published):
        batches = mixed_batches(entry.data.domain, seed, k, BATCHES_PER_RELEASE)
        workloads.append(batches)
        pool.append([Request(query_path(entry.release_id), json_body(wl), "application/json", b"")
                     for wl in batches])
    server, warm = _start(root, workdir, store_dir, 2, [requests[0] for requests in pool])
    return ServeContext(seed, workdir, store_dir, published, server, warm, pool, workloads)


def attach_oracle(ctx: ServeContext, tally: Tally) -> None:
    """Expected bytes for every request, then check the warm-up responses against them."""
    binary = ctx.pool[0][0].content_type != "application/json"
    for entry, requests, workloads in zip(ctx.published, ctx.pool, ctx.workloads):
        for request, workload in zip(requests, workloads):
            request.expected = (binary_oracle(entry.release, workload) if binary
                                else json_oracle(entry.release, entry.release_id, workload))
    for request, body in ctx.warm:  # warm-up requests are pool entries
        tally.record(body == request.expected, f"warm-up {request.path}: served body differs from in-process")


def measure_bulk(ctx: ServeContext, seconds: float, tally: Tally, span=None) -> LoadResult:
    return closed_loop(ctx.server.port, ctx.pool[0][0], seconds, tally, span=span)


def bulk_end_to_end(ctx: ServeContext, result: LoadResult) -> tuple[dict, dict]:
    lat = timing(result.latency_s, 1e3)
    n = lat["n"]
    qps = BULK_QUERIES * int(result.ok.sum()) / result.elapsed_s
    return {
        "p50_ms": (lat["p50"], "ms", n),
        "tail_ms": (lat["tail"], "ms", n),
        "rss_mb": (peak_rss_mb(ctx.server.pid), "MB", 1),
        "queries_per_s": (qps, "1/s", n),
    }, {"tail_ms_percentile": lat["tail_pct"]}


def interactive_schedule(ctx: ServeContext, rate: float, seconds: float, step: int):
    """Due times and requests of one offered rate.

    Each release gets its share of the requests by ``INTERACTIVE_WEIGHTS``
    (largest remainders), in seeded order, and cycles through its batches
    in a seeded permutation, so every seed offers the same mix.
    """
    rng = np.random.default_rng([ctx.seed, 31, step])
    due = poisson_schedule(rate, seconds, rng)
    share = np.asarray(INTERACTIVE_WEIGHTS) * len(due)
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[: len(due) - counts.sum()]] += 1
    targets = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    batches = np.empty(len(due), dtype=int)
    for t, count in enumerate(counts):
        batches[targets == t] = np.resize(rng.permutation(BATCHES_PER_RELEASE), count)
    return [ctx.pool[t][j] for t, j in zip(targets, batches)], due


def step_verdict(result: LoadResult) -> dict:
    """Latency at one offered rate, and whether the rate holds the limit."""
    lat = timing(result.latency_s, 1e3)
    holds = bool(result.ok.all()) and lat["tail"] <= LATENCY_LIMIT_MS and not result.backlog_growing()
    return {"latency": lat, "holds": holds}


def measure_interactive(ctx: ServeContext, seconds: float, tally: Tally,
                        span=None) -> list[tuple[float, LoadResult]]:
    """The base rate for ``BASE_SHARE`` of the time, then each higher rate
    until one fails the latency limit."""
    base_seconds = seconds * BASE_SHARE
    step_seconds = (seconds - base_seconds) / (len(RATES) - 1)
    steps = []
    for step, rate in enumerate(RATES):
        result = run_rate(ctx, rate, base_seconds if step == 0 else step_seconds, step, tally, span)
        steps.append((rate, result))
        if not step_verdict(result)["holds"]:
            break
    return steps


def run_rate(ctx: ServeContext, rate: float, seconds: float, step: int, tally: Tally,
             span=None) -> LoadResult:
    requests, due = interactive_schedule(ctx, rate, seconds, step)
    return open_loop(ctx.server.port, requests, due, CONNECTIONS, tally, span=span)


def measure_base_rate(ctx: ServeContext, seconds: float, tally: Tally, span=None) -> LoadResult:
    return run_rate(ctx, RATES[0], seconds, 0, tally, span)


def interactive_end_to_end(ctx: ServeContext, steps) -> tuple[dict, dict]:
    base = step_verdict(steps[0][1])["latency"]
    max_rate, ladder = 0.0, []
    for rate, result in steps:
        verdict = step_verdict(result)
        lat = verdict["latency"]
        ladder.append({"rate": rate, "p50_ms": lat["p50"], "tail_ms": lat["tail"],
                       "tail_pct": lat["tail_pct"], "n": lat["n"], "holds": verdict["holds"]})
        if verdict["holds"]:  # the ladder stops at the first rate that does not hold
            max_rate = float(rate)
    n = base["n"]
    return {
        "p50_ms": (base["p50"], "ms", n),
        "tail_ms": (base["tail"], "ms", n),
        "rss_mb": (peak_rss_mb(ctx.server.pid), "MB", 1),
        "max_rate": (max_rate, "1/s", len(steps)),
    }, {"tail_ms_percentile": base["tail_pct"], "ladder": ladder}
