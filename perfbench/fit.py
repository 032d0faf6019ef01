"""Workload ``fit``: points to a compiled, published and federated release, in a closed loop.

One caller repeats an iteration over the same 200k ``gowallalike`` points
at epsilon 1, with a fresh rng seed each time:

1. ``from_spec("privtree").fit`` and ``release.flat()`` (``fit_s``);
2. ``ReleaseStore.put`` into a fresh store (``publish_s``);
3. the same data and seed through ``FederatedPrivTree`` over TCP against
   two in-process ``CollectorServer`` s, connect included (``fed_fit_s``).

Nearly all the work sits in core, spatial, mechanisms, api, the store's
write path and federated; no query is traversed and no HTTP is spoken.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from .common import (EPSILON, HOST, Tally, bits_equal, derive_seed, ledger_exact, median,
                     peak_rss_mb, timing)
from .serving import mixed_batches

N_POINTS = 200_000
N_SHARDS = 2
VERIFY_BATCHES = 8  # mixed query batches every release read back from its store answers


class Collectors:
    """Two in-process TCP collector servers; each fit gets fresh endpoints."""

    def __init__(self, shards) -> None:
        from repro.federated import CollectorEndpoint, CollectorServer, ShardCollector

        self.shards = shards
        self.servers = []
        try:
            for i, shard in enumerate(shards):
                server = CollectorServer(
                    (HOST, 0), CollectorEndpoint(ShardCollector(i, len(shards), shard))
                )
                server.serve_in_thread()
                self.servers.append(server)
        except BaseException:
            self.close()
            raise

    def fit(self, session: str, rng: int, accountant, connect=None):
        """A whole TCP federated fit: new collector sessions, connect, fit, finish."""
        from repro.federated import (
            CollectorEndpoint,
            FederatedPrivTree,
            ShardCollector,
            connect_collectors,
        )

        for i, server in enumerate(self.servers):
            server.endpoint = CollectorEndpoint(ShardCollector(i, len(self.shards), self.shards[i]))
        connect = connect or connect_collectors
        clients = connect([(HOST, s.port) for s in self.servers], session=session)
        tree = FederatedPrivTree(clients).fit_histogram(EPSILON, rng=rng, accountant=accountant)
        for client in clients:
            client.finish()
        return tree

    def close(self) -> None:
        for server in self.servers:
            server.shutdown()
            server.server_close()
        self.servers = []


@dataclass
class FitContext:
    seed: int
    workdir: Path
    data: object
    collectors: Collectors
    verify: list
    stages: dict = field(default_factory=lambda: {"fit": [], "publish": [], "fed_fit": [], "total": []})
    last_store: Path | None = None
    last_release: object = None

    def close(self) -> None:
        self.collectors.close()


def setup(root: Path, seed: int, workdir: Path) -> FitContext:
    """Input generation, collector servers, and one warm-up fit."""
    from repro import from_spec
    from repro.datasets import gowallalike
    from repro.federated import shard_dataset

    data = gowallalike(N_POINTS, rng=seed)
    collectors = Collectors(shard_dataset(data, N_SHARDS))
    try:
        from_spec("privtree", epsilon=EPSILON).fit(data, rng=seed).flat()
        verify = mixed_batches(data.domain, seed, 0, VERIFY_BATCHES)
    except BaseException:
        collectors.close()
        raise
    return FitContext(seed, workdir, data, collectors, verify)


def iteration(ctx: FitContext, i: int, tally: Tally, span) -> None:
    from repro import PrivacyAccountant, from_spec
    from repro.serve import ReleaseStore
    from repro.spatial.serialize import tree_to_dict

    rng = derive_seed(ctx.seed, 1, i)
    store_dir = ctx.workdir / f"fit-store-{i}"
    acct, fed_acct = PrivacyAccountant(EPSILON), PrivacyAccountant(EPSILON)
    gc.collect()  # every iteration starts from the same heap, not the last one's garbage
    with span("e2e.iteration"):
        t0 = time.perf_counter()
        with span("e2e.fit"):
            release = from_spec("privtree", epsilon=EPSILON).fit(ctx.data, accountant=acct, rng=rng)
            release.flat()
        t1 = time.perf_counter()
        with span("e2e.publish"):
            store = ReleaseStore(store_dir)
            release_id = store.put(release, dataset="gowallalike")
        t2 = time.perf_counter()
        with span("e2e.fed_fit"):
            fed_tree = ctx.collectors.fit(f"bench-{ctx.seed}-{i}", rng, fed_acct)
        t3 = time.perf_counter()
    for name, value in (("fit", t1 - t0), ("publish", t2 - t1), ("fed_fit", t3 - t2), ("total", t3 - t0)):
        ctx.stages[name].append(value)

    back = store.get(release_id)
    back.warm()
    tally.record(tree_to_dict(fed_tree) == tree_to_dict(release.tree),
                 f"iteration {i}: TCP federated release differs from the centralized one")
    tally.record(all(bits_equal(back.answer(wl), release.answer(wl)) for wl in ctx.verify),
                 f"iteration {i}: release read back from the store answers differently")
    tally.record(ledger_exact(acct, EPSILON) and ledger_exact(fed_acct, EPSILON),
                 f"iteration {i}: a fit's ledger does not sum to exactly epsilon")
    if ctx.last_store is not None:
        shutil.rmtree(ctx.last_store, ignore_errors=True)
    ctx.last_store, ctx.last_release = store_dir, (release, release_id)


def measure(ctx: FitContext, seconds: float, tally: Tally, span) -> None:
    """Run iterations for ``seconds``."""
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        iteration(ctx, i, tally, span)
        i += 1


def end_to_end(ctx: FitContext) -> tuple[dict, dict]:
    """Metrics as ``{name: (value, unit, samples)}``, and context for the record."""
    total = timing(ctx.stages["total"], 1e3)
    n = total["n"]
    return {
        "p50_ms": (total["p50"], "ms", n),
        "tail_ms": (total["tail"], "ms", n),
        "rss_mb": (peak_rss_mb(), "MB", 1),
        "fit_s": (median(ctx.stages["fit"]), "s", n),
        "publish_s": (median(ctx.stages["publish"]), "s", n),
        "fed_fit_s": (median(ctx.stages["fed_fit"]), "s", n),
    }, {"tail_ms_percentile": total["tail_pct"]}
