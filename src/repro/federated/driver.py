"""The coordinator: PrivTree's level engine driven by aggregated shard counts.

A spatial PrivTree fit only ever consumes *per-node counts* — the split
geometry, the eligibility test, and the child ordering are pure functions
of the domain.  That is the whole trick of the federated fit: the
coordinator runs the same array-native level engine as the centralized fit
(:mod:`repro.spatial.engine`), with a count source that answers each
level's counts with one round of
:class:`~repro.federated.aggregator.SecureAggregator` over blinded shard
shares instead of from an in-memory point set.  The engine draws **one
Laplace batch per level** (plus one final leaf-count batch) from the
coordinator's RNG — the same stream positions, in the same order, as the
centralized fit.

Because (a) the aggregated counts are *exact* (blinding is lossless), (b)
eligibility and child order depend only on boxes, and (c) both fits run
one engine on one RNG stream, the federated release is **bit-identical**
to :func:`repro.spatial.quadtree._privtree_histogram` run on the
concatenation of the shards, for the same seed and parameters.  The count
source also carries the protocol around each level: heartbeats, the
``apply_splits`` broadcast, the fault injector's crash tick and the
checkpoint commit.  Resume replays a checkpoint's committed split
decisions through the engine before the next round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.privtree import DEFAULT_MAX_DEPTH
from ..domains.box import Box
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, SeedLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from ..spatial.engine import LevelTree, check_fit_options, fit_privtree
from ..spatial.histogram_tree import HistogramTree
from ..telemetry import get_registry, span as _span
from .aggregator import SecureAggregator
from .checkpoint import FitCheckpoint, restore_rng, rng_state
from .collector import ROOT_NODE_ID, ShardCollector, child_node_id
from .errors import CheckpointError
from .faults import FaultInjector

__all__ = [
    "FederatedPrivTree",
    "federated_privtree_histogram",
    "replay_splits",
    "shard_dataset",
]

# Always-on beat counter; /metrics- and test-visible without a tracer.
_HEARTBEATS = get_registry().counter(
    "repro_federated_heartbeats_total",
    help="Heartbeat probes the coordinator sent to collectors",
)


def shard_dataset(dataset: SpatialDataset, n_shards: int) -> list[SpatialDataset]:
    """Partition ``dataset`` into ``n_shards`` round-robin shards.

    Every shard keeps the **global** domain (the decomposition geometry must
    be common), only the points are split.  Aggregated counts are invariant
    to which shard holds which point, so any partition yields the same
    federated release; round-robin is merely a deterministic, balanced
    default.
    """
    if n_shards < 2:
        raise ValueError(f"n_shards must be at least 2, got {n_shards}")
    return [
        SpatialDataset(
            points=dataset.points[i::n_shards],
            domain=dataset.domain,
            name=f"{dataset.name}[shard {i}/{n_shards}]",
        )
        for i in range(n_shards)
    ]


class FederatedPrivTree:
    """Coordinator for a sharded PrivTree fit.

    Parameters
    ----------
    collectors:
        The shard workers (≥ 2), all over the same global domain with the
        same ``dims_per_split`` and the same blinding seed.
    aggregator:
        The share summer; a fresh :class:`SecureAggregator` by default.
    """

    def __init__(
        self,
        collectors: Sequence[ShardCollector],
        aggregator: SecureAggregator | None = None,
    ) -> None:
        collectors = list(collectors)
        if len(collectors) < 2:
            raise ValueError(
                f"a federated fit needs at least 2 collectors, got {len(collectors)}"
            )
        first = collectors[0]
        for collector in collectors[1:]:
            if collector.domain != first.domain:
                raise ValueError("collectors disagree on the global domain")
            if collector.dims_per_split != first.dims_per_split:
                raise ValueError("collectors disagree on dims_per_split")
        self.collectors = collectors
        self.heartbeat_interval: float | None = None
        self._last_heartbeat = float("-inf")
        self.aggregator = aggregator or SecureAggregator(len(collectors))
        if self.aggregator.n_shards != len(collectors):
            raise ValueError(
                f"aggregator expects {self.aggregator.n_shards} shards but "
                f"{len(collectors)} collectors are attached"
            )

    @property
    def domain(self) -> Box:
        """The global domain Ω of the decomposition."""
        return self.collectors[0].domain

    @property
    def dims_per_split(self) -> int:
        return self.collectors[0].dims_per_split

    @property
    def fanout(self) -> int:
        return 2 ** self.dims_per_split

    def _maybe_heartbeat(self) -> None:
        """Probe collector liveness between rounds.

        Synchronous by design: a beat goes through the same retry engine
        and per-round deadline as any other request, so a stalled
        collector surfaces as the usual ``CollectorTimeoutError`` instead
        of hanging the next aggregation round.  In-process collectors
        have no transport and are skipped.
        """
        interval = self.heartbeat_interval
        if interval is None or interval < 0:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < interval:
            return
        self._last_heartbeat = now
        for i, collector in enumerate(self.collectors):
            beat = getattr(collector, "heartbeat", None)
            if beat is None:
                continue
            with _span(
                "federated.heartbeat",
                shard_id=getattr(collector, "shard_id", i),
            ):
                beat()
            _HEARTBEATS.inc()

    def fit_histogram(
        self,
        epsilon: float,
        *,
        theta: float = 0.0,
        tree_fraction: float = 0.5,
        tuples_per_individual: int = 1,
        count_mechanism: str = "laplace",
        rng: RngLike = None,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        accountant: PrivacyAccountant | None = None,
        label_prefix: str = "privtree",
        checkpoint: FitCheckpoint | None = None,
        resume: bool = False,
        fault_injector: FaultInjector | None = None,
        heartbeat_interval: float | None = None,
    ) -> HistogramTree:
        """The full §3.3–§3.4 pipeline over aggregated shard counts.

        Parameters mirror :func:`~repro.spatial.quadtree._privtree_histogram`
        exactly (``label_prefix`` additionally namespaces the ledger entries,
        e.g. per epoch); the returned tree is bit-identical to running that
        function on the concatenated shard data with the same ``rng``.

        Robustness extensions:

        checkpoint:
            A :class:`~repro.federated.checkpoint.FitCheckpoint`.  When
            given, the coordinator serializes its replay state (pending
            frontier, committed splits, noise-stream position, accountant
            ledger, round log) after every committed round, atomically.
        resume:
            Continue an interrupted fit from ``checkpoint`` instead of
            starting over.  The accountant ledger is *restored*, never
            re-spent, and the noise stream continues from its saved
            position, so the resumed release is bit-identical to an
            uninterrupted fit.  ``rng`` is ignored on resume (the stream
            position comes from the checkpoint) and the passed-in (or
            fresh) ``accountant`` must be unspent.  Remote collectors are
            re-synced to the checkpoint's next round id; fresh in-process
            collectors must first be rebuilt via :func:`replay_splits`.
        fault_injector:
            Hook for the deterministic chaos harness: its
            ``coordinator_tick`` runs after each round's aggregation and
            *before* the commit — the widest crash window — so tests can
            simulate ``kill -9`` at any chosen round.
        heartbeat_interval:
            Seconds between liveness probes to transport-backed collectors
            (``0`` probes before every round; ``None`` disables).  Beats
            ride the normal retry engine, so a stalled collector trips the
            per-round deadline as a ``CollectorTimeoutError`` rather than
            stalling mid-aggregation.  Probes never touch the RNG stream,
            so the release stays bit-identical with or without them.
        """
        check_fit_options(tree_fraction, tuples_per_individual, count_mechanism)
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = float("-inf")
        config = {
            "epsilon": epsilon,
            "theta": theta,
            "tree_fraction": tree_fraction,
            "tuples_per_individual": tuples_per_individual,
            "count_mechanism": count_mechanism,
            "max_depth": max_depth,
            "dims_per_split": self.dims_per_split,
            "domain": {"low": list(self.domain.low), "high": list(self.domain.high)},
            "label_prefix": label_prefix,
            "n_collectors": len(self.collectors),
        }
        if accountant is None:
            accountant = PrivacyAccountant(epsilon)
        tree = LevelTree(self.domain, self.dims_per_split)

        if resume:
            if checkpoint is None:
                raise CheckpointError("resume=True requires a checkpoint")
            state = checkpoint.load()
            if state["config"] != config:
                raise CheckpointError(
                    "checkpoint was written by a fit with different "
                    f"parameters: {state['config']} vs {config}"
                )
            if state["phase"] == "done":
                raise CheckpointError(
                    f"{checkpoint.path} records a completed fit; nothing to resume"
                )
            rounds = _RoundCounts(
                self, restore_rng(state["rng"]), accountant, config, checkpoint,
                fault_injector, int(state["next_round"]), list(state["round_log"]),
            )
            rounds.replay(tree, [[str(i) for i in r] for r in state["split_rounds"]])
            if [str(i) for i in state["level_ids"]] != rounds.frontier_ids:
                raise CheckpointError(
                    "checkpoint frontier disagrees with its replayed split log"
                )
            accountant.restore(
                [(str(label), float(eps)) for label, eps in state["ledger"]]
            )
            for collector in self.collectors:
                sync = getattr(collector, "sync_round", None)
                if sync is not None:
                    sync(rounds.next_round)
            return rounds.fit(tree)

        rounds = _RoundCounts(
            self, ensure_rng(rng), accountant, config, checkpoint, fault_injector
        )
        # The whole fit is one budget transaction: if any round aborts
        # (collector timeout, crash injection, exhaustion mid-fit), the
        # in-memory ledger rolls back — an aborted fit releases nothing and
        # must spend nothing.  The *checkpoint* ledger persists for resume:
        # a crashed-and-resumed fit restores its spends instead of
        # re-spending them.
        with accountant.transaction():
            accountant.spend(tree_fraction * epsilon, f"{label_prefix}/tree structure")
            accountant.spend(
                (1.0 - tree_fraction) * epsilon, f"{label_prefix}/leaf counts"
            )
            rounds.commit("grow")
            return rounds.fit(tree)


@dataclass
class _RoundCounts:
    """The level engine's count source over secure aggregation.

    Each level is one committed round pair: ``counts`` over the eligible
    frontier nodes, then ``splits`` broadcasting the decision to every
    collector, after which the replay state is checkpointed; the leaves get
    one last ``counts`` round.  Nodes are named by their split path
    (``v1.0.2…``, see :func:`~repro.federated.collector.child_node_id`).
    """

    driver: FederatedPrivTree
    gen: np.random.Generator
    accountant: PrivacyAccountant
    config: dict
    checkpoint: FitCheckpoint | None
    fault_injector: FaultInjector | None
    next_round: int = 0
    round_log: list[dict] = field(default_factory=list)
    split_rounds: list[list[str]] = field(default_factory=list)
    frontier_ids: list[str] = field(default_factory=lambda: [ROOT_NODE_ID])
    ids: list[str] = field(default_factory=lambda: [ROOT_NODE_ID])  # BFS order
    n_eligible: int = 0

    def fit(self, tree: LevelTree) -> HistogramTree:
        """Run the level engine over aggregated counts; commit the finished fit."""
        options = ("epsilon", "tree_fraction", "theta", "tuples_per_individual",
                   "count_mechanism", "max_depth")
        flat = fit_privtree(
            tree, self, self.gen, **{key: self.config[key] for key in options}
        )
        self.commit("done")
        return flat.to_tree()

    def _on_collectors(self, op: str, round_index: int, call) -> list:
        """``call(collector)`` on every collector, one span each."""
        results = []
        for i, collector in enumerate(self.driver.collectors):
            shard_id = getattr(collector, "shard_id", i)
            with _span(
                "federated.collector", shard_id=shard_id, round=round_index, op=op
            ):
                results.append(call(collector))
        return results

    def _round(self, node_ids: list[str]) -> np.ndarray:
        """One counts round: exact global counts for ``node_ids``."""
        round_index = self.next_round
        self.driver._maybe_heartbeat()
        with _span(
            "federated.round", round=round_index, kind="counts", n_nodes=len(node_ids)
        ):
            shares = self._on_collectors(
                "blinded_counts", round_index, lambda c: c.blinded_counts(node_ids)
            )
            counts = self.driver.aggregator.aggregate(
                shares, node_ids=node_ids, round_index=round_index
            )
        if self.fault_injector is not None:
            # After aggregation, before the commit: the widest crash window.
            self.fault_injector.coordinator_tick(round_index)
        return counts

    def counts(self, eligible: np.ndarray) -> np.ndarray:
        self.n_eligible = len(eligible)
        return self._round([self.frontier_ids[i] for i in eligible])

    def split(self, parents: np.ndarray, dims, mids) -> None:
        split_ids = self._advance(parents)
        round_index = self.next_round + 1
        with _span(
            "federated.round", round=round_index, kind="splits", n_nodes=len(split_ids)
        ):
            self._on_collectors(
                "apply_splits", round_index, lambda c: c.apply_splits(split_ids)
            )
        self.round_log += [
            {"round": self.next_round, "kind": "counts", "n_nodes": self.n_eligible},
            {"round": round_index, "kind": "splits", "n_nodes": len(split_ids)},
        ]
        self.next_round += 2
        self.commit("grow")

    def leaf_counts(self, leaves: np.ndarray) -> np.ndarray:
        exact = self._round([self.ids[i] for i in leaves])
        self.round_log.append(
            {"round": self.next_round, "kind": "counts", "n_nodes": len(leaves)}
        )
        self.next_round += 1
        return exact

    def _advance(self, parents) -> list[str]:
        """Name the children of frontier nodes ``parents``; return the parents' ids."""
        split_ids = [self.frontier_ids[i] for i in parents]
        self.frontier_ids = [
            child_node_id(node_id, j)
            for node_id in split_ids
            for j in range(self.driver.fanout)
        ]
        self.ids.extend(self.frontier_ids)
        self.split_rounds.append(split_ids)
        return split_ids

    def replay(self, tree: LevelTree, split_rounds: list[list[str]]) -> None:
        """Regrow ``tree`` from a checkpoint's committed split decisions.

        Splitting is pure geometry, so the per-level split lists rebuild
        every box and id exactly; an id that is not on the frontier of its
        level is a corrupt checkpoint.
        """
        for round_ids in split_rounds:
            position = {node_id: i for i, node_id in enumerate(self.frontier_ids)}
            try:
                parents = sorted({position[node_id] for node_id in round_ids})
            except KeyError as exc:
                raise CheckpointError(
                    f"checkpoint split log references unknown node {exc.args[0]!r}"
                ) from None
            parents = np.array(parents, dtype=np.intp)
            tree.split(parents)
            self._advance(parents)

    def commit(self, phase: str) -> None:
        """Checkpoint the replay state of the last completed round."""
        if self.checkpoint is not None:
            self.checkpoint.save(
                {
                    "phase": phase,
                    "next_round": self.next_round,
                    "level_ids": list(self.frontier_ids) if phase == "grow" else [],
                    "split_rounds": [list(r) for r in self.split_rounds],
                    "rng": rng_state(self.gen),
                    "ledger": [[label, eps] for label, eps in self.accountant.ledger],
                    "config": self.config,
                    "round_log": list(self.round_log),
                }
            )


def replay_splits(
    collectors: Sequence[ShardCollector], split_rounds: list[list[str]]
) -> None:
    """Replay committed splits onto *fresh* in-process collectors.

    An in-process resume rebuilds its collectors from the shard data, so
    their payload trees must be grown back to the checkpointed frontier
    before the fit continues.  Splitting is deterministic in the parent
    payload, so the replayed trees match the pre-crash ones exactly.  The
    TCP transport never needs this: its collectors are long-lived
    processes that kept their trees (and their mask-stream positions).
    """
    for round_ids in split_rounds:
        if not round_ids:
            continue
        for collector in collectors:
            collector.apply_splits(round_ids)


def federated_privtree_histogram(
    shards: Sequence[SpatialDataset],
    epsilon: float,
    *,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    tree_fraction: float = 0.5,
    tuples_per_individual: int = 1,
    count_mechanism: str = "laplace",
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    accountant: PrivacyAccountant | None = None,
    blinding_seed: SeedLike = 0,
    label_prefix: str = "privtree",
) -> HistogramTree:
    """Fit PrivTree over ``shards`` without any party seeing the raw counts.

    Convenience wrapper: builds one in-process
    :class:`~repro.federated.collector.ShardCollector` per shard dataset
    (all over their common domain), wires them to a
    :class:`SecureAggregator`, and runs :meth:`FederatedPrivTree.
    fit_histogram`.  The result is bit-identical to the centralized
    ``privtree`` fit on the concatenated shard points under the same seed.
    """
    shards = list(shards)
    collectors = [
        ShardCollector(
            i,
            len(shards),
            shard,
            blinding_seed=blinding_seed,
            dims_per_split=dims_per_split,
        )
        for i, shard in enumerate(shards)
    ]
    driver = FederatedPrivTree(collectors)
    return driver.fit_histogram(
        epsilon,
        theta=theta,
        tree_fraction=tree_fraction,
        tuples_per_individual=tuples_per_individual,
        count_mechanism=count_mechanism,
        rng=rng,
        max_depth=max_depth,
        accountant=accountant,
        label_prefix=label_prefix,
    )
