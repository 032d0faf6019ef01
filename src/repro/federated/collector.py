"""The shard-side party of a federated fit: one partition, blinded counts.

A :class:`ShardCollector` plays PrivCount's *data collector* role.  It holds
one shard of the sensitive points (over the **global** domain, so every
shard's decomposition geometry matches the coordinator's), mirrors the
coordinator's splits on the centralized fit's count source
(:class:`~repro.spatial.engine.WindowCounts`), and answers per-node count
queries by emitting additively blinded ``uint64`` shares.  The raw
per-shard counts never leave the collector: every emitted vector is blinded
by the pairwise masks of :class:`~repro.federated.blinding.PairwiseBlinder`,
so only the sum across *all* shards — taken by the
:class:`~repro.federated.aggregator.SecureAggregator` — is meaningful.

The collector is deliberately dumb about privacy: it adds no noise and
knows nothing about ε.  All noise is drawn once, at the coordinator, from
the aggregated exact counts — exactly where the single-machine engine draws
it — which is what makes the federated release bit-identical to the
centralized one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..domains.box import Box
from ..mechanisms.rng import SeedLike
from ..spatial.dataset import SpatialDataset
from ..spatial.engine import LevelTree, WindowCounts
from .blinding import PairwiseBlinder

__all__ = ["ROOT_NODE_ID", "NodeIds", "ShardCollector", "child_node_id"]

#: The coordinator and every collector agree on this id for the root box
#: (the paper's ``v1`` covering all of Ω).
ROOT_NODE_ID = "v1"


def child_node_id(parent_id: str, child_index: int) -> str:
    """The canonical id of a split child: the parent's path plus its rank.

    Children are ranked in :meth:`~repro.domains.box.Box.bisect` order, so
    ids are pure geometry — every party derives the same id for the same
    sub-box without exchanging anything beyond the split decision.
    """
    return f"{parent_id}.{child_index}"


class NodeIds:
    """Path ids in BFS order, as every party names nodes: a split appends
    ``child_node_id(parent, rank)`` for its parents, and these become the
    frontier.  Lookups raise ``KeyError`` carrying the offending id."""

    def __init__(self) -> None:
        self.ids, self.frontier = [ROOT_NODE_ID], [ROOT_NODE_ID]
        self._index = {ROOT_NODE_ID: 0}

    def bfs(self, node_ids: list[str]) -> np.ndarray:
        """BFS indices of ``node_ids``."""
        return np.array([self._index[node_id] for node_id in node_ids], dtype=np.intp)

    def frontier_positions(self, node_ids: list[str]) -> np.ndarray:
        """Ascending, distinct positions of frontier nodes ``node_ids``."""
        positions = self.bfs(node_ids) - (len(self.ids) - len(self.frontier))
        if np.any(positions < 0):
            raise KeyError(node_ids[int(np.argmax(positions < 0))])
        return np.unique(positions)

    def split(self, parents: np.ndarray, fanout: int) -> list[str]:
        """Name the children of frontier nodes ``parents``; return their ids."""
        parent_ids = [self.frontier[i] for i in parents]
        self.frontier = [child_node_id(p, j) for p in parent_ids for j in range(fanout)]
        self._index.update((c, i) for i, c in enumerate(self.frontier, len(self.ids)))
        self.ids += self.frontier
        return parent_ids


class ShardCollector:
    """One shard's worker: local level engine + blinded count answers.

    Parameters
    ----------
    shard_id, n_shards:
        This collector's index and the total shard count (≥ 2).
    dataset:
        The shard's points.  ``dataset.domain`` must be the *global* domain
        Ω shared by all shards — the split geometry is derived from it.
    blinding_seed:
        Root seed of the pairwise mask streams; common to all collectors of
        one aggregation (see :mod:`repro.federated.blinding`).
    dims_per_split:
        Dimensions bisected per split, as in the centralized engine.
    """

    def __init__(
        self,
        shard_id: int,
        n_shards: int,
        dataset: SpatialDataset,
        *,
        blinding_seed: SeedLike = 0,
        dims_per_split: int | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.n_shards = n_shards
        self._blinder = PairwiseBlinder(shard_id, n_shards, blinding_seed)
        self._tree = LevelTree(dataset.domain, dims_per_split)
        self._counts = WindowCounts(dataset.points)
        self._names = NodeIds()
        self._domain = dataset.domain
        self._n_points = dataset.n
        self._rounds_served = 0

    @property
    def domain(self) -> Box:
        """The global domain this shard's decomposition runs over."""
        return self._domain

    @property
    def n_points(self) -> int:
        """Number of points held by this shard (not privacy-sensitive here:
        the coordinator learns the exact global total anyway via the root
        count, and shard sizes are deployment metadata)."""
        return self._n_points

    @property
    def dims_per_split(self) -> int:
        """Dimensions bisected per split (fanout β = 2^dims_per_split)."""
        return self._tree.dims_per_split

    def rekey(self, pair_seeds: Mapping[tuple[int, int], int]) -> None:
        """Replace the derived-stream blinder with key-exchange pair seeds.

        Called once after the transport's Diffie-Hellman exchange, before
        the first counts round; the aggregate is unchanged (masks cancel
        for any consistent seeds), only the seeds' provenance differs.
        Rekeying after a round has been answered would desynchronize the
        pair streams, so it is refused.
        """
        if self._rounds_served:
            raise RuntimeError(
                f"shard {self.shard_id} cannot rekey after answering "
                f"{self._rounds_served} round(s); mask streams would desync"
            )
        self._blinder = PairwiseBlinder.from_pair_seeds(
            self.shard_id, self.n_shards, pair_seeds
        )

    def blinded_counts(self, node_ids: list[str]) -> np.ndarray:
        """Blinded shares of this shard's counts for ``node_ids``.

        One aggregation round: the pair mask streams advance by exactly
        ``len(node_ids)`` draws, so the coordinator must query every
        collector with the same id list in the same round order.
        """
        bfs = self._find(self._names.bfs, node_ids)
        self._rounds_served += 1
        return self._blinder.blind(self._counts.leaf_counts(bfs))

    def apply_splits(self, node_ids: list[str]) -> None:
        """Mirror the coordinator's split decision for ``node_ids``.

        Splits the named frontier nodes' windows in one vectorized pass.  An
        id that is unknown or off the frontier (already split, or a repeated
        split list) raises ``KeyError`` naming it before any window moves —
        a protocol error, not a data condition.  Retries never reach here
        twice: the TCP endpoint answers a replayed round from its cache, and
        an in-process resume replays onto fresh collectors.
        """
        parents = self._find(self._names.frontier_positions, node_ids)
        dims = self._tree.split_dims()
        self._counts.split(parents, dims, self._tree.split(parents))
        self._names.split(parents, self._tree.fanout)

    def _find(self, lookup, node_ids: list[str]) -> np.ndarray:
        try:
            return lookup(node_ids)
        except KeyError as exc:
            raise KeyError(
                f"shard {self.shard_id} has no node {exc.args[0]!r} to count or "
                "split; the coordinator must split a node before querying its "
                "children, and split it only once"
            ) from None
