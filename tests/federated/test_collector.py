"""Tests for the shard-side collector."""

import re

import numpy as np
import pytest

from repro.domains import Box
from repro.federated import (
    MASK_DTYPE,
    ROOT_NODE_ID,
    SecureAggregator,
    ShardCollector,
    child_node_id,
)
from repro.spatial import SpatialDataset


def _collectors(dataset, n_shards=2, seed=3, **kwargs):
    shards = [
        SpatialDataset(dataset.points[i::n_shards], dataset.domain, name=f"s{i}")
        for i in range(n_shards)
    ]
    return [
        ShardCollector(i, n_shards, shard, blinding_seed=seed, **kwargs)
        for i, shard in enumerate(shards)
    ], shards


class TestNodeIds:
    def test_child_ids_encode_the_path(self):
        assert child_node_id(ROOT_NODE_ID, 0) == "v1.0"
        assert child_node_id("v1.0", 3) == "v1.0.3"


class TestShardCollector:
    def test_properties(self, uniform_2d):
        collectors, shards = _collectors(uniform_2d, n_shards=3)
        for collector, shard in zip(collectors, shards):
            assert collector.domain == uniform_2d.domain
            assert collector.n_points == shard.n
            assert collector.dims_per_split == 2

    def test_dims_per_split_override(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d, dims_per_split=1)
        assert collectors[0].dims_per_split == 1

    def test_aggregated_root_count_is_global(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d, n_shards=3)
        agg = SecureAggregator(3)
        counts = agg.aggregate([c.blinded_counts([ROOT_NODE_ID]) for c in collectors])
        assert counts.tolist() == [uniform_2d.n]

    def test_split_children_counts_match_geometry(self, clustered_2d):
        # After a split, each child's aggregated count must equal a direct
        # half-open box count over the concatenated points — the collectors'
        # payload windows and the public Box.count_points agree exactly.
        collectors, _ = _collectors(clustered_2d, n_shards=3)
        agg = SecureAggregator(3)
        for c in collectors:
            c.apply_splits([ROOT_NODE_ID])
        child_ids = [child_node_id(ROOT_NODE_ID, j) for j in range(4)]
        counts = agg.aggregate([c.blinded_counts(child_ids) for c in collectors])
        child_boxes = clustered_2d.domain.bisect([0, 1])
        expected = [box.count_points(clustered_2d.points) for box in child_boxes]
        assert counts.tolist() == expected
        assert sum(expected) == clustered_2d.n

    def test_blinded_counts_never_equal_raw_counts(self, clustered_2d):
        # The wire-visible share is count + one-time pad; the raw per-shard
        # count must not appear in it.
        collectors, shards = _collectors(clustered_2d, n_shards=3)
        for c in collectors:
            c.apply_splits([ROOT_NODE_ID])
        ids = [ROOT_NODE_ID] + [child_node_id(ROOT_NODE_ID, j) for j in range(4)]
        boxes = [clustered_2d.domain] + list(clustered_2d.domain.bisect([0, 1]))
        for collector, shard in zip(collectors, shards):
            raw = np.array(
                [box.count_points(shard.points) for box in boxes], dtype=MASK_DTYPE
            )
            share = collector.blinded_counts(ids)
            assert share.dtype == MASK_DTYPE
            assert not np.any(share == raw)

    def test_unknown_node_id_is_a_protocol_error(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d)
        with pytest.raises(KeyError, match="has no node"):
            collectors[0].blinded_counts(["v1.0"])
        with pytest.raises(KeyError, match="split a node before"):
            collectors[0].apply_splits(["v9"])
        for c in collectors:
            c.apply_splits([ROOT_NODE_ID])
            c.apply_splits(["v1.1", "v1.2"])
        # Off the frontier: an id of an already-split level, and a repeat of
        # the last split list.  Both are refused before any window moves.
        stale_splits = {"v1.3": ["v1.2.0", "v1.3"], "v1.1": ["v1.1", "v1.2"]}
        for named, stale in stale_splits.items():
            for c in collectors:
                with pytest.raises(KeyError, match=re.escape(repr(named))):
                    c.apply_splits(stale)
        halves = uniform_2d.domain.bisect([0, 1])
        ids = ["v1.0", "v1.3"] + [f"v1.{p}.{j}" for p in (1, 2) for j in range(4)]
        boxes = [halves[0], halves[3]] + [
            box for p in (1, 2) for box in halves[p].bisect([0, 1])
        ]
        counts = SecureAggregator(2).aggregate(
            [c.blinded_counts(ids) for c in collectors]
        )
        assert counts.tolist() == [b.count_points(uniform_2d.points) for b in boxes]

    def test_empty_shard_participates(self):
        # A collector with zero points still answers every round (its counts
        # are all zero but its masks are still needed for cancellation).
        gen = np.random.default_rng(0)
        pts = gen.uniform(0, 1, size=(40, 2)) * 0.999999
        full = SpatialDataset(pts, Box.unit(2), name="d")
        empty = SpatialDataset(np.empty((0, 2)), Box.unit(2), name="e")
        collectors = [
            ShardCollector(0, 2, full, blinding_seed=1),
            ShardCollector(1, 2, empty, blinding_seed=1),
        ]
        agg = SecureAggregator(2)
        counts = agg.aggregate([c.blinded_counts([ROOT_NODE_ID]) for c in collectors])
        assert counts.tolist() == [40]
