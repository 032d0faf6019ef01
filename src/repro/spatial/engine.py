"""The array-native spatial PrivTree engine: Algorithm 2 one level at a time.

A spatial fit needs only each node's box and point count, and the
depth-dependent bias makes one level's decisions independent of each other,
so the fit is one loop over levels and never builds node objects.
:class:`LevelTree` holds the geometry as per-level ``(m, d)`` bounds; a
*count source* supplies exact counts through ``counts(eligible)``,
``split(parents, dims, mids)`` and ``leaf_counts(leaves)``:
:class:`WindowCounts` from windows of one permutation of the local points,
the federated coordinator from one secure-aggregation round per level
(:mod:`repro.federated.driver`).  :func:`fit_privtree` writes
:class:`~repro.spatial.flat.FlatHistogram`'s pre-order arrays.

The noise stream is the generic engine's (:mod:`repro.core.privtree`): one
Laplace batch per level over the eligible nodes in BFS order, then one over
the leaves in DFS order.  Internal counts are summed left to right from
``0.0`` like ``sum()`` over the children, so releases are bit-identical to
a pointer-tree build of the same decomposition.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from ..core.params import PrivTreeParams
from ..core.privtree import MaxDepthWarning
from ..domains.box import Box
from ..mechanisms.geometric import geometric_noise_interleaved
from ..mechanisms.laplace import laplace_noise
from ..telemetry import span as _span
from .flat import FlatHistogram
from .payload import partition_windows, resolve_dims_per_split

__all__ = ["LevelTree", "WindowCounts", "check_fit_options", "fit_privtree"]


def check_fit_options(
    tree_fraction: float, tuples_per_individual: int, count_mechanism: str
) -> None:
    """Validate the §3.4/§3.5 knobs shared by every spatial PrivTree fit."""
    if tuples_per_individual < 1:
        raise ValueError(
            f"tuples_per_individual must be >= 1, got {tuples_per_individual!r}"
        )
    if count_mechanism not in ("laplace", "geometric"):
        raise ValueError(
            f"count_mechanism must be 'laplace' or 'geometric', got {count_mechanism!r}"
        )
    if not 0 < tree_fraction < 1:
        raise ValueError(f"tree_fraction must be in (0, 1), got {tree_fraction!r}")


class LevelTree:
    """A decomposition of ``domain`` as per-level arrays.

    Level ``l`` holds ``lows[l]`` / ``highs[l]``; ``splits[l]`` lists,
    ascending, its nodes that split.  Their children form level ``l + 1``:
    child ``c`` has parent ``splits[l][c // β]`` and
    :meth:`~repro.domains.box.Box.bisect` rank ``c % β``.  A node's *BFS
    index* is its position in the concatenation of all levels.
    """

    def __init__(self, domain: Box, dims_per_split: int | None = None) -> None:
        self.dims_per_split = resolve_dims_per_split(domain.ndim, dims_per_split)
        self.fanout = 2**self.dims_per_split
        self.lows = [np.array([domain.low], dtype=float)]
        self.highs = [np.array([domain.high], dtype=float)]
        self.splits: list[np.ndarray] = []

    def split_dims(self) -> list[int]:
        """The frontier's bisected dimensions (round-robin by depth)."""
        ndim = self.lows[0].shape[1]
        first = (len(self.lows) - 1) * self.dims_per_split
        return [(first + j) % ndim for j in range(self.dims_per_split)]

    def bisectable(self) -> np.ndarray:
        """Per frontier node: does bisection keep every extent positive?"""
        dims = self.split_dims()
        lows, highs = self.lows[-1][:, dims], self.highs[-1][:, dims]
        mids = (lows + highs) / 2.0
        return np.all((lows < mids) & (mids < highs), axis=1)

    def split(self, parents: np.ndarray) -> np.ndarray:
        """Bisect frontier nodes ``parents``; return their ``(n, k)`` midpoints."""
        dims = self.split_dims()
        lows = np.repeat(self.lows[-1][parents, None], self.fanout, axis=1)
        highs = np.repeat(self.highs[-1][parents, None], self.fanout, axis=1)
        mids = (lows[:, 0, dims] + highs[:, 0, dims]) / 2.0
        rank = np.arange(self.fanout)
        for j, dim in enumerate(dims):
            upper = (rank >> (len(dims) - 1 - j)) & 1 == 1
            lows[:, upper, dim] = mids[:, j, None]
            highs[:, ~upper, dim] = mids[:, j, None]
        self.splits.append(parents)
        self.lows.append(lows.reshape(-1, lows.shape[2]))
        self.highs.append(highs.reshape(-1, highs.shape[2]))
        return mids

    def _preorder(self) -> list[np.ndarray]:
        """Per level, each node's pre-order index (from subtree sizes)."""
        sizes = [np.ones(len(level), dtype=np.intp) for level in self.lows]
        for level in range(len(self.splits) - 1, -1, -1):
            children = sizes[level + 1].reshape(-1, self.fanout)
            sizes[level][self.splits[level]] += children.sum(axis=1)
        pre = [np.zeros(1, dtype=np.intp)]
        for level, parents in enumerate(self.splits):
            children = sizes[level + 1].reshape(-1, self.fanout)
            before = np.cumsum(children, axis=1) - children
            pre.append((pre[level][parents, None] + 1 + before).ravel())
        return pre

    def leaves(self) -> np.ndarray:
        """BFS indices of the leaves in pre-order (DFS left to right)."""
        is_leaf = [np.ones(len(level), dtype=bool) for level in self.lows]
        for mask, parents in zip(is_leaf, self.splits):
            mask[parents] = False
        leaves = np.flatnonzero(np.concatenate(is_leaf))
        return leaves[np.argsort(np.concatenate(self._preorder())[leaves])]

    def compile(self, leaf_counts: np.ndarray) -> FlatHistogram:
        """The release: ``leaf_counts`` (in :meth:`leaves` order) on the
        leaves, left-to-right child sums on internal nodes, in pre-order."""
        fanout, pre = self.fanout, self._preorder()
        starts = np.cumsum([0] + [len(level) for level in self.lows])
        m = int(starts[-1])
        values = np.empty(m)
        values[self.leaves()] = leaf_counts
        for level in range(len(self.splits) - 1, -1, -1):
            children = values[starts[level + 1] : starts[level + 2]].reshape(-1, fanout)
            total = np.zeros(len(children))
            for rank in range(fanout):
                total = total + children[:, rank]
            values[starts[level] + self.splits[level]] = total

        order = np.concatenate(pre)
        lows = np.empty((m, self.lows[0].shape[1]))
        highs = np.empty_like(lows)
        counts = np.empty(m)
        lows[order] = np.concatenate(self.lows)
        highs[order] = np.concatenate(self.highs)
        counts[order] = values
        parents = np.full(m, -1, dtype=np.intp)
        n_children = np.zeros(m, dtype=np.intp)
        for level, split in enumerate(self.splits):
            parents[pre[level + 1]] = np.repeat(pre[level][split], fanout)
            n_children[pre[level][split]] = fanout
        child_offsets = np.concatenate(([0], np.cumsum(n_children)))
        child_index = np.empty(int(child_offsets[-1]), dtype=np.intp)
        for level, split in enumerate(self.splits):
            slots = child_offsets[pre[level][split], None] + np.arange(fanout)
            child_index[slots.ravel()] = pre[level + 1]
        return FlatHistogram(lows, highs, counts, parents, child_offsets, child_index)


class WindowCounts:
    """Count source over local points: node ``i`` of the frontier holds
    ``order[starts[i]:stops[i]]``, and a split partitions windows in place."""

    def __init__(self, points: np.ndarray) -> None:
        self._coords = np.asarray(points, dtype=float)
        self._order = np.arange(len(self._coords), dtype=np.intp)
        self._starts = np.zeros(1, dtype=np.intp)
        self._stops = np.full(1, len(self._coords), dtype=np.intp)
        self._sizes = [self._stops - self._starts]

    def counts(self, eligible: np.ndarray) -> np.ndarray:
        return self._sizes[-1][eligible]

    def split(self, parents: np.ndarray, dims: Sequence[int], mids: np.ndarray) -> None:
        bounds = partition_windows(
            self._coords, self._order, self._starts[parents], self._stops[parents],
            dims, mids,
        )
        self._starts, self._stops = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
        self._sizes.append(self._stops - self._starts)

    def leaf_counts(self, leaves: np.ndarray) -> np.ndarray:
        return np.concatenate(self._sizes)[leaves]


def fit_privtree(
    tree: LevelTree,
    source,
    gen: np.random.Generator,
    *,
    epsilon: float,
    tree_fraction: float,
    theta: float,
    tuples_per_individual: int,
    count_mechanism: str,
    max_depth: int | None,
) -> FlatHistogram:
    """Grow ``tree`` from its frontier (Algorithm 2), then release noisy leaves.

    ``tree_fraction * epsilon`` calibrates the structure (Corollary 1,
    sensitivity ``tuples_per_individual``), the rest perturbs the leaf
    counts: an individual's ``x`` points land in at most ``x`` leaves.
    """
    eps_tree, eps_counts = tree_fraction * epsilon, (1.0 - tree_fraction) * epsilon
    params = PrivTreeParams.calibrate(
        eps_tree, tree.fanout, sensitivity=float(tuples_per_individual), theta=theta
    )
    guard_hit = False
    while len(tree.lows[-1]):
        depth = len(tree.lows) - 1
        # Per-level span only (never per-node): frontier shape and split
        # counts are safe to trace, raw points and scores are not.
        with _span(
            "privtree.level", depth=depth, frontier=len(tree.lows[-1])
        ) as level_span:
            eligible = np.flatnonzero(tree.bisectable())
            if max_depth is not None and depth >= max_depth:
                guard_hit = guard_hit or eligible.size > 0
                eligible = eligible[:0]
            if not eligible.size:
                level_span.set(eligible=0, split=0)
                break
            counts = np.asarray(source.counts(eligible), dtype=float)
            noise = laplace_noise(params.lam, size=eligible.size, rng=gen)
            biased = np.maximum(params.floor(), counts - depth * params.delta)
            parents = eligible[biased + noise > params.theta]
            dims = tree.split_dims()
            source.split(parents, dims, tree.split(parents))
            level_span.set(eligible=int(eligible.size), split=int(parents.size))
    if guard_hit:
        warnings.warn(
            f"PrivTree hit the max_depth={max_depth} guard; the decomposition "
            "was truncated (this is outside the paper's analysis)",
            MaxDepthWarning,
            stacklevel=3,
        )

    leaves = tree.leaves()
    exact = np.asarray(source.leaf_counts(leaves))
    if count_mechanism == "laplace":
        scale = tuples_per_individual / eps_counts
        noisy = exact.astype(float) + laplace_noise(scale, size=leaves.size, rng=gen)
    else:
        noisy = exact.astype(np.int64) + geometric_noise_interleaved(
            eps_counts, leaves.size, sensitivity=float(tuples_per_individual), rng=gen
        )
    return tree.compile(noisy.astype(float))
