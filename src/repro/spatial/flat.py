"""Flat, array-backed view of a released histogram tree.

A :class:`FlatHistogram` is a structure-of-arrays synopsis: node boxes as
``(m, d)`` ``lows`` / ``highs`` matrices, counts as an ``(m,)`` vector, and
the topology as pre-order ``parents`` plus CSR-style child offsets.  PrivTree
fits write these arrays directly (:mod:`repro.spatial.engine`); pointer
trees of the other hierarchical methods compile into them with
:meth:`FlatHistogram.from_tree`.  Range-count queries are then pure NumPy
instead of a Python traversal.

Why no traversal is needed: the §2.2 top-down answer is

* the count of every *maximal* fully-covered node — i.e. covered nodes whose
  parent is not covered ("covered" is downward-closed, so maximality is a
  single parent lookup), plus
* the uniformity fraction of every partially-covered leaf.

Both conditions are per-node predicates given the parent array, so one
vectorized pass over all nodes — or a broadcast over (queries × nodes) for a
whole workload — replaces per-query pointer chasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..domains.box import Box
from .histogram_tree import HistogramTree

__all__ = ["FlatHistogram", "flatten_tree"]


@dataclass(frozen=True)
class FlatHistogram:
    """A structure-of-arrays spatial synopsis (pre-order node layout).

    Attributes
    ----------
    lows, highs:
        ``(m, d)`` box bounds, nodes in pre-order.
    counts:
        ``(m,)`` noisy node counts.
    parents:
        ``(m,)`` pre-order index of each node's parent (``-1`` for the root).
    child_offsets, child_index:
        CSR topology: node ``i``'s children are
        ``child_index[child_offsets[i]:child_offsets[i + 1]]`` (pre-order
        indices, left to right).
    """

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray
    parents: np.ndarray
    child_offsets: np.ndarray
    child_index: np.ndarray

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return int(self.counts.shape[0])

    @property
    def ndim(self) -> int:
        """Dimensionality of the node boxes."""
        return int(self.lows.shape[1])

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean leaf mask (no children in the CSR topology)."""
        return np.diff(self.child_offsets) == 0

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return int(self.is_leaf.sum())

    @property
    def total_count(self) -> float:
        """The (noisy) total number of points — the root's count."""
        return float(self.counts[0])

    @property
    def volumes(self) -> np.ndarray:
        """Per-node box volumes."""
        return np.prod(self.highs - self.lows, axis=1)

    @property
    def height(self) -> int:
        """Depth of the deepest node (root = 0), one CSR pass per level."""
        frontier = np.zeros(1, dtype=np.intp)
        height = 0
        while True:
            starts = self.child_offsets[frontier]
            widths = self.child_offsets[frontier + 1] - starts
            total = int(widths.sum())
            if total == 0:
                return height
            shifts = np.repeat(np.cumsum(widths) - widths, widths)
            frontier = self.child_index[
                np.repeat(starts, widths) + np.arange(total) - shifts
            ]
            height += 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_tree(tree: HistogramTree) -> "FlatHistogram":
        """Compile a pointer :class:`HistogramTree` into flat arrays."""
        nodes = list(tree.root.iter_nodes())  # pre-order
        index_of = {id(node): i for i, node in enumerate(nodes)}
        n_children = np.array([len(node.children) for node in nodes], dtype=np.intp)
        child_index = np.array(
            [index_of[id(child)] for node in nodes for child in node.children],
            dtype=np.intp,
        )
        parents = np.full(len(nodes), -1, dtype=np.intp)
        parents[child_index] = np.repeat(np.arange(len(nodes)), n_children)
        return FlatHistogram(
            lows=np.array([node.box.low for node in nodes], dtype=float),
            highs=np.array([node.box.high for node in nodes], dtype=float),
            counts=np.array([node.count for node in nodes], dtype=float),
            parents=parents,
            child_offsets=np.concatenate(([0], np.cumsum(n_children))),
            child_index=child_index,
        )

    def to_tree(self) -> HistogramTree:
        """A :class:`HistogramTree` view (pointer nodes built only on demand)."""
        return HistogramTree(flat=self)

    def fold(self, make):
        """Build one object per node, children first, and return the root's.

        ``make(low, high, count, children)`` gets plain Python lists and
        floats plus the already-built children, left to right; no recursion,
        so arbitrarily deep trees fold.
        """
        lows, highs = self.lows.tolist(), self.highs.tolist()
        counts, offsets = self.counts.tolist(), self.child_offsets.tolist()
        child_index = self.child_index.tolist()
        built = [None] * self.size
        for i in range(self.size - 1, -1, -1):
            children = [built[j] for j in child_index[offsets[i] : offsets[i + 1]]]
            built[i] = make(lows[i], highs[i], counts[i], children)
        return built[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_count(self, query: Box) -> float:
        """Answer one range-count query (vectorized §2.2 semantics)."""
        return float(self.range_count_many([query])[0])

    def range_count_many(self, queries: Sequence[Box] | Iterable[Box]) -> np.ndarray:
        """Answer a whole workload at once.

        Runs the §2.2 traversal for every query simultaneously: the frontier
        is a flat array of (query, node) pairs, advanced one tree level per
        iteration with pure-NumPy coverage/overlap tests, so the visited
        (query, node) pairs are exactly those of the recursive traversal but
        the per-node Python cost is gone.  Returns answers in workload
        order; equivalent (to float round-off) to calling
        :meth:`range_count` per query, ~an order of magnitude faster on
        thousand-query workloads.
        """
        queries = list(queries)
        n_queries = len(queries)
        if n_queries == 0:
            return np.empty(0)
        d = self.ndim
        for q in queries:
            if q.ndim != d:
                raise ValueError(
                    f"query has {q.ndim} dims but the synopsis has {d}"
                )
        q_lows = np.array([q.low for q in queries])
        q_highs = np.array([q.high for q in queries])
        return self.range_count_arrays(q_lows, q_highs)

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer ``(n, d)`` low/high bound arrays directly.

        The columnar entry point behind :meth:`range_count_many`: callers
        that already hold packed bound matrices (the binary wire codec, the
        bench harness) skip building per-query :class:`Box` objects.  The
        traversal and answers are identical.
        """
        q_lows = np.ascontiguousarray(q_lows, dtype=float)
        q_highs = np.ascontiguousarray(q_highs, dtype=float)
        if q_lows.shape != q_highs.shape or q_lows.ndim != 2:
            raise ValueError("query bounds must be matching (n, d) matrices")
        n_queries = q_lows.shape[0]
        if n_queries == 0:
            return np.empty(0)
        if q_lows.shape[1] != self.ndim:
            raise ValueError(
                f"queries have {q_lows.shape[1]} dims but the synopsis has "
                f"{self.ndim}"
            )
        counts = self.counts
        volumes = self.volumes
        leaf = self.is_leaf
        child_offsets = self.child_offsets
        child_index = self.child_index

        answers = np.zeros(n_queries)
        # Frontier of (query, node) pairs, all queries at the root.
        query_ids = np.arange(n_queries, dtype=np.intp)
        node_ids = np.zeros(n_queries, dtype=np.intp)
        while node_ids.size:
            node_low = self.lows[node_ids]
            node_high = self.highs[node_ids]
            q_low = q_lows[query_ids]
            q_high = q_highs[query_ids]
            overlap = np.minimum(node_high, q_high) - np.maximum(node_low, q_low)
            intersects = np.all(overlap > 0, axis=1)
            covered = np.all((node_low >= q_low) & (node_high <= q_high), axis=1)
            # Fully-covered nodes contribute their count (covered implies
            # intersecting: boxes have positive volume).
            if covered.any():
                answers += np.bincount(
                    query_ids[covered],
                    weights=counts[node_ids[covered]],
                    minlength=n_queries,
                )
            # Partially-covered leaves contribute a uniformity fraction.
            partial = intersects & ~covered & leaf[node_ids]
            if partial.any():
                fractions = (
                    np.prod(overlap[partial], axis=1) / volumes[node_ids[partial]]
                )
                answers += np.bincount(
                    query_ids[partial],
                    weights=counts[node_ids[partial]] * fractions,
                    minlength=n_queries,
                )
            # Descend into intersecting, uncovered internal nodes.
            descend = intersects & ~covered & ~leaf[node_ids]
            parents_q = query_ids[descend]
            parents_n = node_ids[descend]
            starts = child_offsets[parents_n]
            n_children = child_offsets[parents_n + 1] - starts
            total = int(n_children.sum())
            if total == 0:
                break
            query_ids = np.repeat(parents_q, n_children)
            # Ragged ranges: element j of pair i maps to child_index[starts_i + j].
            shifts = np.repeat(np.cumsum(n_children) - n_children, n_children)
            node_ids = child_index[
                np.repeat(starts, n_children) + np.arange(total) - shifts
            ]
        return answers


def flatten_tree(tree: HistogramTree) -> FlatHistogram:
    """Alias of :meth:`FlatHistogram.from_tree`."""
    return FlatHistogram.from_tree(tree)
