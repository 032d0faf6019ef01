"""Flat, array-backed view of a released histogram tree.

A :class:`FlatHistogram` is a structure-of-arrays synopsis: node boxes as
``(m, d)`` ``lows`` / ``highs`` matrices, counts as an ``(m,)`` vector, and
the topology as pre-order ``parents`` plus CSR-style child offsets.  PrivTree
fits write these arrays directly (:mod:`repro.spatial.engine`); pointer
trees of the other hierarchical methods compile into them with
:meth:`FlatHistogram.from_tree`.

Range counts follow the §2.2 top-down rule: sum the counts of maximal
fully-covered nodes plus a uniform fraction of each partially covered
leaf.  :meth:`FlatHistogram.range_count_arrays` runs that rule for a whole
batch at once as one level-by-level traversal:

* **Blocks.**  Queries go in contiguous blocks of :data:`BLOCK_QUERIES`
  (2048), so each level's frontier of (query, node) id pairs and its
  temporaries stay cache-sized however long the batch is.
* **Column tests.**  Node bounds are kept as one contiguous column per
  axis.  Per axis the traversal gathers node and query bounds with
  ``take`` and tests ``q_low < node_high & node_low < q_high``
  (intersects) and ``q_low <= node_low & node_high <= q_high`` (covered);
  overlap extents are computed only for partially covered leaves.
* **Child table.**  Pairs that descend expand through an
  ``(internal nodes, max_fanout)`` child table, one gather plus a
  ``repeat`` of the query ids; ``-1`` padding is dropped only when the
  fanout varies.  The table, the columns, the leaf mask and the volumes
  are built once per synopsis and cached read-only.

**Summation order.**  The frontier stays ordered by query, then BFS, and
each level adds the ``bincount`` of its covered counts and then the
``bincount`` of its partial-leaf fractions into the answers.  Every
answer is therefore the same sequence of float additions as the
unblocked traversal that came before, so answers are bit-identical
(``tests/spatial/test_release_golden.py`` pins them by digest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..domains.box import Box
from ..telemetry import span as _span
from .histogram_tree import HistogramTree

__all__ = ["BLOCK_QUERIES", "FlatHistogram", "flatten_tree"]

#: Queries answered per traversal block.  Blocks keep the frontier
#: temporaries cache-sized; answers do not depend on the block size.
BLOCK_QUERIES = 2048


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
        """Boolean leaf mask (no children in the CSR topology); read-only."""
        return self._plan.leaf

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
        """Per-node box volumes; read-only."""
        return self._plan.volumes

    @property
    def height(self) -> int:
        """Depth of the deepest node (root = 0), one child-table gather per level."""
        plan = self._plan
        frontier = np.zeros(1, dtype=np.intp)
        height = 0
        while True:
            frontier = frontier[~plan.leaf.take(frontier)]
            if not frontier.size:
                return height
            frontier, _ = plan.children(frontier, frontier)
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

        Packs the boxes into bound matrices for :meth:`range_count_arrays`,
        which runs the §2.2 traversal for every query at once: the visited
        (query, node) pairs are exactly those of the recursive traversal,
        without its per-node Python cost.  Returns answers in workload
        order; equal to calling :meth:`range_count` per query.
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
        """Answer ``(n, d)`` low/high bound matrices directly.

        The columnar entry point behind :meth:`range_count_many`: callers
        that already hold packed bound matrices (the binary wire codec, the
        bench harness) skip building per-query :class:`Box` objects.

        Runs the blocked, column-wise traversal described in the module
        docstring; each answer is the same float sum whatever the block
        size.  Under an enabled tracer each call records one
        ``spatial.traverse`` span carrying counts only: ``queries``,
        visited ``pairs`` and ``levels``.

        Bounds must be finite with ``low < high`` on every axis (the
        :class:`Box` invariant), else :class:`ValueError`: the
        comparison-form intersection test equals the §2.2 ``overlap > 0``
        test only for positive-extent boxes.
        """
        q_lows = np.asarray(q_lows, dtype=float)
        q_highs = np.asarray(q_highs, dtype=float)
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
        valid = (
            np.isfinite(q_lows).all(axis=1)
            & np.isfinite(q_highs).all(axis=1)
            & (q_lows < q_highs).all(axis=1)
        )
        if not valid.all():
            index = int(np.flatnonzero(~valid)[0])
            raise ValueError(
                f"query {index}: bounds must be finite with low < high on "
                "every axis"
            )
        plan = self._plan
        counts = np.asarray(self.counts)  # a plain view of an mmap-backed column
        q_low_cols = np.ascontiguousarray(q_lows.T)
        q_high_cols = np.ascontiguousarray(q_highs.T)
        answers = np.empty(n_queries)
        pairs = levels = 0
        with _span("spatial.traverse", queries=n_queries) as traverse_span:
            for start in range(0, n_queries, BLOCK_QUERIES):
                stop = min(start + BLOCK_QUERIES, n_queries)
                answers[start:stop], block_pairs, block_levels = plan.answer_block(
                    counts, q_low_cols[:, start:stop], q_high_cols[:, start:stop]
                )
                pairs += block_pairs
                levels = max(levels, block_levels)
            traverse_span.set(pairs=pairs, levels=levels)
        return answers

    @cached_property
    def _plan(self) -> "_TraversalPlan":
        """Derived traversal arrays, built on first use and then reused."""
        return _TraversalPlan.build(self)


@dataclass(frozen=True)
class _TraversalPlan:
    """What every traversal reads besides the counts, derived once.

    ``low_cols`` / ``high_cols`` are the ``(d, m)`` node bounds, one
    contiguous row per axis.  ``table`` is the ``(internal, max_fanout)``
    child table: row ``row[i]`` lists node ``i``'s children left to right,
    padded with ``-1`` when fanouts differ (``padded``); ``row`` is ``-1``
    for leaves.  All arrays are read-only.
    """

    low_cols: np.ndarray
    high_cols: np.ndarray
    volumes: np.ndarray
    leaf: np.ndarray
    row: np.ndarray
    table: np.ndarray
    padded: bool

    @staticmethod
    def build(flat: FlatHistogram) -> "_TraversalPlan":
        fanouts = np.diff(flat.child_offsets)
        internal = np.flatnonzero(fanouts)
        widths = fanouts[internal]
        max_fanout = int(widths.max()) if internal.size else 0
        row = np.full(flat.size, -1, dtype=np.intp)
        row[internal] = np.arange(internal.size, dtype=np.intp)
        table = np.full((internal.size, max_fanout), -1, dtype=np.intp)
        # CSR position j of parent k lands in column j - child_offsets[k].
        table[
            np.repeat(np.arange(internal.size), widths),
            np.arange(int(widths.sum())) - np.repeat(flat.child_offsets[internal], widths),
        ] = flat.child_index
        plan = _TraversalPlan(
            low_cols=np.ascontiguousarray(flat.lows.T),
            high_cols=np.ascontiguousarray(flat.highs.T),
            volumes=np.prod(flat.highs - flat.lows, axis=1),
            leaf=fanouts == 0,
            row=row,
            table=table,
            padded=bool(internal.size) and int(widths.min()) != max_fanout,
        )
        for array in (plan.low_cols, plan.high_cols, plan.volumes, plan.leaf, row, table):
            array.flags.writeable = False
        return plan

    def children(
        self, node_ids: np.ndarray, query_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand (query, internal node) pairs into their child pairs, in order."""
        fanout = self.table.shape[1]
        node_ids = self.table[self.row.take(node_ids)].ravel()
        query_ids = np.repeat(query_ids, fanout)
        if self.padded:
            real = node_ids >= 0
            return node_ids[real], query_ids[real]
        return node_ids, query_ids

    def answer_block(
        self, counts: np.ndarray, q_low_cols: np.ndarray, q_high_cols: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Answers of one block of ``(d, b)`` query columns, plus pair and level counts."""
        n_block = q_low_cols.shape[1]
        answers = np.zeros(n_block)
        # Ids stay intp: ``take`` casts a narrower index array on every
        # call, which costs more than the gather itself.
        query_ids = np.arange(n_block, dtype=np.intp)
        node_ids = np.zeros(n_block, dtype=np.intp)
        pairs = levels = 0
        while node_ids.size:
            pairs += node_ids.size
            levels += 1
            for axis in range(q_low_cols.shape[0]):
                node_low = self.low_cols[axis].take(node_ids)
                node_high = self.high_cols[axis].take(node_ids)
                q_low = q_low_cols[axis].take(query_ids)
                q_high = q_high_cols[axis].take(query_ids)
                axis_hit = (q_low < node_high) & (node_low < q_high)
                axis_covered = (q_low <= node_low) & (node_high <= q_high)
                if axis:
                    hit &= axis_hit
                    covered &= axis_covered
                else:
                    hit, covered = axis_hit, axis_covered
            # Fully-covered nodes contribute their count (covered implies
            # intersecting: boxes have positive extent).
            at = np.flatnonzero(covered)
            if at.size:
                answers += np.bincount(
                    query_ids.take(at),
                    weights=counts.take(node_ids.take(at)),
                    minlength=n_block,
                )
            hit &= ~covered
            leaf = self.leaf.take(node_ids)
            # Partially-covered leaves contribute a uniformity fraction.
            at = np.flatnonzero(hit & leaf)
            if at.size:
                part_nodes = node_ids.take(at)
                part_queries = query_ids.take(at)
                overlap = None
                for axis in range(q_low_cols.shape[0]):
                    extent = np.minimum(
                        self.high_cols[axis].take(part_nodes),
                        q_high_cols[axis].take(part_queries),
                    ) - np.maximum(
                        self.low_cols[axis].take(part_nodes),
                        q_low_cols[axis].take(part_queries),
                    )
                    overlap = extent if overlap is None else overlap * extent
                answers += np.bincount(
                    part_queries,
                    weights=counts.take(part_nodes)
                    * (overlap / self.volumes.take(part_nodes)),
                    minlength=n_block,
                )
            # Descend into intersecting, uncovered internal nodes.
            at = np.flatnonzero(hit & ~leaf)
            node_ids, query_ids = self.children(node_ids.take(at), query_ids.take(at))
        return answers, pairs, levels


def flatten_tree(tree: HistogramTree) -> FlatHistogram:
    """Alias of :meth:`FlatHistogram.from_tree`."""
    return FlatHistogram.from_tree(tree)
