"""The released spatial synopsis: a tree of boxes with noisy counts.

This is the public artifact a data curator would actually publish — it holds
no raw points, only sub-domains and noisy counts.  Range-count queries are
answered with the top-down traversal of Section 2.2: fully-covered nodes
contribute their count, partially-covered leaves contribute a
uniformity-based fraction of theirs.

A :class:`HistogramTree` wraps pointer nodes (SimpleTree, k-d tree, JSON
read back) or a :class:`~repro.spatial.flat.FlatHistogram` (PrivTree fits,
binary artifacts); everything but :attr:`HistogramTree.root` reads the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..domains.box import Box

__all__ = ["HistogramNode", "HistogramTree"]


@dataclass
class HistogramNode:
    """A released node: sub-domain, noisy count, children."""

    box: Box
    count: float
    children: list["HistogramNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    def iter_nodes(self) -> Iterator["HistogramNode"]:
        """All nodes of the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class HistogramTree:
    """A private spatial synopsis supporting range-count queries.

    Built from a pointer ``root`` or from a compiled ``flat`` synopsis; the
    missing form is derived on first use and cached (released trees are
    never mutated after construction).
    """

    def __init__(
        self, root: HistogramNode | None = None, *, flat: "FlatHistogram | None" = None
    ) -> None:
        if (root is None) == (flat is None):
            raise ValueError("a HistogramTree needs exactly one of root or flat")
        self._root = root
        self._flat = flat

    @property
    def root(self) -> HistogramNode:
        """The pointer-based root node (built from the arrays on first access)."""
        if self._root is None:
            self._root = self._flat.fold(
                lambda low, high, count, children: HistogramNode(
                    Box(tuple(low), tuple(high)), count, children
                )
            )
        return self._root

    def flat(self) -> "FlatHistogram":
        """The compiled array-backed synopsis (built once, then cached)."""
        if self._flat is None:
            from .flat import FlatHistogram

            self._flat = FlatHistogram.from_tree(self)
        return self._flat

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return self.flat().size

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return self.flat().leaf_count

    @property
    def height(self) -> int:
        """Number of levels minus one (root-only tree has height 0)."""
        return self.flat().height

    @property
    def total_count(self) -> float:
        """The (noisy) total number of points."""
        return self.flat().total_count

    @property
    def domain(self) -> Box:
        """The root box: the released domain Ω."""
        flat = self.flat()
        return Box.from_arrays(flat.lows[0], flat.highs[0])

    def range_count(self, query: Box) -> float:
        """Answer a range-count query via the §2.2 traversal.

        This is the reference pointer-chasing implementation;
        :meth:`flat` answers the same queries from contiguous arrays
        (``tree.flat().range_count(q)``) and should be preferred on hot
        paths, especially for whole workloads via ``range_count_many``.
        """
        answer = 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(query):
                continue
            if query.contains_box(node.box):
                answer += node.count
            elif node.is_leaf:
                answer += node.count * node.box.overlap_fraction(query)
            else:
                stack.extend(node.children)
        return answer

    def range_count_many(self, queries) -> "np.ndarray":
        """Answer a whole workload via the flat engine (see :mod:`.flat`)."""
        return self.flat().range_count_many(queries)

    def leaf_boxes(self) -> list[Box]:
        """The sub-domains of all leaves (the decomposition's cells), DFS order."""
        flat = self.flat()
        lows, highs = flat.lows[flat.is_leaf].tolist(), flat.highs[flat.is_leaf].tolist()
        return [Box._trusted(tuple(low), tuple(high)) for low, high in zip(lows, highs)]

    def to_grid(self, shape: tuple[int, ...]) -> "np.ndarray":
        """Rasterize the synopsis onto a regular grid of the given shape.

        Each cell receives every overlapping leaf's count weighted by the
        overlapped volume fraction (the same uniformity assumption as
        :meth:`range_count`), so the raster's total equals the tree's total.
        Useful for handing the release to grid-based downstream tools.
        """
        import numpy as np

        domain = self.domain
        if len(shape) != domain.ndim:
            raise ValueError(
                f"shape has {len(shape)} axes but the tree is {domain.ndim}-d"
            )
        if any(s < 1 for s in shape):
            raise ValueError(f"grid shape {shape} has an empty axis")
        grid = np.zeros(shape)
        edges = [
            np.linspace(domain.low[d], domain.high[d], shape[d] + 1)
            for d in range(domain.ndim)
        ]
        flat = self.flat()
        leaf = flat.is_leaf
        lows, highs = flat.lows[leaf].tolist(), flat.highs[leaf].tolist()
        for low, high, count in zip(lows, highs, flat.counts[leaf].tolist()):
            slices, weights = [], []
            for d in range(domain.ndim):
                lo, hi = low[d], high[d]
                first = max(int(np.searchsorted(edges[d], lo, side="right")) - 1, 0)
                last = min(int(np.searchsorted(edges[d], hi, side="left")), shape[d])
                if last <= first:
                    slices = []
                    break
                cell_lo = edges[d][first:last]
                cell_hi = edges[d][first + 1 : last + 1]
                overlap = np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)
                weights.append(overlap / (hi - lo))
                slices.append(slice(first, last))
            if not slices:
                continue
            block = weights[0]
            for w in weights[1:]:
                block = np.multiply.outer(block, w)
            grid[tuple(slices)] += count * block
        return grid
