"""The spatial node payload fed to the PrivTree / SimpleTree engines.

A :class:`SpatialNodeData` pairs a box with the points it contains.  Its
score is the point count — exactly the ``c(v)`` of the paper — and splitting
bisects the box and partitions the points among the children, so building a
tree never re-scans the full dataset.

The number of dimensions bisected per split controls the fanout β:

* ``dims_per_split = d``  →  β = 2^d (the quadtree/hexadecatree default);
* ``dims_per_split = i < d``  →  β = 2^i with dimensions rotated round-robin,
  the configuration of the Figure 8 fanout ablation.

Storage layout
--------------
All payloads of one decomposition share a single read-only coordinate array
plus one mutable permutation of row indices; a payload is just a
``[start, stop)`` window into that permutation, so ``score()`` is
``stop - start`` and nothing is ever copied.  :func:`partition_windows`
splits a whole level's windows in place with one vectorized pass; the
array-native engine of :mod:`repro.spatial.engine` shares it.
"""

from __future__ import annotations

import numpy as np

from ..domains.box import Box
from .dataset import SpatialDataset

__all__ = ["SpatialNodeData", "partition_windows", "resolve_dims_per_split"]


class SpatialNodeData:
    """Box + contained points + round-robin split cursor.

    ``points`` may be any ``(n, d)`` array; it is stored unmodified and
    shared (never copied) with every descendant produced by :meth:`split`.
    """

    __slots__ = (
        "box",
        "dims_per_split",
        "next_dim",
        "_coords",
        "_order",
        "_start",
        "_stop",
        "_children",
    )

    def __init__(
        self,
        box: Box,
        points: np.ndarray | None = None,
        dims_per_split: int | None = None,
        next_dim: int = 0,
        *,
        _coords: np.ndarray | None = None,
        _order: np.ndarray | None = None,
        _start: int = 0,
        _stop: int | None = None,
    ) -> None:
        self.box = box
        if dims_per_split is None:
            dims_per_split = box.ndim
        self.dims_per_split = dims_per_split
        self.next_dim = next_dim
        if _coords is None:
            pts = np.asarray(
                points if points is not None else np.empty((0, box.ndim)),
                dtype=float,
            )
            if pts.ndim != 2 or pts.shape[1] != box.ndim:
                raise ValueError(
                    f"points must have shape (n, {box.ndim}), got {pts.shape}"
                )
            _coords = pts
            _order = np.arange(pts.shape[0], dtype=np.intp)
            _start, _stop = 0, pts.shape[0]
        self._coords = _coords
        self._order = _order
        self._start = _start
        self._stop = self._coords.shape[0] if _stop is None else _stop
        self._children: list["SpatialNodeData"] | None = None

    @staticmethod
    def root(dataset: SpatialDataset, dims_per_split: int | None = None) -> "SpatialNodeData":
        """Payload covering the whole domain of ``dataset``."""
        return SpatialNodeData(
            box=dataset.domain,
            points=dataset.points,
            dims_per_split=resolve_dims_per_split(dataset.ndim, dims_per_split),
        )

    @property
    def points(self) -> np.ndarray:
        """The node's points, materialized as an ``(m, d)`` array."""
        return self._coords[self._order[self._start : self._stop]]

    @property
    def fanout(self) -> int:
        """β — the number of children each split produces."""
        return 2 ** self.dims_per_split

    def _split_dims(self) -> list[int]:
        d = self.box.ndim
        return [(self.next_dim + j) % d for j in range(self.dims_per_split)]

    def score(self) -> float:
        """The point count ``c(v)``."""
        return float(self._stop - self._start)

    def can_split(self) -> bool:
        """Splittable until float resolution makes a midpoint degenerate."""
        return self.box.can_bisect(self._split_dims())

    def split(self) -> list["SpatialNodeData"]:
        """Bisect the scheduled dimensions and partition the points.

        Children come back in the lexicographic order of
        :meth:`~repro.domains.box.Box.bisect` and partition this node's
        window of the shared permutation.  Splitting is memoized: the window
        is reordered in place, so recomputing the partition from a
        second call would scramble the slices handed to the first call's
        children.
        """
        if self._children is None:
            SpatialNodeData.split_many([self])
        return self._children

    @staticmethod
    def split_many(
        payloads: list["SpatialNodeData"],
    ) -> list[list["SpatialNodeData"]]:
        """Split every payload of one tree level in a single vectorized pass.

        The payloads of one level share a coordinate/permutation store and a
        round-robin cursor, so one :func:`partition_windows` call splits them
        all.  Falls back to node-by-node :meth:`split` when they do not (or
        were split already).

        Returns one child list per payload, in input order — element ``i`` is
        exactly ``payloads[i].split()``.
        """
        if not payloads:
            return []
        first = payloads[0]
        if any(
            p._coords is not first._coords
            or p._order is not first._order
            or p._children is not None
            or p.dims_per_split != first.dims_per_split
            or p.next_dim != first.next_dim
            for p in payloads
        ):
            return [p.split() for p in payloads]

        dims = first._split_dims()
        mids = [[(p.box.low[d] + p.box.high[d]) / 2.0 for d in dims] for p in payloads]
        starts = np.array([p._start for p in payloads], dtype=np.intp)
        stops = np.array([p._stop for p in payloads], dtype=np.intp)
        bounds = partition_windows(
            first._coords, first._order, starts, stops, dims, np.array(mids)
        ).tolist()
        next_dim = (first.next_dim + first.dims_per_split) % first.box.ndim
        for parent, edges in zip(payloads, bounds):
            parent._children = [
                SpatialNodeData(
                    box=child_box,
                    dims_per_split=parent.dims_per_split,
                    next_dim=next_dim,
                    _coords=parent._coords,
                    _order=parent._order,
                    _start=edges[j],
                    _stop=edges[j + 1],
                )
                for j, child_box in enumerate(parent.box.bisect(dims))
            ]
        return [p._children for p in payloads]


def resolve_dims_per_split(ndim: int, dims_per_split: int | None) -> int:
    """``dims_per_split`` validated for ``ndim`` dimensions (default: all)."""
    if dims_per_split is None:
        return ndim
    if not 1 <= dims_per_split <= ndim:
        raise ValueError(
            f"dims_per_split must be in [1, {ndim}], got {dims_per_split}"
        )
    return dims_per_split


def partition_windows(
    coords: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    dims: list[int],
    mids: np.ndarray,
) -> np.ndarray:
    """Stable-partition windows of ``order`` among their bisection children.

    Window ``i`` is ``order[starts[i]:stops[i]]``, a node's rows of
    ``coords``; it is split at ``mids[i]`` (one midpoint per dimension in
    ``dims``).  A point's child rank packs its per-dimension "at or above
    the midpoint" bits most-significant-first, which is
    :meth:`~repro.domains.box.Box.bisect`'s lexicographic child order (the
    half-open convention puts a point on the midpoint in the upper child).
    One stable sort by (window, child) reorders every window in place, so
    each child keeps its points in the parent's relative order and is again
    a contiguous slice.  Returns the ``(n, 2^k + 1)`` child boundaries.
    """
    sizes = stops - starts
    n, fanout = sizes.shape[0], 2 ** len(dims)
    window = np.repeat(np.arange(n, dtype=np.intp), sizes)
    positions = np.arange(window.shape[0], dtype=np.intp) + np.repeat(
        starts - (np.cumsum(sizes) - sizes), sizes
    )
    rows = order[positions]
    child = np.zeros(rows.shape[0], dtype=np.intp)
    for j, dim in enumerate(dims):
        child = (child << 1) | (coords[rows, dim] >= mids[window, j])
    key = window * fanout + child
    order[positions] = rows[np.argsort(key, kind="stable")]
    counts = np.bincount(key, minlength=n * fanout).reshape(n, fanout)
    bounds = np.empty((n, fanout + 1), dtype=np.intp)
    bounds[:, 0] = starts
    bounds[:, 1:] = starts[:, None] + np.cumsum(counts, axis=1)
    return bounds
