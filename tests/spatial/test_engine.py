"""The array-native PrivTree level engine (``repro.spatial.engine``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import from_spec
from repro.core.node import TreeNode
from repro.datasets import gowallalike, roadlike
from repro.domains import Box
from repro.serve import ReleaseStore, write_artifact
from repro.spatial import FlatHistogram, HistogramNode, HistogramTree
from repro.spatial.engine import LevelTree
from repro.spatial.payload import partition_windows


@pytest.fixture()
def constructions(monkeypatch):
    """Counts every ``TreeNode`` and ``HistogramNode`` built while active."""
    built = {"TreeNode": 0, "HistogramNode": 0}
    for cls in (TreeNode, HistogramNode):
        original = cls.__init__

        def counting_init(self, *args, _original=original, _name=cls.__name__, **kw):
            built[_name] += 1
            _original(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


class TestNoPointerNodes:
    def test_fit_publish_and_artifact_build_no_pointer_node(
        self, constructions, tmp_path
    ):
        data = gowallalike(5000, rng=0)
        central = from_spec("privtree", epsilon=1.0).fit(data, rng=3)
        federated = from_spec("privtree_federated", n_shards=2).fit(data, rng=3)
        ReleaseStore(tmp_path / "store").put(central)
        write_artifact(federated, tmp_path / "federated.bin")
        assert central.size > 100
        assert constructions == {"TreeNode": 0, "HistogramNode": 0}

    def test_reading_root_builds_the_pointer_tree_once(self, constructions):
        release = from_spec("privtree", epsilon=1.0).fit(roadlike(2000, rng=0), rng=1)
        root = release.tree.root
        assert constructions["HistogramNode"] == release.size
        assert release.tree.root is root
        assert constructions["TreeNode"] == 0


class TestLevelTree:
    def test_arrays_are_the_pointer_compilation_of_the_same_tree(self):
        """Writing pre-order directly equals compiling the pointer tree."""
        release = from_spec("privtree", epsilon=1.0, dims_per_split=1).fit(
            roadlike(3000, rng=2), rng=4
        )
        flat = release.flat()
        recompiled = FlatHistogram.from_tree(HistogramTree(root=release.tree.root))
        for name in ("lows", "highs", "counts", "parents", "child_offsets", "child_index"):
            mine, theirs = getattr(flat, name), getattr(recompiled, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name

    def test_children_follow_box_bisect_order(self):
        tree = LevelTree(Box((0.0, 0.0, 0.0), (1.0, 2.0, 4.0)), dims_per_split=2)
        mids = tree.split(np.array([0]))
        expected = Box((0.0, 0.0, 0.0), (1.0, 2.0, 4.0)).bisect([0, 1])
        got = [Box.from_arrays(lo, hi) for lo, hi in zip(tree.lows[1], tree.highs[1])]
        assert got == expected
        assert mids.tolist() == [[0.5, 1.0]]
        # Round-robin: the next level bisects dims 2 and 0.
        assert tree.split_dims() == [2, 0]

    def test_leaves_come_in_dfs_order(self):
        tree = LevelTree(Box.unit(1))
        tree.split(np.array([0]))  # BFS 1, 2
        tree.split(np.array([0]))  # BFS 3, 4 under node 1
        # Pre-order: 0, 1, 3, 4, 2 -> leaves 3, 4, 2.
        assert tree.leaves().tolist() == [3, 4, 2]
        flat = tree.compile(np.array([1.0, 2.0, 4.0]))
        assert flat.counts.tolist() == [7.0, 3.0, 1.0, 2.0, 4.0]
        assert flat.parents.tolist() == [-1, 0, 1, 1, 0]


def test_partition_windows_is_stable_and_in_place():
    coords = np.array([[0.9], [0.1], [0.6], [0.2], [0.7], [0.4]])
    order = np.array([5, 0, 1, 2, 3, 4])
    # Window [1, 6) holds rows 0, 1, 2, 3, 4; split at 0.5.
    bounds = partition_windows(
        coords, order, np.array([1]), np.array([6]), [0], np.array([[0.5]])
    )
    assert bounds.tolist() == [[1, 3, 6]]
    assert order.tolist() == [5, 1, 3, 0, 2, 4]
