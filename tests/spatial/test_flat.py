"""Equivalence tests for the flat array-backed query engine.

The flat engine must answer exactly like the recursive §2.2 traversal (to
float round-off) on any released tree — including SimpleTree releases,
whose internal counts are NOT the sum of their children, which exercises
the maximal-covered-node logic rather than leaf-only shortcuts.
"""

import numpy as np
import pytest

from repro import from_spec
from repro.domains import Box
from repro.spatial import flat as flat_module
from repro.spatial import (
    FlatHistogram,
    HistogramNode,
    HistogramTree,
    SpatialDataset,
    flatten_tree,
    generate_workload,
)

BANDS = ["small", "medium", "large"]


def random_dataset(seed: int, n: int = 4000, d: int = 2) -> SpatialDataset:
    gen = np.random.default_rng(seed)
    mode = seed % 3
    if mode == 0:
        pts = gen.uniform(0, 1, size=(n, d)) * 0.999
    elif mode == 1:
        pts = np.clip(gen.normal(0.5, 0.12, size=(n, d)), 0, 0.999)
    else:
        centers = gen.uniform(0.1, 0.9, size=(4, d))
        pts = np.clip(
            centers[gen.integers(4, size=n)] + gen.normal(0, 0.03, size=(n, d)),
            0,
            0.999,
        )
    return SpatialDataset(pts, Box.unit(d))


def variable_fanout_tree() -> HistogramTree:
    """Root split in three along x; children split in two, five, or not at all."""
    def slabs(box: Box, k: int, axis: int) -> list[Box]:
        edges = np.linspace(box.low[axis], box.high[axis], k + 1)
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            low, high = list(box.low), list(box.high)
            low[axis], high[axis] = lo, hi
            out.append(Box(tuple(low), tuple(high)))
        return out

    left, middle, right = slabs(Box.unit(2), 3, 0)
    children = [
        HistogramNode(left, 30.0, [HistogramNode(b, 15.0) for b in slabs(left, 2, 1)]),
        HistogramNode(middle, 40.0, [HistogramNode(b, 8.0) for b in slabs(middle, 5, 1)]),
        HistogramNode(right, 30.0),
    ]
    return HistogramTree(root=HistogramNode(Box.unit(2), 100.0, children))


def random_trees():
    """Varied trees: PrivTree and SimpleTree, 2-d and 4-d, fixed and mixed fanout."""
    trees = []
    for seed in range(4):
        data = random_dataset(seed)
        trees.append(from_spec("privtree", epsilon=1.0).fit(data, rng=seed).tree)
        trees.append(
            from_spec(
                "simpletree", epsilon=1.0, height=5, theta=0.0
            ).fit(data, rng=seed).tree
        )
    data4 = random_dataset(5, n=2000, d=4)
    trees.append(from_spec("privtree", epsilon=1.0).fit(data4, rng=5).tree)
    one_axis = from_spec("privtree", epsilon=1.0, dims_per_split=1)
    trees.append(one_axis.fit(random_dataset(6), rng=6).tree)
    trees.append(variable_fanout_tree())
    return trees


class TestCompilation:
    def test_arrays_mirror_tree(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        flat = flatten_tree(tree)
        assert flat.size == tree.size
        assert flat.leaf_count == tree.leaf_count
        assert flat.total_count == tree.total_count
        assert flat.ndim == 2
        nodes = list(tree.root.iter_nodes())
        for i, node in enumerate(nodes):
            assert tuple(flat.lows[i]) == node.box.low
            assert tuple(flat.highs[i]) == node.box.high
            assert flat.counts[i] == node.count

    def test_topology_consistent(self):
        flat = flatten_tree(
            from_spec("privtree", epsilon=1.0).fit(random_dataset(1), rng=1).tree
        )
        assert flat.parents[0] == -1
        for i in range(flat.size):
            children = flat.child_index[
                flat.child_offsets[i] : flat.child_offsets[i + 1]
            ]
            for c in children:
                assert flat.parents[c] == i
        # Every non-root node appears exactly once as someone's child.
        assert sorted(flat.child_index) == list(range(1, flat.size))

    def test_to_tree_round_trip(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(2), rng=2).tree
        rebuilt = flatten_tree(tree).to_tree()
        assert rebuilt.size == tree.size
        originals = list(tree.root.iter_nodes())
        copies = list(rebuilt.root.iter_nodes())
        for a, b in zip(originals, copies):
            assert a.box == b.box
            assert a.count == b.count

    def test_cached_on_histogram_tree(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        assert tree.flat() is tree.flat()


class TestEquivalence:
    @pytest.mark.parametrize("band", BANDS)
    def test_flat_matches_recursive_on_randomized_trees(self, band):
        for i, tree in enumerate(random_trees()):
            flat = tree.flat()
            domain = tree.root.box
            queries = generate_workload(domain, band, 40, rng=100 + i)
            recursive = np.array([tree.range_count(q) for q in queries])
            batched = flat.range_count_many(queries)
            single = np.array([flat.range_count(q) for q in queries])
            scale = max(1.0, float(np.abs(recursive).max()))
            assert np.abs(batched - recursive).max() <= 1e-9 * scale
            assert np.abs(single - recursive).max() <= 1e-9 * scale

    def test_query_covering_whole_domain(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        whole = Box((-1.0, -1.0), (2.0, 2.0))
        assert tree.flat().range_count(whole) == pytest.approx(tree.total_count)

    def test_query_outside_domain(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        outside = Box((2.0, 2.0), (3.0, 3.0))
        assert tree.flat().range_count(outside) == 0.0

    def test_single_node_tree(self):
        tree = HistogramTree(root=HistogramNode(box=Box.unit(2), count=42.0))
        flat = flatten_tree(tree)
        assert flat.range_count(Box((0.0, 0.0), (0.5, 0.5))) == pytest.approx(10.5)
        assert flat.range_count(Box((-1.0, -1.0), (2.0, 2.0))) == pytest.approx(42.0)

    def test_non_sum_consistent_counts(self):
        # Internal counts unrelated to children: the traversal's
        # maximal-covered semantics must be preserved exactly.
        quadrants = Box.unit(2).bisect()
        children = [
            HistogramNode(box=b, count=c)
            for b, c in zip(quadrants, [1.0, 2.0, 3.0, 4.0])
        ]
        tree = HistogramTree(
            root=HistogramNode(box=Box.unit(2), count=999.0, children=children)
        )
        flat = flatten_tree(tree)
        whole = Box((-0.5, -0.5), (1.5, 1.5))
        # Whole-domain query hits the covered root: 999, not 1+2+3+4.
        assert flat.range_count(whole) == pytest.approx(999.0)
        assert tree.range_count(whole) == pytest.approx(999.0)
        half = Box((0.0, 0.0), (0.5, 1.0))
        assert flat.range_count(half) == pytest.approx(tree.range_count(half))


class TestBatchedSurface:
    def test_empty_workload(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        assert tree.flat().range_count_many([]).shape == (0,)

    def test_dimension_mismatch_raises(self):
        flat = flatten_tree(
            from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        )
        with pytest.raises(ValueError):
            flat.range_count(Box.unit(3))
        with pytest.raises(ValueError):
            flat.range_count_many([Box.unit(3)])

    def test_tree_range_count_many_delegates(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(3), rng=3).tree
        queries = generate_workload(tree.root.box, "medium", 10, rng=9)
        assert np.allclose(
            tree.range_count_many(queries),
            [tree.range_count(q) for q in queries],
        )


class TestBoundValidation:
    """Bounds must be finite with low < high, the invariant Box enforces."""

    @pytest.fixture
    def flat(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        return flatten_tree(tree)

    @pytest.mark.parametrize(
        "low, high",
        [
            ((0.6, 0.2), (0.4, 0.8)),
            ((0.2, 0.3), (0.4, 0.3)),
            ((np.nan, 0.2), (0.5, 0.5)),
            ((0.1, 0.1), (0.5, np.nan)),
            ((-np.inf, 0.2), (0.5, 0.5)),
            ((0.1, 0.1), (np.inf, 0.5)),
        ],
        ids=["inverted", "zero-width", "nan-low", "nan-high", "inf-low", "inf-high"],
    )
    def test_bad_bounds_raise_naming_the_query(self, flat, low, high):
        q_lows = np.array([(0.1, 0.1), low, (0.2, 0.2)])
        q_highs = np.array([(0.5, 0.5), high, (0.9, 0.9)])
        with pytest.raises(ValueError, match="query 1"):
            flat.range_count_arrays(q_lows, q_highs)

    def test_infinite_box_raises(self, flat):
        with pytest.raises(ValueError):
            flat.range_count(Box((-np.inf, -np.inf), (np.inf, np.inf)))


class TestTraversalPlan:
    @pytest.mark.parametrize("padded", [False, True])
    def test_child_table_lists_csr_children(self, padded):
        if padded:
            flat = flatten_tree(variable_fanout_tree())
        else:
            tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(1), rng=1).tree
            flat = flatten_tree(tree)
        plan = flat._plan
        assert plan.padded is padded
        for i in range(flat.size):
            children = flat.child_index[flat.child_offsets[i] : flat.child_offsets[i + 1]]
            if children.size:
                listed = plan.table[plan.row[i]]
                assert listed[listed >= 0].tolist() == children.tolist()
            else:
                assert plan.row[i] == -1

    def test_height_matches_pointer_depth(self):
        for tree in random_trees():
            depth, stack = 0, [(tree.root, 0)]
            while stack:
                node, level = stack.pop()
                depth = max(depth, level)
                stack.extend((child, level + 1) for child in node.children)
            assert tree.flat().height == depth

    def test_cached_arrays_are_shared_and_read_only(self):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(2), rng=2).tree
        flat = flatten_tree(tree)
        assert flat.is_leaf is flat.is_leaf
        assert flat.volumes is flat.volumes
        assert not flat.is_leaf.flags.writeable
        assert not flat.volumes.flags.writeable
        assert flat.volumes.tolist() == np.prod(flat.highs - flat.lows, axis=1).tolist()

    def test_answers_do_not_depend_on_the_block_size(self, monkeypatch):
        tree = from_spec("privtree", epsilon=1.0).fit(random_dataset(4), rng=4).tree
        flat = flatten_tree(tree)
        queries = [
            q for i, band in enumerate(BANDS)
            for q in generate_workload(flat.to_tree().domain, band, 100, rng=50 + i)
        ]
        whole = flat.range_count_many(queries)
        monkeypatch.setattr(flat_module, "BLOCK_QUERIES", 7)
        assert flat.range_count_many(queries).tobytes() == whole.tobytes()


class TestFlatHistogramIsFrozen:
    def test_dataclass_frozen(self):
        flat = flatten_tree(
            from_spec("privtree", epsilon=1.0).fit(random_dataset(0), rng=0).tree
        )
        with pytest.raises(AttributeError):
            flat.counts = np.zeros(1)
