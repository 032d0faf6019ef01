"""Failure-injection and degenerate-input tests across the whole pipeline.

A release library must behave sensibly on empty data, single points, and
adversarial parameter corners — none of these should crash or hang.
"""

import numpy as np
import pytest

from repro import from_spec
from repro.baselines import ngram_model
from repro.domains import Box
from repro.sequence import Alphabet, SequenceDataset, private_pst
from repro.spatial import SpatialDataset


@pytest.fixture
def empty_2d() -> SpatialDataset:
    return SpatialDataset(np.zeros((0, 2)), Box.unit(2), name="empty")


@pytest.fixture
def single_point() -> SpatialDataset:
    return SpatialDataset(np.array([[0.5, 0.5]]), Box.unit(2), name="one")


class TestEmptySpatialData:
    def test_privtree(self, empty_2d):
        syn = from_spec("privtree", epsilon=1.0).fit(empty_2d, rng=0).tree
        assert syn.size >= 1
        assert isinstance(syn.range_count(Box.unit(2)), float)

    def test_ug(self, empty_2d):
        grid = from_spec("ug", epsilon=1.0).fit(empty_2d, rng=0).grid
        assert grid.n_cells == 1  # the granularity formula floors at 1

    def test_ag(self, empty_2d):
        ag = from_spec("ag", epsilon=1.0).fit(empty_2d, rng=0).synopsis
        assert isinstance(ag.range_count(Box.unit(2)), float)

    def test_hierarchy(self, empty_2d):
        hist = from_spec("hierarchy", epsilon=1.0).fit(empty_2d, rng=0)
        assert abs(hist.grid.counts.sum()) < 5_000  # pure noise

    def test_dawa(self, empty_2d):
        hist = from_spec("dawa", epsilon=1.0).fit(empty_2d, rng=0)
        assert len(hist.meta["boundaries"]) - 1 >= 1

    def test_privelet(self, empty_2d):
        hist = from_spec("privelet", epsilon=1.0).fit(empty_2d, rng=0)
        assert np.isfinite(hist.grid.counts).all()

    def test_kdtree(self, empty_2d):
        tree = from_spec("kdtree", epsilon=1.0, height=3).fit(empty_2d, rng=0).tree
        assert tree.height <= 2


class TestSinglePoint:
    def test_privtree_single_point(self, single_point):
        syn = from_spec("privtree", epsilon=1.0).fit(single_point, rng=0).tree
        assert syn.total_count == pytest.approx(1.0, abs=20.0)

    def test_all_grids_single_point(self, single_point):
        for name in ("ug", "ag", "dawa", "privelet"):
            release = from_spec(name, epsilon=1.0).fit(single_point, rng=0)
            assert np.isfinite(release.query(Box.unit(2)))


class TestDegenerateSequences:
    def test_private_pst_on_empty_dataset(self):
        data = SequenceDataset(alphabet=Alphabet.of_size(3), sequences=())
        pst = private_pst(data, epsilon=1.0, l_top=5, rng=0)
        assert pst.size >= 1
        assert pst.string_frequency((0,)) >= 0.0

    def test_private_pst_on_empty_sequences(self):
        data = SequenceDataset(
            alphabet=Alphabet.of_size(2),
            sequences=(np.array([], dtype=np.int64),) * 5,
        )
        pst = private_pst(data, epsilon=1.0, l_top=5, rng=0)
        # Only the end markers exist; sampling must terminate.
        seq = pst.sample_sequence(rng=1, max_length=10)
        assert len(seq) <= 10

    def test_ngram_on_empty_dataset(self):
        data = SequenceDataset(alphabet=Alphabet.of_size(3), sequences=())
        model = ngram_model(data, epsilon=1.0, l_top=5, rng=0)
        assert model.string_frequency((0,)) >= 0.0
        assert len(model.sample_sequence(rng=1)) <= 5

    def test_pst_sampling_always_terminates(self):
        # A model whose histograms never emit & must still stop at the cap.
        data = SequenceDataset.from_symbols(
            Alphabet(("A",)), [["A"] * 30 for _ in range(50)]
        )
        pst = private_pst(data, epsilon=5.0, l_top=10, rng=0)
        seq = pst.sample_sequence(rng=2, max_length=25)
        assert len(seq) <= 25


class TestAdversarialQueries:
    def test_query_outside_domain(self, single_point):
        syn = from_spec("privtree", epsilon=1.0).fit(single_point, rng=0).tree
        outside = Box((5.0, 5.0), (6.0, 6.0))
        assert syn.range_count(outside) == 0.0

    def test_sliver_query(self, uniform_2d):
        syn = from_spec("privtree", epsilon=1.0).fit(uniform_2d, rng=0).tree
        sliver = Box((0.5, 0.0), (0.5 + 1e-12, 1.0))
        assert np.isfinite(syn.range_count(sliver))

    def test_negative_noisy_counts_still_answer(self, empty_2d):
        # Empty data + noise yields negative leaf counts; traversal must
        # propagate them (the release is unbiased, not clamped).
        syn = from_spec("privtree", epsilon=0.05).fit(empty_2d, rng=3).tree
        assert np.isfinite(syn.range_count(Box((0.1, 0.1), (0.4, 0.4))))
