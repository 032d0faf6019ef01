"""Tests for crash-safe checkpointing and bit-identical resume."""

import json

import numpy as np
import pytest

from repro.federated import (
    FaultInjector,
    FaultPlan,
    FederatedPrivTree,
    FitCheckpoint,
    InjectedCoordinatorCrash,
    ShardCollector,
    replay_splits,
    shard_dataset,
)
from repro.federated.checkpoint import restore_rng, rng_state
from repro.federated.errors import CheckpointError
from repro.mechanisms import PrivacyAccountant
from repro.spatial import SpatialDataset
from repro.spatial.serialize import tree_to_dict

N_SHARDS = 3


@pytest.fixture(scope="module")
def small_2d():
    gen = np.random.default_rng(11)
    return SpatialDataset.from_points(gen.uniform(0.0, 100.0, size=(1200, 2)))


# The coordinator can crash at every counts round of the small fit: one per
# level (rounds 0, 2, ..., 20) plus the leaf round (22).  Each is the crash
# window right before a commit.
CRASH_ROUNDS = list(range(0, 23, 2))


def _collectors(dataset):
    return [
        ShardCollector(i, N_SHARDS, shard)
        for i, shard in enumerate(shard_dataset(dataset, N_SHARDS))
    ]


def _fit(dataset, **kwargs):
    return FederatedPrivTree(_collectors(dataset)).fit_histogram(
        1.0, rng=5, **kwargs
    )


class TestRngState:
    def test_roundtrip_resumes_the_stream(self):
        gen = np.random.default_rng(7)
        gen.standard_normal(100)
        state = json.loads(json.dumps(rng_state(gen)))  # survives JSON
        resumed = restore_rng(state)
        assert np.array_equal(gen.standard_normal(50), resumed.standard_normal(50))

    def test_unknown_bit_generator_is_typed(self):
        with pytest.raises(CheckpointError, match="bit generator"):
            restore_rng({"name": "NotAGenerator", "state": {}})


class TestFitCheckpoint:
    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            FitCheckpoint(tmp_path / "absent.json").load()

    def test_garbage_file_is_typed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            FitCheckpoint(path).load()

    def test_wrong_format_is_typed(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something.else", "version": 1}))
        with pytest.raises(CheckpointError, match="not a federated fit"):
            FitCheckpoint(path).load()

    def test_save_refuses_incomplete_state(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing keys"):
            FitCheckpoint(tmp_path / "x.json").save({"phase": "grow"})


class TestCheckpointedFit:
    def test_checkpointing_does_not_change_the_release(self, small_2d, tmp_path):
        plain = _fit(small_2d)
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        checked = _fit(small_2d, checkpoint=checkpoint)
        assert tree_to_dict(checked) == tree_to_dict(plain)
        state = checkpoint.load()
        assert state["phase"] == "done"
        assert [label for label, _ in state["ledger"]] == [
            "privtree/tree structure",
            "privtree/leaf counts",
        ]

    def test_round_log_commits_each_round_once(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        _fit(small_2d, checkpoint=checkpoint)
        rounds = [entry["round"] for entry in checkpoint.load()["round_log"]]
        assert rounds == sorted(rounds)
        assert len(rounds) == len(set(rounds))

    def test_crash_rounds_cover_every_committed_round(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        _fit(small_2d, checkpoint=checkpoint)
        counts_rounds = [
            entry["round"]
            for entry in checkpoint.load()["round_log"]
            if entry["kind"] == "counts"
        ]
        assert counts_rounds == CRASH_ROUNDS

    @pytest.mark.parametrize("crash_round", CRASH_ROUNDS)
    def test_crash_resume_is_bit_identical_with_one_spend(
        self, small_2d, tmp_path, crash_round
    ):
        plain = _fit(small_2d)
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(
            FaultPlan(crash_coordinator_at_round=crash_round), seed=0
        )
        first = PrivacyAccountant(1.0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(
                small_2d,
                checkpoint=checkpoint,
                accountant=first,
                fault_injector=crasher,
            )
        # the aborted coordinator's in-memory ledger rolled back ...
        assert first.ledger == []
        # ... but the committed spends survive in the checkpoint.
        state = checkpoint.load()
        assert len(state["ledger"]) == 2

        collectors = _collectors(small_2d)
        replay_splits(
            collectors, [[str(i) for i in r] for r in state["split_rounds"]]
        )
        resumed_accountant = PrivacyAccountant(1.0)
        resumed = FederatedPrivTree(collectors).fit_histogram(
            1.0,
            rng=5,
            checkpoint=checkpoint,
            accountant=resumed_accountant,
            resume=True,
        )
        assert tree_to_dict(resumed) == tree_to_dict(plain)
        assert [label for label, _ in resumed_accountant.ledger] == [
            "privtree/tree structure",
            "privtree/leaf counts",
        ]
        assert resumed_accountant.spent == pytest.approx(1.0, abs=1e-12)

    def test_resume_requires_a_checkpoint(self, small_2d):
        with pytest.raises(CheckpointError, match="requires a checkpoint"):
            _fit(small_2d, resume=True)

    def test_resume_of_a_finished_fit_is_refused(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        _fit(small_2d, checkpoint=checkpoint)
        with pytest.raises(CheckpointError, match="completed fit"):
            _fit(small_2d, checkpoint=checkpoint, resume=True)

    def test_resume_with_different_parameters_is_refused(
        self, small_2d, tmp_path
    ):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(FaultPlan(crash_coordinator_at_round=0), seed=0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(small_2d, checkpoint=checkpoint, fault_injector=crasher)
        with pytest.raises(CheckpointError, match="different"):
            FederatedPrivTree(_collectors(small_2d)).fit_histogram(
                2.0, rng=5, checkpoint=checkpoint, resume=True
            )


class TestTransactionalAccountant:
    def test_restore_replays_a_committed_ledger(self):
        accountant = PrivacyAccountant(1.0)
        accountant.restore([("a", 0.25), ("b", 0.5)])
        assert accountant.ledger == [("a", 0.25), ("b", 0.5)]
        assert accountant.remaining == pytest.approx(0.25)

    def test_restore_refuses_a_dirty_accountant(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend(0.1, "live")
        with pytest.raises(RuntimeError, match="fresh"):
            accountant.restore([("a", 0.25)])

    def test_restore_over_budget_rolls_back_entirely(self):
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(Exception):
            accountant.restore([("a", 0.8), ("b", 0.8)])
        assert accountant.ledger == []


class _CountingCollector(ShardCollector):
    """Records every protocol call, to prove a resume failed before any round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def blinded_counts(self, node_ids):
        self.calls.append("blinded_counts")
        return super().blinded_counts(node_ids)

    def apply_splits(self, node_ids):
        self.calls.append("apply_splits")
        super().apply_splits(node_ids)


class TestCorruptCheckpoint:
    """A checkpoint that contradicts itself fails typed, before any round."""

    @pytest.fixture()
    def crashed(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(FaultPlan(crash_coordinator_at_round=6), seed=0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(small_2d, checkpoint=checkpoint, fault_injector=crasher)
        return checkpoint

    def _resume(self, small_2d, checkpoint, edit):
        document = json.loads(checkpoint.path.read_text())
        edit(document)
        checkpoint.path.write_text(json.dumps(document))
        collectors = [
            _CountingCollector(i, N_SHARDS, shard)
            for i, shard in enumerate(shard_dataset(small_2d, N_SHARDS))
        ]
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(CheckpointError) as excinfo:
            FederatedPrivTree(collectors).fit_histogram(
                1.0, rng=5, checkpoint=checkpoint, accountant=accountant, resume=True
            )
        assert all(c.calls == [] for c in collectors)
        assert accountant.ledger == []
        return str(excinfo.value)

    def test_split_log_naming_an_unknown_node(self, small_2d, crashed):
        def edit(document):
            assert len(document["split_rounds"]) == 3
            document["split_rounds"][1].append("v1.7")

        assert "unknown node 'v1.7'" in self._resume(small_2d, crashed, edit)

    def test_split_log_naming_a_node_of_another_level(self, small_2d, crashed):
        def edit(document):
            document["split_rounds"][2].append("v1")

        assert "unknown node 'v1'" in self._resume(small_2d, crashed, edit)

    def test_frontier_disagreeing_with_the_replayed_split_log(
        self, small_2d, crashed
    ):
        def edit(document):
            document["level_ids"] = document["level_ids"][:-1]

        assert "disagrees with its replayed split log" in self._resume(
            small_2d, crashed, edit
        )

    def test_frontier_in_another_order(self, small_2d, crashed):
        def edit(document):
            document["level_ids"] = document["level_ids"][::-1]

        assert "disagrees" in self._resume(small_2d, crashed, edit)
