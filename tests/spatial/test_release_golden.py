"""Golden digests: spatial tree releases are pinned byte for byte.

Each case fits one registered estimator on a small seeded dataset and
pins the sha256 of the release's JSON document (which also fixes the
content-hash store id) and of its v2 binary artifact.  The digests were
recorded from the pointer-tree implementation that preceded the
array-native level engine; a change to either digest means a release
changed, not a refactor.

The answer digests pin ``FlatHistogram.range_count_arrays`` the same
way: the sha256 of the float64 answer bytes over a seeded three-band
workload plus exact node boxes.  They were recorded from the unblocked
per-level traversal that preceded the blocked, column-wise one, so any
change to the visited pairs or to the per-query summation order shows.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro import from_spec
from repro.core.privtree import MaxDepthWarning
from repro.datasets import gowallalike, nyclike, roadlike
from repro.domains import Box
from repro.spatial.flat import FlatHistogram
from repro.spatial.histogram_tree import HistogramNode, HistogramTree
from repro.spatial.queries import generate_workload
from repro.serve import write_artifact
from repro.spatial import SpatialDataset, privtree_decomposition


def _tiny_domain() -> SpatialDataset:
    """A domain 16 ulps wide: splitting stops when ``can_bisect`` fails."""
    ulps = np.nextafter(1.0, 2.0) - 1.0
    gen = np.random.default_rng(3)
    steps = gen.integers(0, 16, size=(400, 2)).astype(float)
    domain = Box((1.0, 1.0), (1.0 + 16 * ulps, 1.0 + 16 * ulps))
    return SpatialDataset(points=1.0 + steps * ulps, domain=domain, name="tiny")


DATASETS = {
    "gowalla": lambda: gowallalike(4000, rng=0),
    "road": lambda: roadlike(3000, rng=1),
    "nyc4d": lambda: nyclike(3000, rng=2),
    "tiny": _tiny_domain,
}

# name -> (dataset, method, estimator options, fit seed, json sha256, artifact sha256)
CASES = {
    "privtree-default": (
        "gowalla",
        "privtree",
        {},
        7,
        "d8e5fd9cb976d9ca863fc80aaf2d9498b33030710126117fab617f23c4edf20b",
        "42be5111c47832248e17b06bca949f9381111e813409b749fd38167d1979676b",
    ),
    "privtree-dims1": (
        "road",
        "privtree",
        {"dims_per_split": 1},
        8,
        "2346213a24deec96a4d76708ea910530bbac26406c5c73de38a46e3095204534",
        "aece15fcc0191e9795e81d3c29986a361ff17881bf15dcced7a75cfa6633708b",
    ),
    "privtree-geometric-x3": (
        "gowalla",
        "privtree",
        {"count_mechanism": "geometric", "tuples_per_individual": 3},
        9,
        "06ce00b79cdb9196a040f0c6623b59c4044ab2c3bc9f81104de2a26d1d5e4ab3",
        "4f892cf17d318708aef296192b3b0fc12c8b33d3c3ae62c41139a780212ac3a7",
    ),
    "privtree-theta5": (
        "road",
        "privtree",
        {"theta": 5.0, "tree_fraction": 0.3},
        10,
        "3b4fd24a01fa7113f61afe0e5555bfdf740dcd3c6600abb45e19f1bab9410e15",
        "cafa5486313a281e5196c060065bb86ca8c112836e063d971a5d68d7b73080d3",
    ),
    "privtree-maxdepth4": (
        "gowalla",
        "privtree",
        {"max_depth": 4},
        11,
        "6db40bc89a38c3d048791d9ef9360ad7d428f68a76e4606f777ce5c732ccbf8a",
        "2e97b475509fd5056a2c807b54d077cb6aeeb411748cadc353403b30dbef3461",
    ),
    "privtree-4d": (
        "nyc4d",
        "privtree",
        {},
        12,
        "a17409627ec76179ae7527f2a2db944a0ab2d3bff006154d23465fe95e316add",
        "67d86083098de9bdb2ef6f46b7f250df28d4f2c336e47c4b62fad2c44d4982de",
    ),
    "privtree-tiny-domain": (
        "tiny",
        "privtree",
        {"epsilon": 4.0},
        13,
        "ef5df07f974b2c13d6ad3f15efa182bf8f3b7389a3419ec9e71f7ba7177c9285",
        "43fabee66f7515a7794addc53eed206120fe883116314cb109f766be237bfb18",
    ),
    "federated-2": (
        "gowalla",
        "privtree_federated",
        {"n_shards": 2},
        7,
        "ab19b02501898963de0e821da03e4e41611de5d0d53db528e137d3c7c20ce623",
        "180059998d5b1f8b361c88e041f1938e5414e95d0a52bd5941a3549aaf7a5be3",
    ),
    "federated-3": (
        "road",
        "privtree_federated",
        {"n_shards": 3},
        14,
        "bf44ad6b67fd8a3714afabe312fb0da15ea105b4e30dc9e17145d676cb1d28a5",
        "ccef750e85e4fb6e036013508e16b1216e8bffc1e1f61cc2b088ecbec824a163",
    ),
    "simpletree": (
        "road",
        "simpletree",
        {"height": 5},
        15,
        "ba61f29bc5d3fdf237fd3dbce305ff8262b971d108046432747815c51a1bd4c7",
        "908ab1fac47119ba96613f9db8ec90697eb658d6071a4551f3d8fbf2435055b8",
    ),
    "kdtree": (
        "gowalla",
        "kdtree",
        {"height": 6},
        16,
        "961855ea7009a568dccd57d2ff045c7d7e20aad930bf6cdcc145fbd71a07bda1",
        "14d28541c2b2320d7a0fbd9a10ab8dbcc750781ebe984cd594085072d5250492",
    ),
}


def _fit(case: str):
    dataset, method, options, seed, _, _ = CASES[case]
    return from_spec(method, **options).fit(DATASETS[dataset](), rng=seed)


def _digests(release, tmp_path) -> tuple[str, str]:
    document = json.dumps(release.to_json()).encode("utf-8")
    path = tmp_path / "release.bin"
    write_artifact(release, path)
    return (
        hashlib.sha256(document).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_release_bytes_are_pinned(case, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", MaxDepthWarning)
        if case == "privtree-maxdepth4":
            with pytest.warns(MaxDepthWarning):
                release = _fit(case)
        else:
            release = _fit(case)
    json_digest, artifact_digest = _digests(release, tmp_path)
    assert (json_digest, artifact_digest) == CASES[case][4:]


def test_tiny_domain_stops_at_float_resolution():
    release = _fit("privtree-tiny-domain")
    flat = release.flat()
    leaves = flat.is_leaf
    widths = flat.highs[leaves] - flat.lows[leaves]
    # Splitting reached leaves one ulp wide, which can_bisect refuses.
    assert release.height >= 3
    assert np.any(widths == np.nextafter(1.0, 2.0) - 1.0)


@pytest.mark.parametrize("options", [{}, {"dims_per_split": 1}, {"theta": 5.0}])
def test_leaf_boxes_match_the_generic_decomposition(options):
    """The array engine partitions space exactly like ``core.privtree``."""
    data = roadlike(3000, rng=4)
    epsilon, tree_fraction = 1.0, 0.5
    release = from_spec("privtree", epsilon=epsilon, **options).fit(data, rng=21)
    reference = privtree_decomposition(
        data,
        tree_fraction * epsilon,
        dims_per_split=options.get("dims_per_split"),
        theta=options.get("theta", 0.0),
        rng=21,
    )
    assert release.tree.leaf_boxes() == [
        leaf.payload.box for leaf in reference.leaves()
    ]
    assert release.size == reference.size
    assert release.height == reference.height


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------

# name -> sha256 of the float64 answer bytes over ``_golden_workload``.
ANSWER_DIGESTS = {
    # The federated fit is the centralized release under another method
    # name, so its answers equal privtree-default's.
    "federated-2": "db38f2886e39a01d17a18f786ae05776643b8a49c3637fd7b2cf1803f8845f55",
    "federated-3": "af411daad7ead6d83e3c771186008c0fa94360c17bc685a057d6c8ce20b62cc2",
    "kdtree": "855e3f01204369c39dfa2bc2e14c3909dad5cf8f7d1b8e5df3d79f6c15f1c82a",
    "privtree-4d": "facd444ba5734d555442430830804623fb057149b6bb077a67156f600006d536",
    "privtree-default": "db38f2886e39a01d17a18f786ae05776643b8a49c3637fd7b2cf1803f8845f55",
    "privtree-dims1": "d7ae4bdb0a686c29693d889faf31b3122705c96142aa9620e83ba1451b4aad9b",
    "privtree-geometric-x3": "d8a9fd45c503ee4656bff313b7b4c2f35baf7db972775aa00550431c4bb3cedf",
    "privtree-maxdepth4": "a9ae1346307dc17c1919419227b312a5a0295e79d695793e0dc9008ea331e8b2",
    "privtree-theta5": "efd835ffe9c521ff20d61126b87a8178359ce6e3d6e2c991485ff539c413a1af",
    "privtree-tiny-domain": "1bfefc7141c66c2371436b36e74528a10ee4662d2cf2a176dbd1f63d79859c6c",
    "simpletree": "a97eaa5545542f12e7aaef2381317f0a85daef4bc0514081bf6c77b5e4891da2",
}

# Digests of the two cases that are not registered fits: a hand-built
# tree whose fanout varies between nodes, and a batch several traversal
# blocks long.
VARIABLE_FANOUT_DIGEST = (
    "c823f133ae0e9b5c702e7d3058e8a63349444107a174cf4db397e2ac57f92a13"
)
MULTI_BLOCK_DIGEST = (
    "1ee1c61d2b487def73e6d7b6ff983da5231d8b58bca36a1e843e35db3ba99f20"
)


def _golden_workload(
    flat: FlatHistogram, per_band: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``per_band`` queries in each paper band plus 40 exact node boxes.

    Band queries are drawn on the unit cube and mapped onto the root box;
    an extent that rounds to zero (the 16-ulp domain) is widened to one
    ulp.  The node boxes share faces with their siblings and with their
    own descendants, so boundary ties are exercised alongside random boxes.
    """
    unit = Box.unit(flat.ndim)
    boxes = [
        box
        for offset, band in enumerate(("small", "medium", "large"))
        for box in generate_workload(unit, band, per_band, rng=seed + offset)
    ]
    origin, extent = flat.lows[0], flat.highs[0] - flat.lows[0]
    band_lows = origin + np.array([box.low for box in boxes]) * extent
    band_highs = origin + np.array([box.high for box in boxes]) * extent
    band_highs = np.maximum(band_highs, np.nextafter(band_lows, np.inf))
    picks = np.random.default_rng(seed).integers(0, flat.size, size=40)
    q_lows = np.vstack([band_lows, flat.lows[picks]])
    q_highs = np.vstack([band_highs, flat.highs[picks]])
    return q_lows, q_highs


def _answer_digest(flat: FlatHistogram, q_lows, q_highs) -> str:
    answers = np.asarray(flat.range_count_arrays(q_lows, q_highs), dtype=np.float64)
    assert answers.shape == (q_lows.shape[0],)
    return hashlib.sha256(answers.tobytes()).hexdigest()


def _variable_fanout_tree() -> HistogramTree:
    """A hand-built tree with fanouts 0, 2, 3 and 5 mixed across levels."""
    gen = np.random.default_rng(5)
    fanouts = [3, 2, 0, 5, 0, 2, 3, 0]

    def build(low, high, depth, slot):
        count = float(gen.normal(100.0 / (depth + 1), 7.0))
        fanout = fanouts[slot % len(fanouts)] if depth < 4 else 0
        axis = depth % len(low)
        children = []
        if fanout:
            edges = np.linspace(low[axis], high[axis], fanout + 1)
            for k in range(fanout):
                child_low, child_high = list(low), list(high)
                child_low[axis], child_high[axis] = edges[k], edges[k + 1]
                children.append(build(child_low, child_high, depth + 1, slot * 7 + k + 1))
        return HistogramNode(Box.from_arrays(low, high), count, children)

    return HistogramTree(root=build([0.0, 0.0], [1.0, 1.0], 0, 0))


@pytest.mark.parametrize("case", sorted(CASES))
def test_release_answers_are_pinned(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaxDepthWarning)
        flat = _fit(case).flat()
    q_lows, q_highs = _golden_workload(flat, per_band=200, seed=31)
    assert _answer_digest(flat, q_lows, q_highs) == ANSWER_DIGESTS[case]


def test_variable_fanout_answers_are_pinned():
    flat = FlatHistogram.from_tree(_variable_fanout_tree())
    fanouts = np.diff(flat.child_offsets)
    assert set(fanouts.tolist()) == {0, 2, 3, 5}
    q_lows, q_highs = _golden_workload(flat, per_band=200, seed=32)
    assert _answer_digest(flat, q_lows, q_highs) == VARIABLE_FANOUT_DIGEST


def test_multi_block_answers_are_pinned():
    flat = _fit("privtree-default").flat()
    q_lows, q_highs = _golden_workload(flat, per_band=1800, seed=33)
    assert q_lows.shape[0] > 2 * 2048
    assert _answer_digest(flat, q_lows, q_highs) == MULTI_BLOCK_DIGEST
    # Each query's answer depends on that query alone, however the batch
    # is cut.
    cut = 1000
    head = flat.range_count_arrays(q_lows[:cut], q_highs[:cut])
    tail = flat.range_count_arrays(q_lows[cut:], q_highs[cut:])
    whole = flat.range_count_arrays(q_lows, q_highs)
    assert np.concatenate([head, tail]).tobytes() == whole.tobytes()
