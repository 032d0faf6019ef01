"""Golden digests: spatial tree releases are pinned byte for byte.

Each case fits one registered estimator on a small seeded dataset and
pins the sha256 of the release's JSON document (which also fixes the
content-hash store id) and of its v2 binary artifact.  The digests were
recorded from the pointer-tree implementation that preceded the
array-native level engine; a change to either digest means a release
changed, not a refactor.
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
