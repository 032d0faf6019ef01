"""Private spatial decompositions: PrivTree and SimpleTree end-to-end.

``from_spec("privtree").fit`` runs the full §3.3 + §3.4 pipeline:

1. spend ε·tree_fraction on the PrivTree structure (Algorithm 2);
2. spend the rest on Laplace-perturbed leaf counts (sensitivity 1: each point
   lies in exactly one leaf);
3. rebuild intermediate counts as sums of their leaves.

It runs on the array-native level engine of :mod:`repro.spatial.engine`,
which writes the released :class:`~repro.spatial.flat.FlatHistogram`
directly; the federated coordinator runs the same engine over aggregated
shard counts.  :func:`privtree_decomposition` keeps the generic
:func:`repro.core.privtree.privtree` engine, whose ``TreeNode`` payload tree
is the structural reference the array engine is tested against.

``from_spec("simpletree").fit`` is the Algorithm 1 baseline: the per-node noisy
counts it computed *are* the release (scale ``h/ε``).
"""

from __future__ import annotations

from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, privtree
from ..core.simpletree import simpletree_for_epsilon
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, ensure_rng
from .dataset import SpatialDataset
from .engine import LevelTree, WindowCounts, check_fit_options, fit_privtree
from .histogram_tree import HistogramNode, HistogramTree
from .payload import SpatialNodeData

__all__ = ["privtree_decomposition"]


def privtree_decomposition(
    dataset: SpatialDataset,
    epsilon: float,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
):
    """Run PrivTree on spatial data, spending all of ``epsilon`` on structure.

    Returns the internal decomposition tree (no counts released).  Useful
    when the caller wants the partition itself, e.g. for private k-means
    coarsening; most users want ``from_spec("privtree").fit`` instead.
    """
    root = SpatialNodeData.root(dataset, dims_per_split)
    params = PrivTreeParams.calibrate(epsilon, fanout=root.fanout, theta=theta)
    return privtree(root, params, rng=rng, max_depth=max_depth)


def _privtree_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    tree_fraction: float = 0.5,
    tuples_per_individual: int = 1,
    count_mechanism: str = "laplace",
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    accountant: PrivacyAccountant | None = None,
) -> HistogramTree:
    """The full ε-DP PrivTree synopsis of §3.3–§3.4.

    Parameters
    ----------
    dataset:
        The sensitive point set.
    epsilon:
        Total privacy budget; split ``tree_fraction`` / ``1 - tree_fraction``
        between structure and leaf counts (½/½ in the paper).
    dims_per_split:
        Dimensions bisected per split (fanout β = 2^dims_per_split); defaults
        to all dimensions — the standard quadtree setting.
    theta:
        Split threshold (0 per §3.4).
    tuples_per_individual:
        The §3.5 multi-leaf extension for user-level privacy: if one
        individual can contribute up to ``x`` points (e.g. trajectory
        check-ins), both the split scores and the leaf counts scale their
        noise by ``x``, protecting the individual's whole record.
    count_mechanism:
        ``"laplace"`` (the paper's choice) or ``"geometric"`` — the latter
        releases *integer* leaf counts via the two-sided geometric
        mechanism at the same ε.
    accountant:
        An external :class:`PrivacyAccountant` to debit (the §3.4 split is
        recorded as two ledger entries summing to ``epsilon``); a private
        one with budget ``epsilon`` is created when omitted.
    """
    check_fit_options(tree_fraction, tuples_per_individual, count_mechanism)
    gen = ensure_rng(rng)
    if accountant is None:
        accountant = PrivacyAccountant(epsilon)
    accountant.spend(tree_fraction * epsilon, "privtree/tree structure")
    accountant.spend((1.0 - tree_fraction) * epsilon, "privtree/leaf counts")
    flat = fit_privtree(
        LevelTree(dataset.domain, dims_per_split),
        WindowCounts(dataset.points),
        gen,
        epsilon=epsilon,
        tree_fraction=tree_fraction,
        theta=theta,
        tuples_per_individual=tuples_per_individual,
        count_mechanism=count_mechanism,
        max_depth=max_depth,
    )
    return flat.to_tree()


def _simpletree_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    height: int,
    theta: float,
    dims_per_split: int | None = None,
    rng: RngLike = None,
    accountant: PrivacyAccountant | None = None,
) -> HistogramTree:
    """The Algorithm 1 baseline synopsis with noise scale ``h/ε``."""
    if accountant is not None:
        accountant.spend(epsilon, "simpletree/node counts")
    root = SpatialNodeData.root(dataset, dims_per_split)
    tree = simpletree_for_epsilon(root, epsilon, theta=theta, height=height, rng=rng)
    released: dict[int, HistogramNode] = {}
    for node in reversed(tree.nodes()):
        released[id(node)] = HistogramNode(
            box=node.payload.box,
            count=float(node.noisy_score),
            children=[released[id(c)] for c in node.children],
        )
    return HistogramTree(root=released[id(tree.root)])
