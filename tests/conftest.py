"""Shared fixtures: deterministic RNGs and small spatial datasets.

The per-test timeout fallback lives in the repo-root ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import SpatialDataset


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20160601)  # SIGMOD'16


@pytest.fixture
def uniform_2d() -> SpatialDataset:
    """5 000 points uniform on the unit square."""
    gen = np.random.default_rng(7)
    pts = gen.uniform(0.0, 1.0, size=(5_000, 2)) * 0.999999
    return SpatialDataset(pts, Box.unit(2), name="uniform2d")


@pytest.fixture
def clustered_2d() -> SpatialDataset:
    """A skewed dataset: one tight cluster plus sparse background."""
    gen = np.random.default_rng(11)
    cluster = gen.normal(loc=(0.25, 0.25), scale=0.02, size=(4_000, 2))
    background = gen.uniform(0.0, 1.0, size=(500, 2))
    pts = np.clip(np.vstack([cluster, background]), 0.0, 0.999999)
    return SpatialDataset(pts, Box.unit(2), name="clustered2d")
