"""Tests for the alternative (geometric) count mechanism."""

import numpy as np
import pytest

from repro import from_spec


class TestGeometricCounts:
    def test_leaf_counts_are_integers(self, uniform_2d):
        syn = from_spec(
            "privtree", epsilon=1.0, count_mechanism="geometric"
        ).fit(uniform_2d, rng=0).tree
        leaves = [n for n in syn.root.iter_nodes() if n.is_leaf]
        for leaf in leaves:
            assert leaf.count == int(leaf.count)

    def test_total_count_near_n(self, uniform_2d):
        syn = from_spec(
            "privtree", epsilon=1.0, count_mechanism="geometric"
        ).fit(uniform_2d, rng=0).tree
        assert syn.total_count == pytest.approx(uniform_2d.n, rel=0.10)

    def test_comparable_accuracy_to_laplace(self, clustered_2d):
        from repro.spatial import average_relative_error, generate_workload

        queries = generate_workload(clustered_2d.domain, "medium", 40, rng=1)
        errs = {}
        for mech in ("laplace", "geometric"):
            errs[mech] = np.mean(
                [
                    average_relative_error(
                        from_spec(
                            "privtree", epsilon=0.8, count_mechanism=mech
                        ).fit(clustered_2d, rng=s).tree.range_count,
                        clustered_2d,
                        queries,
                    )
                    for s in range(4)
                ]
            )
        # The two mechanisms have near-identical utility at the same eps.
        assert errs["geometric"] < 2.0 * errs["laplace"]

    def test_user_level_scaling_applies(self, uniform_2d):
        def spread(x: int) -> float:
            totals = [
                from_spec(
                    "privtree",
                    epsilon=0.5,
                    count_mechanism="geometric",
                    tuples_per_individual=x,
                )
                .fit(uniform_2d, rng=s)
                .tree.total_count
                for s in range(20)
            ]
            return float(np.std(totals))

        assert spread(10) > 2.5 * spread(1)

    def test_unknown_mechanism_rejected(self, uniform_2d):
        with pytest.raises(ValueError):
            from_spec(
                "privtree", epsilon=1.0, count_mechanism="gaussian"
            ).fit(uniform_2d)
