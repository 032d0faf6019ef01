"""Tests for the method registry: resolution, construction, validation."""

import dataclasses

import pytest

from repro.api import Estimator, Release, from_spec, registry

from .conftest import FAST_PARAMS

ADVERTISED = [
    "privtree",
    "privtree_federated",
    "simpletree",
    "ug",
    "ag",
    "hierarchy",
    "dawa",
    "privelet",
    "kdtree",
    "ngram",
    "pst",
]


class TestNames:
    def test_every_advertised_name_registered(self):
        assert set(ADVERTISED) <= set(registry.names())

    def test_fast_params_cover_registry(self):
        # Every registered method must have a fast test configuration, so
        # the accounting/round-trip suites stay exhaustive as methods land.
        assert set(registry.names()) == set(FAST_PARAMS)

    def test_names_sorted(self):
        assert registry.names() == sorted(registry.names())

    @pytest.mark.parametrize("name", ADVERTISED)
    def test_get_returns_estimator(self, name):
        est = registry.get(name)
        assert isinstance(est, Estimator)
        assert est.name == name
        assert est.kind in ("spatial", "sequence")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="privtree"):
            registry.get("quadtree-deluxe")


class TestFromSpec:
    def test_configures_fields(self):
        est = from_spec("privtree", epsilon=0.25, theta=2.0)
        assert est.epsilon == 0.25
        assert est.theta == 2.0

    def test_rejects_unknown_params(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            from_spec("privtree", epsilon=1.0, bogus_knob=3)

    def test_rejection_names_valid_params(self):
        with pytest.raises(TypeError, match="tree_fraction"):
            from_spec("privtree", not_a_param=1)

    @pytest.mark.parametrize("name", ADVERTISED)
    def test_all_methods_constructible_with_defaults(self, name):
        est = from_spec(name)
        assert est.epsilon == 1.0

    def test_estimators_are_frozen(self):
        est = from_spec("ug", epsilon=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.epsilon = 2.0


class TestSpecs:
    def test_specs_describe_every_method(self):
        described = {spec["name"] for spec in registry.specs()}
        assert described == set(registry.names())

    def test_specs_expose_epsilon_default(self):
        for spec in registry.specs():
            assert spec["params"].get("epsilon") == 1.0


class TestFitProducesRelease:
    @pytest.mark.parametrize("name", ADVERTISED)
    def test_fit_returns_release(self, name, uniform_2d, sequence_data):
        kind, params = FAST_PARAMS[name]
        dataset = uniform_2d if kind == "spatial" else sequence_data
        release = from_spec(name, epsilon=1.0, **params).fit(dataset, rng=0)
        assert isinstance(release, Release)
        assert release.method == name
        assert release.epsilon_spent == 1.0
        assert release.size >= 1


class TestRetiredSurface:
    def test_compatibility_layer_is_gone(self):
        """The 1.3 free functions, parse_queries and _compat were removed in
        1.4.0; the registry and the typed wire are the only paths."""
        import importlib

        import repro
        import repro.baselines
        import repro.serve

        assert not hasattr(repro, "privtree_histogram")
        assert not hasattr(repro.baselines, "ug_histogram")
        assert not hasattr(repro.serve, "parse_queries")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro._compat")
