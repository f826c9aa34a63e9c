"""Tests for the algorithm registry."""

import importlib
import pkgutil

import pytest

import repro.algorithms
from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import (
    ALGORITHMS,
    BASELINES,
    MAXIMUM_REUSE,
    algorithm_names,
    get_algorithm,
)
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_six_algorithms(self):
        assert len(ALGORITHMS) == 6

    def test_names_match_classes(self):
        for name, cls in ALGORITHMS.items():
            assert cls.name == name
            assert issubclass(cls, MatmulAlgorithm)

    def test_families_partition_registry(self):
        assert set(MAXIMUM_REUSE) | set(BASELINES) == set(ALGORITHMS)
        assert not set(MAXIMUM_REUSE) & set(BASELINES)

    def test_get_algorithm(self):
        assert get_algorithm("tradeoff").label == "Tradeoff"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="valid names"):
            get_algorithm("strassen")

    def test_extras_resolvable(self):
        from repro.algorithms.registry import EXTRA_ALGORITHMS

        for name in EXTRA_ALGORITHMS:
            assert get_algorithm(name).name == name

    def test_algorithm_names_with_extras(self):
        from repro.algorithms.registry import algorithm_names

        assert "cannon" in algorithm_names(include_extras=True)
        assert "cannon" not in algorithm_names()

    def test_algorithm_names_order(self):
        names = algorithm_names()
        assert names[0] == "shared-opt"
        assert names[:3] == list(MAXIMUM_REUSE)

    def test_labels_unique(self):
        labels = [cls.label for cls in ALGORITHMS.values()]
        assert len(set(labels)) == len(labels)

    def test_every_schedule_class_is_registered(self):
        # An unregistered schedule is invisible to the CLI, the harness,
        # the tests and `repro-mmm check`.
        for info in pkgutil.iter_modules(repro.algorithms.__path__):
            importlib.import_module(f"repro.algorithms.{info.name}")
        schedules, stack = [], list(MatmulAlgorithm.__subclasses__())
        while stack:
            cls = stack.pop()
            stack += cls.__subclasses__()
            if cls.__module__.startswith("repro.algorithms.") and "name" in vars(cls):
                schedules.append(cls)
        registered = {n: get_algorithm(n) for n in algorithm_names(include_extras=True)}
        for cls in schedules:
            assert registered.get(cls.name) is cls, cls.__qualname__
        assert len(schedules) == len(registered)
