"""Tests for the exception hierarchy contract."""

import pytest

from repro.exceptions import (
    ConfigurationError,
    ParameterError,
    ReproError,
    ScheduleError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigurationError, ScheduleError, ParameterError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_config_and_parameter_are_value_errors(self):
        """Callers using plain ``except ValueError`` still catch
        misconfiguration, matching stdlib conventions."""
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ParameterError, ValueError)

    def test_single_catch_all(self):
        with pytest.raises(ReproError):
            raise ScheduleError("short")

    def test_library_raises_only_repro_errors_for_bad_config(self):
        from repro.model.machine import MulticoreMachine

        with pytest.raises(ReproError):
            MulticoreMachine(p=0, cs=1, cd=1)
        from repro.model.params import max_square_param

        with pytest.raises(ReproError):
            max_square_param(1)
