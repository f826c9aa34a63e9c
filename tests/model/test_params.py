"""Tests for the cache-fitting parameters λ, µ, α, β."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ParameterError
from repro.model.params import (
    alpha_max,
    beta_for_alpha,
    lambda_param,
    max_square_param,
    mu_param,
)


class TestMaxSquareParam:
    @pytest.mark.parametrize(
        "capacity,expected",
        [
            (3, 1),  # 1+1+1 = 3
            (6, 1),
            (7, 2),  # 1+2+4 = 7
            (12, 2),
            (13, 3),  # 1+3+9 = 13
            (21, 4),  # the paper's CD=21 -> mu=4
            (977, 30),  # the paper's CS=977 -> lambda=30
            (245, 15),
            (157, 12),
            (16, 3),
            (4, 1),
        ],
    )
    def test_known_values(self, capacity, expected):
        assert max_square_param(capacity) == expected

    def test_too_small_raises(self):
        with pytest.raises(ParameterError):
            max_square_param(2)

    @given(st.integers(min_value=3, max_value=10**7))
    def test_defining_property(self, capacity):
        x = max_square_param(capacity)
        assert 1 + x + x * x <= capacity
        assert 1 + (x + 1) + (x + 1) ** 2 > capacity

    def test_aliases(self):
        assert lambda_param(977) == 30
        assert mu_param(21) == 4


class TestBetaAlpha:
    def test_beta_for_alpha_paper_constraint(self):
        # alpha^2 + 2*alpha*beta <= CS must hold for the returned beta
        cs = 977
        for alpha in (2, 8, 16, 30):
            beta = beta_for_alpha(cs, alpha)
            assert alpha * alpha + 2 * alpha * beta <= cs
            # and beta is maximal
            assert alpha * alpha + 2 * alpha * (beta + 1) > cs or beta >= 1

    def test_beta_clamps_to_one(self):
        # alpha so large that no slab fits: beta floors at 1
        assert beta_for_alpha(10, 3) == 1

    def test_beta_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            beta_for_alpha(100, 0)

    def test_alpha_max(self):
        # alpha_max^2 + 2*alpha_max = CS exactly at the real root
        cs = 977
        am = alpha_max(cs)
        assert am * am + 2 * am == pytest.approx(cs)
