import math

import numpy as np
import pytest

from conftest import grid_points
from ratered.errors import ConfigError
from ratered.probability import (
    GridSpec,
    ProductPmf,
    binary_entropy,
    entropy_grid,
    product_entropy,
    reciprocal_steps,
)


class TestBinaryEntropy:
    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        # -(1/4 log2 1/4 + 3/4 log2 3/4) = 2 - (3/4) log2 3
        expected = 2.0 - 0.75 * math.log2(3.0)
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(0.0, 1.0, size=200):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            binary_entropy(-1e-9)
        with pytest.raises(ValueError):
            binary_entropy(1.0 + 1e-9)


class TestGridSpec:
    def test_from_delta(self):
        grid = GridSpec.from_delta(3, 0.05)
        assert grid.n_steps == 20
        assert grid.delta == pytest.approx(0.05, abs=1e-15)
        assert grid.shape == (21, 21, 21)
        assert grid.n_points == 9261

    def test_from_delta_rejects_non_reciprocal(self):
        with pytest.raises(ConfigError):
            GridSpec.from_delta(3, 0.3)
        with pytest.raises(ConfigError):
            GridSpec.from_delta(3, 0.0)

    def test_from_delta_messages(self):
        with pytest.raises(ConfigError,
                           match=r"^delta=0\.3 is not the reciprocal of an integer$"):
            GridSpec.from_delta(3, 0.3)
        with pytest.raises(ConfigError, match=r"^delta must lie in \(0, 1\], got 0\.0$"):
            GridSpec.from_delta(3, 0.0)

    def test_delta_one_is_corner_grid(self):
        grid = GridSpec.from_delta(2, 1.0)
        assert grid.shape == (2, 2)
        assert list(grid.axis_values()) == [0.0, 1.0]

    def test_rejects_single_source(self):
        with pytest.raises(ConfigError):
            GridSpec(m=1, n_steps=10)

    def test_axis_endpoints_exact(self):
        grid = GridSpec(m=2, n_steps=7)
        values = grid.axis_values()
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_pmf_at_and_bounds(self):
        grid = GridSpec(m=3, n_steps=4)
        pmf = grid.pmf_at((0, 2, 4))
        assert tuple(pmf) == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            grid.pmf_at((0, 2, 5))
        with pytest.raises(ValueError):
            grid.pmf_at((0, 2))

    def test_snap_nearest_and_clamped(self):
        grid = GridSpec(m=3, n_steps=10)
        assert grid.snap((0.5, 0.52, 0.48)) == (5, 5, 5)
        assert grid.snap((0.0, 1.0, 0.26)) == (0, 10, 3)


class TestProductPmf:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProductPmf((0.5, 1.5))
        with pytest.raises(ValueError):
            ProductPmf((-0.1, 0.5))

    def test_support_exact(self):
        pmf = ProductPmf((0.0, 1.0, 0.3))
        assert pmf.support(0) == (0,)
        assert pmf.support(1) == (1,)
        assert pmf.support(2) == (0, 1)

    def test_iteration_and_indexing(self):
        pmf = ProductPmf((0.1, 0.2))
        assert list(pmf) == [0.1, 0.2]
        assert pmf[1] == 0.2
        assert pmf.m == 2


def test_product_entropy_is_sum_of_marginals():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = tuple(rng.uniform(0, 1, size=4))
        expected = sum(binary_entropy(p) for p in params)
        assert product_entropy(ProductPmf(params)) == expected


def test_entropy_grid_matches_pointwise_bitwise():
    grid = GridSpec(m=3, n_steps=5)
    dense = entropy_grid(grid)
    for index, pmf in grid_points(grid):
        assert dense[index] == product_entropy(pmf)


def test_grid_points_row_major():
    grid = GridSpec(m=2, n_steps=1)
    indices = [index for index, _ in grid_points(grid)]
    assert indices == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_entropy_grid_peak_at_uniform():
    grid = GridSpec(m=3, n_steps=4)
    dense = entropy_grid(grid)
    assert dense[2, 2, 2] == 3.0
    assert np.max(dense) == 3.0
    assert dense[0, 0, 0] == 0.0


class TestReciprocalSteps:
    @pytest.mark.parametrize("step, n", [(1.0, 1), (0.5, 2), (0.1, 10), (0.02, 50),
                                         (1 / 3, 3)])
    def test_reciprocal_of_an_integer(self, step, n):
        assert reciprocal_steps(step, "low {}", "not {}") == n

    @pytest.mark.parametrize("step", [0.0, -0.5, 1.5, float("nan"), 0.3, 0.4])
    def test_rejects(self, step):
        with pytest.raises(ConfigError):
            reciprocal_steps(step, "low {}", "not {}")

    def test_messages_formatted_with_the_step(self):
        with pytest.raises(ConfigError, match=r"^low 2\.0$"):
            reciprocal_steps(2.0, "low {}", "not {}")
        with pytest.raises(ConfigError, match=r"^not 0\.3$"):
            reciprocal_steps(0.3, "low {}", "not {}")
