"""Grids over product pmfs of independent binary sources, and entropies.

Every source j is Bernoulli(p_j) and the joint pmf is the product of the
marginals.  Grid abscissae are carried as integer indices i with p = i/N,
so the boundary values p = 0 and p = 1 are exact and support membership
(which drives zero-message computability) is decidable by exact comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError

GridIndex = tuple[int, ...]


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) source in bits, with 0*log2(0) = 0.

    Raises ValueError for p outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def reciprocal_steps(step: float, out_of_range: str, not_reciprocal: str) -> int:
    """N for a step that is 1/N up to a relative 1e-9; otherwise ConfigError
    with the matching message, formatted with the step."""
    if not 0.0 < step <= 1.0:
        raise ConfigError(out_of_range.format(step))
    n = round(1.0 / step)
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ConfigError(not_reciprocal.format(step))
    return n


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the set of product pmfs.

    The grid along each axis is {i/N : i = 0..N} with N = n_steps, so the
    step delta = 1/N is the reciprocal of an integer by construction.
    """

    m: int
    n_steps: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ConfigError(f"need at least 2 sources, got m={self.m}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")

    @classmethod
    def from_delta(cls, m: int, delta: float) -> "GridSpec":
        """Build a grid from a step size, which must be 1/N for integer N."""
        n = reciprocal_steps(delta, "delta must lie in (0, 1], got {!r}",
                             "delta={!r} is not the reciprocal of an integer")
        return cls(m=m, n_steps=n)

    @property
    def delta(self) -> float:
        return 1.0 / self.n_steps

    @property
    def points_per_axis(self) -> int:
        return self.n_steps + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_steps + 1,) * self.m

    @property
    def n_points(self) -> int:
        return (self.n_steps + 1) ** self.m

    def axis_values(self) -> np.ndarray:
        """The shared abscissa vector i/N, i = 0..N (exact at 0 and 1)."""
        return np.arange(self.n_steps + 1, dtype=np.float64) / self.n_steps

    def pmf_at(self, index: GridIndex) -> "ProductPmf":
        if len(index) != self.m:
            raise ValueError(f"index arity {len(index)} != m={self.m}")
        n = self.n_steps
        for i in index:
            if not 0 <= i <= n:
                raise ValueError(f"index {index} outside grid 0..{n}")
        return ProductPmf(tuple(i / n for i in index))

    def snap(self, params: tuple[float, ...]) -> GridIndex:
        """Nearest grid index to a pmf parameter vector."""
        if len(params) != self.m:
            raise ValueError(f"point arity {len(params)} != m={self.m}")
        n = self.n_steps
        return tuple(min(n, max(0, round(p * n))) for p in params)


@dataclass(frozen=True)
class ProductPmf:
    """Product of m Bernoulli marginals; params[j] = P(X_j = 1)."""

    params: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        for p in self.params:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"marginal parameter out of range: {p!r}")

    @property
    def m(self) -> int:
        return len(self.params)

    def __iter__(self) -> Iterator[float]:
        return iter(self.params)

    def __getitem__(self, j: int) -> float:
        return self.params[j]

    def support(self, j: int) -> tuple[int, ...]:
        """Support of marginal j, decided by exact comparison with 0 and 1."""
        p = self.params[j]
        if p == 0.0:
            return (0,)
        if p == 1.0:
            return (1,)
        return (0, 1)


def product_entropy(pmf: ProductPmf) -> float:
    """Joint entropy in bits; sums marginal entropies (sources independent)."""
    return sum(binary_entropy(p) for p in pmf)


def entropy_grid(grid: GridSpec) -> np.ndarray:
    """Dense array of product entropies over the whole grid.

    Bit-identical to evaluating product_entropy point by point: the same
    per-axis h2 values are summed in the same axis order.
    """
    h = np.array([binary_entropy(v) for v in grid.axis_values()])
    total = np.zeros(grid.shape)
    for ax in range(grid.m):
        shape = [1] * grid.m
        shape[ax] = grid.points_per_axis
        total = total + h.reshape(shape)
    return total
