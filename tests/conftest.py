"""Shared oracles and generators for the test suite."""

import hypothesis
import numpy as np
import pytest

from speclaw import cli, qve

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("default")


def semicircle_stieltjes(z: complex) -> complex:
    """Closed form m(z) = (-z + sqrt(z^2 - 4))/2 on the branch with Im m > 0."""
    z = complex(z)
    root = np.sqrt(z * z - 4.0)
    m = (-z + root) / 2.0
    if m.imag < 0 or (m.imag == 0 and (m.real * z.real > 0 or abs(m.real) > 1)):
        m = (-z - root) / 2.0
    return complex(m)


def semicircle_density(x: float) -> float:
    return float(np.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * np.pi))


def semicircle_cdf_antiderivative(x: float) -> float:
    """Antiderivative of the semicircle density, zero at x = 0."""
    x = float(np.clip(x, -2.0, 2.0))
    return x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def semicircle_mass(lo: float, hi: float) -> float:
    return semicircle_cdf_antiderivative(hi) - semicircle_cdf_antiderivative(lo)


def on_workers(threads, campaign, *args):
    """campaign(*args, mapper) on the map of cli.workers(threads), BLAS pinned as the CLI runs it."""
    with cli.workers(threads) as mapper:
        return campaign(*args, mapper)


def random_profile(n: int, seed: int, low: float = 0.3, high: float = 1.0) -> qve.VarianceProfile:
    gen = np.random.default_rng(seed)
    a = gen.uniform(low, high, size=(n, n))
    a = (a + a.T) / 2.0
    return qve.VarianceProfile(n=n, entries=a)


def cold_mask(size: int) -> np.ndarray:
    """extract_density's cold subgrid: every _COARSE_STRIDE-th point and the last."""
    mask = np.arange(size) % qve._COARSE_STRIDE == 0
    mask[-1] = True
    return mask


def fine_starts(grid, coarse, g_coarse):
    """extract_density's start of each fine column, written out: the cubic Lagrange
    interpolant prod_{i != j} (x - x_i)/(x_j - x_i) through the two coarse neighbours
    on either side (the four nearest at the ends of the grid), or, where it leaves
    the upper half plane, the linear interpolation (1 - t) g_left + t g_right."""
    cold, x = np.flatnonzero(coarse), grid[~coarse]
    right = np.minimum(np.flatnonzero(~coarse) // qve._COARSE_STRIDE + 1, cold.size - 1)
    t = (x - grid[cold[right - 1]]) / (grid[cold[right]] - grid[cold[right - 1]])
    linear = g_coarse[:, right - 1] * (1.0 - t) + g_coarse[:, right] * t
    nodes = np.clip(right - 2, 0, cold.size - 4)[:, None] + np.arange(4)
    knots, cubic = grid[cold[nodes]], 0.0
    for j in range(4):
        num = den = 1.0
        for i in range(4):
            if i != j:
                num, den = num * (x - knots[:, i]), den * (knots[:, j] - knots[:, i])
        cubic = cubic + g_coarse[:, nodes[:, j]] * (num / den)
    return np.where((cubic.imag > 0).all(axis=0), cubic, linear)


def unfolded_solution(profile, grid, eta=qve.DEFAULT_ETA):
    """extract_density's continuation on a grid without the mirror fold, each phase one
    _solve_batch: the coarse subgrid from cold starts, then the rest from fine_starts of
    those solutions.  `profile` is the one extract_density solves, reduce_profile's."""
    coarse = cold_mask(grid.size)
    g = np.empty((profile.dim, grid.size), dtype=np.complex128)
    g[:, coarse] = qve._solve_batch(profile, grid[coarse] + 1j * eta)[0]
    g[:, ~coarse] = qve._solve_batch(profile, grid[~coarse] + 1j * eta,
                                     initial=fine_starts(grid, coarse, g[:, coarse]))[0]
    return g


@pytest.fixture(scope="session")
def constant_curve():
    """Density curve of the constant profile on the default grid (session cache)."""
    return qve.extract_density(qve.VarianceProfile.constant(4), qve.default_grid())
