import functools
import json
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cold_mask, fine_starts, random_profile, semicircle_density, semicircle_mass, semicircle_stieltjes,
                      unfolded_solution)
from speclaw import ensembles, qve, spectra, verify
from speclaw.errors import InvalidProfile, InvalidSpec, NonConvergence, OutOfRange, read_json

CONST8 = qve.VarianceProfile.constant(8)


# ---------------------------------------------------------------------------
# solve_qve


def test_constant_profile_matches_semicircle_at_2i():
    sol = qve.solve_qve(CONST8, complex(0.0, 2.0))
    expected = 1j * (np.sqrt(2.0) - 1.0)
    assert np.allclose(sol.g, expected, atol=1e-9)
    assert abs(sol.m - expected) < 1e-9


def test_dominant_z_asymptotics():
    z = 1e6j
    sol = qve.solve_qve(CONST8, complex(0.0, 1e6))
    assert abs(sol.m - (-1.0 / z)) < 1e-16
    assert np.all(np.abs(sol.g - (-1.0 / z)) < 1e-16)


def test_symmetric_block_profile_collapses_to_constant():
    block = qve.BlockProfile(d=2, weights=np.array([0.5, 0.5]), coeffs=np.ones((2, 2)))
    sol = qve.solve_qve(block, complex(0.0, 2.0))
    expected = 1j * (np.sqrt(2.0) - 1.0)
    assert abs(sol.g[0] - expected) < 1e-9
    assert abs(sol.g[1] - sol.g[0]) < 1e-12


def test_residual_is_true_defect_by_substitution():
    profile = random_profile(8, seed=1, low=0.5, high=1.0)
    point = complex(0.3, 0.05)
    sol = qve.solve_qve(profile, point)
    sg = profile.entries @ sol.g / profile.n
    defect = np.abs(1.0 / sol.g + point + sg).max()
    assert defect <= 1e-10
    assert defect == pytest.approx(sol.residual, abs=1e-14)


def test_solution_invariants_on_closed_form_grid():
    for x in np.linspace(-3, 3, 10):
        for eta in np.geomspace(1e-4, 1.0, 5):
            sol = qve.solve_qve(CONST8, complex(float(x), float(eta)))
            assert abs(sol.m - semicircle_stieltjes(complex(x, eta))) < 1e-8
            assert np.all(sol.g.imag > 0)
            assert np.all(np.abs(sol.g) <= 1.0 / eta)


def test_nonconvergence_reports_offending_point(monkeypatch):
    monkeypatch.setattr(qve, "_MAX_ITER", 5)
    with pytest.raises(NonConvergence) as err:
        qve.solve_qve(CONST8, complex(2.0, 1e-9))
    assert err.value.eta == 1e-9


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    low = draw(st.floats(min_value=0.05, max_value=0.5))
    return random_profile(n, seed=seed, low=low, high=1.0)


@st.composite
def points(draw):
    x = draw(st.floats(min_value=-4.0, max_value=4.0))
    eta = draw(st.floats(min_value=1e-3, max_value=10.0))
    return complex(x, eta)


@given(profile=profiles(), point=points())
def test_qve_invariants_hold_for_random_profiles(profile, point):
    sol = qve.solve_qve(profile, point)
    assert np.all(sol.g.imag > 0)
    assert np.all(np.abs(sol.g) <= 1.0 / point.imag + 1e-12)
    assert sol.residual <= 1e-10
    assert sol.m == pytest.approx(complex(sol.g.mean()))


@given(
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
    x=st.floats(min_value=-3.0, max_value=3.0),
    eta=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=20)
def test_block_and_full_solutions_agree(d, seed, x, eta):
    gen = np.random.default_rng(seed)
    sizes = gen.integers(1, 5, size=d)
    n = 8 * int(sizes.sum())
    coeffs = gen.uniform(0.2, 1.0, size=(d, d))
    coeffs = (coeffs + coeffs.T) / 2.0
    block = qve.BlockProfile(d=d, weights=8 * sizes / n, coeffs=coeffs)
    full = qve.expand_block_profile(block, n)
    point = complex(x, eta)
    m_block = qve.solve_qve(block, point, tol=1e-12).m
    m_full = qve.solve_qve(full, point, tol=1e-12).m
    assert abs(m_block - m_full) < 1e-9


# ---------------------------------------------------------------------------
# continuation


def test_continuation_reaches_the_real_axis_limit():
    sol = qve.solve_qve(CONST8, complex(0.0, 1e-6))
    assert abs(sol.m - 1j) < 1e-5


def test_single_step_continuation_equals_direct_solve():
    # the cold solve starts from -1/(x + i) and the direct one from -1/z: both reach
    # the one fixed point in the upper half plane
    point = complex(0.7, 0.3)
    zs = np.array([point])
    cont = qve.solve_qve(CONST8, point, tol=1e-13)
    direct, _, _ = qve._solve_batch(CONST8, zs, tol=1e-13, initial=np.full((8, 1), -1.0 / point))
    assert np.allclose(direct[:, 0], cont.g, atol=1e-12)
    _, _, iterations = qve._solve_batch(CONST8, zs, tol=1e-13, initial=cont.g[:, None])
    assert iterations[0] == 0


# d = 1, the two-class block of a 2-block SBM and an irreducible n = 200 profile
_ONE_PASS_PROFILES = {
    "d1": lambda: qve.BlockProfile(d=1, weights=np.ones(1), coeffs=np.ones((1, 1))),
    "sbm": lambda: ensembles.effective_profile(
        ensembles.SbmSpec(d=2, sizes=(1000, 1000), probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0)),
    "irreducible": lambda: _irreducible_profile(),
}


@pytest.mark.parametrize("eta, most", [(qve.DEFAULT_ETA, 25), (1e-12, 30)])
@pytest.mark.parametrize("kind", _ONE_PASS_PROFILES)
def test_cold_columns_solve_at_the_target_eta_in_one_pass(kind, eta, most):
    # for Im z > 0 the map's fixed point in the upper half plane is unique, so a cold
    # column iterates at its target eta from the start.  On the coarse subgrid and
    # the edges +-2 that takes at most 17, 11 and 16 map evaluations at DEFAULT_ETA
    # and 23, 11 and 16 at 1e-12, where a descent from eta = 1 took 49, 37 and 44,
    # and 71, 45 and 56
    profile, grid = _ONE_PASS_PROFILES[kind](), qve.default_grid()
    xs = np.append(grid[cold_mask(grid.size)], [-2.0, 2.0])
    _, residual, iterations = qve._solve_batch(profile, xs + 1j * eta)
    assert (residual <= qve.DEFAULT_TOL).all()
    assert iterations.max() <= most


# ---------------------------------------------------------------------------
# the batch sweep: compaction and the Gram ring, against batches of one


def _defect(profile, xs, eta, g):
    w = profile._weight_t.T
    return np.abs(1.0 / g + (xs + 1j * eta)[None, :] + w @ g).max(axis=0)


@st.composite
def irreducible_batches(draw):
    """An irreducible profile of dimension 1-64 and abscissas inside the bulk,
    at the edges +-2 and beyond them, in drawn order, so that columns converge
    on different sweeps and compaction moves rows about."""
    dim = draw(st.integers(min_value=1, max_value=64))
    profile = random_profile(dim, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
                             low=draw(st.floats(min_value=0.05, max_value=0.5)))
    inner = draw(st.lists(st.floats(min_value=-4.0, max_value=4.0), max_size=6))
    xs = draw(st.permutations([*inner, -2.0, 2.0, -2.5, 3.5]))
    eta = draw(st.floats(min_value=1e-3, max_value=1.0))
    return profile, np.array(xs), eta


@given(batch=irreducible_batches())
@settings(max_examples=60)
def test_batch_columns_match_batches_of_one(batch):
    profile, xs, eta = batch
    cold, residual, _ = qve._solve_batch(profile, xs + 1j * eta)
    warm_start = qve._solve_batch(profile, xs + 2j * eta)[0]  # the solution at twice eta
    warm, warm_residual, _ = qve._solve_batch(profile, xs + 1j * eta, initial=warm_start)
    for g, res, initial in ((cold, residual, None), (warm, warm_residual, warm_start)):
        assert np.all(res <= qve.DEFAULT_TOL)
        scale = np.abs(g).max(axis=0)
        assert np.all(_defect(profile, xs, eta, g) <= qve.DEFAULT_TOL + 1e-13 * (1.0 + scale))
        for j in range(xs.size):
            alone, _, _ = qve._solve_batch(profile, xs[j:j + 1] + 1j * eta,
                                           initial=None if initial is None else initial[:, j:j + 1])
            assert np.abs(g[:, j] - alone[:, 0]).max() <= 1e-12 * np.abs(alone).max()


def _failure(profile, xs, eta, **kwargs):
    with pytest.raises(NonConvergence) as err:
        qve._solve_batch(profile, xs + 1j * eta, **kwargs)
    e = err.value
    return e.x, e.eta, e.residual, e.iterations


def test_max_iter_failure_matches_the_column_alone(monkeypatch):
    # one eta stage from a warm start; _MAX_ITER leaves the slowest column short,
    # after the others have converged and been compacted away
    profile = random_profile(20, seed=11)
    xs, eta = np.array([2.0, 3.5, -0.4, 1.2, -2.7]), 1e-3
    start = qve._solve_batch(profile, xs + 1j)[0]
    _, _, iterations = qve._solve_batch(profile, xs + 1j * eta, initial=start)
    second, slowest = np.sort(iterations)[-2:]
    assert second < slowest
    monkeypatch.setattr(qve, "_MAX_ITER", int(second))
    j = int(np.argmax(iterations))
    alone = _failure(profile, xs[j:j + 1], eta, initial=start[:, j:j + 1])
    assert _failure(profile, xs, eta, initial=start) == alone
    assert alone[0] == xs[j] and alone[3] == second


def test_stall_matches_the_column_alone():
    # at x = 1e308 the imaginary part of -1/z underflows, so the defect sticks
    # near eta, far above tol and far below the rounding floor of |z|
    profile = random_profile(7, seed=5)
    xs, eta = np.array([0.5, 1e308, -1.5, 2.5]), 1.0
    alone = _failure(profile, xs[1:2], eta)
    assert _failure(profile, xs, eta) == alone
    assert alone[0] == 1e308 and alone[3] == qve._STALL_SWEEPS


def test_non_finite_defect_matches_the_column_alone():
    # the last column starts where z + W g has real and imaginary parts of 1e308:
    # its first defect is finite, but -1/(z + W g) rounds to 0, so the second is
    # not; the first two columns start at their solutions and converge at once
    profile, eta = qve.VarianceProfile.constant(3), 0.5
    xs = np.array([0.3, -0.7, 1.1])
    good, _, _ = qve._solve_batch(profile, xs[:2] + 1j * eta)
    start = np.concatenate([good, np.full((3, 1), 1e308 * (1 + 1j))], axis=1)
    alone = _failure(profile, xs[2:], eta, initial=start[:, 2:])
    assert _failure(profile, xs, eta, initial=start) == alone == (1.1, eta, np.inf, 1)


def test_tied_failures_name_the_lowest_column(monkeypatch):
    # x = +-2 on a constant profile mirror each other bit for bit, so their best
    # defects tie; once x = 0.3 converges, -2 moves into its row, ahead of 2
    profile, eta = qve.VarianceProfile.constant(3), 1e-3
    xs = np.array([0.3, 2.0, -2.0])
    start = qve._solve_batch(profile, xs + 1j)[0]
    _, _, iterations = qve._solve_batch(profile, xs + 1j * eta, initial=start)
    assert iterations[0] < iterations[1] == iterations[2]
    monkeypatch.setattr(qve, "_MAX_ITER", int(iterations[0]))
    assert _failure(profile, xs, eta, initial=start)[0] == 2.0


@pytest.mark.parametrize("profile", [qve.VarianceProfile.constant(5),
                                     qve.BlockProfile(d=2, weights=np.array([0.4, 0.6]),
                                                      coeffs=np.array([[1.0, 0.5], [0.5, 1.0]]))])
def test_stieltjes_batch_of_no_abscissas_is_empty(profile):
    m = qve.stieltjes_batch(profile, np.array([]))
    assert m.dtype == np.complex128 and m.shape == (0,)


@pytest.mark.parametrize("kind", _ONE_PASS_PROFILES)
def test_one_batch_over_mixed_eta_equals_the_per_eta_batches(kind):
    # a column's Im z enters only its own arithmetic, so the x-major batch of 20
    # abscissas at three etas, 60 points in two column blocks at dimension
    # >= _BLOCK_MIN_DIM, gives every point bit for bit what the batch of its eta gives
    profile = _ONE_PASS_PROFILES[kind]()
    xs, etas = np.linspace(-2.5, 2.5, 20), np.array([1e-3, 0.1, 1.0])
    assert kind != "irreducible" or (profile.dim >= qve._BLOCK_MIN_DIM and xs.size * etas.size > qve._BLOCK_COLUMNS)
    mixed = qve.stieltjes_batch(profile, (xs[:, None] + 1j * etas).ravel())
    per_eta = np.stack([qve.stieltjes_batch(profile, xs + 1j * eta) for eta in etas], axis=1)
    assert mixed.tobytes() == per_eta.ravel().tobytes()


_OFF_THE_HALF_PLANE = ([(0.5, eta, f"eta must be positive and finite, got {eta}")
                        for eta in (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf)]
                       + [(x, 0.1, f"x must be finite, got {x}") for x in (np.nan, np.inf, -np.inf)])


@pytest.mark.parametrize("x, eta, message", _OFF_THE_HALF_PLANE)
def test_points_off_the_upper_half_plane_are_rejected(x, eta, message):
    # one rule, errors.spectral_points, at every entry and for every point of a
    # batch, not only the first, without numpy floating-point warnings
    z, summary = complex(x, eta), spectra.SpectrumSummary(eigenvalues=np.array([-1.0, 1.0]))
    entries = [lambda: qve.solve_qve(CONST8, z),
               lambda: qve.stieltjes_batch(CONST8, [0.5 + 0.1j, z]),
               lambda: qve.density_batch(CONST8, np.array([0.0, x]), eta),
               lambda: qve.extract_density(CONST8, np.array([0.0, x]), eta),
               lambda: spectra.stieltjes_empirical(summary, np.array([0.5 + 0.1j, z])),
               lambda: spectra.schur_resolvent_check(np.eye(2), 0, z)]
    # a bad point in the second column block of a profile solved in blocks, at one and two workers
    zs = np.full(qve._BLOCK_COLUMNS + 10, 0.5 + 0.1j)
    zs[qve._BLOCK_COLUMNS + 5] = z
    wide = qve.VarianceProfile.constant(qve._BLOCK_MIN_DIM)
    with ThreadPoolExecutor(max_workers=2) as pool, warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in entries + [functools.partial(qve.stieltjes_batch, wide, zs, mapper) for mapper in (map, pool.map)]:
            with pytest.raises(InvalidSpec) as err:
                solve()
            assert str(err.value) == message


def test_outside_support_imaginary_part_vanishes():
    sol = qve.solve_qve(CONST8, complex(3.0, 1e-6))
    assert sol.m.imag <= 1e-4
    assert abs(sol.m - semicircle_stieltjes(complex(3.0, 1e-6))) < 1e-8


@pytest.mark.parametrize("x", [-2.0, 2.0])
@pytest.mark.parametrize("eta", [1e-6, 1e-8])
def test_support_edge_matches_semicircle(x, eta):
    # at the edge the stability operator degenerates: |m - m_sc| ~ residual / sqrt(eta)
    sol = qve.solve_qve(CONST8, complex(x, eta))
    assert sol.residual <= 1e-10
    assert np.all(sol.g.imag > 0)
    assert abs(sol.m - semicircle_stieltjes(complex(x, eta))) <= 1e-10 / np.sqrt(eta)


# ---------------------------------------------------------------------------
# density extraction


def test_density_at_center_matches_semicircle(constant_curve):
    mid = constant_curve.values[np.argmin(np.abs(constant_curve.grid))]
    assert abs(mid - 1.0 / np.pi) < 1e-4


def test_density_vanishes_outside_support(constant_curve):
    outside = constant_curve.values[np.abs(constant_curve.grid) > 2.05]
    assert outside.max() <= 1e-4


def test_density_is_even_for_constant_profile():
    grid = np.linspace(-2.5, 2.5, 101)
    curve = qve.extract_density(qve.VarianceProfile.constant(4), grid)
    assert np.allclose(curve.values, curve.values[::-1], atol=1e-8)


def test_density_mass_and_support_for_random_profiles():
    for seed in (1, 2):
        curve = qve.extract_density(random_profile(12, seed=seed), qve.default_grid())
        assert curve.mass() == pytest.approx(1.0, abs=1e-3)
        assert curve.values[np.abs(curve.grid) > 2.05].max() <= 1e-3


def test_density_matches_closed_form_pointwise(constant_curve):
    sel = np.abs(constant_curve.grid) <= 1.8
    exact = np.array([semicircle_density(x) for x in constant_curve.grid[sel]])
    assert np.abs(constant_curve.values[sel] - exact).max() < 1e-4


@given(d=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=10)
def test_block_density_has_unit_mass_and_matches_full_profile(d, seed):
    gen = np.random.default_rng(seed)
    sizes = gen.integers(1, 5, size=d)
    n = 2 * int(sizes.sum())
    coeffs = gen.uniform(0.2, 1.0, size=(d, d))
    coeffs = (coeffs + coeffs.T) / 2.0
    block = qve.BlockProfile(d=d, weights=2 * sizes / n, coeffs=coeffs)
    curve = qve.extract_density(block, qve.default_grid())
    assert curve.values.min() >= 0.0
    assert curve.mass() == pytest.approx(1.0, abs=1e-3)
    # the full n x n profile, solved unreduced at the same eta = 1e-6
    full = qve.density_batch(qve.expand_block_profile(block, n), curve.grid, curve.eta_used)
    assert np.abs(full - curve.values).max() < 1e-8


def test_extract_density_rejects_bad_grid():
    with pytest.raises(InvalidSpec):
        qve.extract_density(CONST8, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidSpec):
        qve.extract_density(CONST8, np.array([0.0, 1.0]), eta=-1.0)


# ---------------------------------------------------------------------------
# integration


def test_total_mass_is_one(constant_curve):
    assert qve.integrate_density(constant_curve, -3.0, 3.0) == pytest.approx(1.0, abs=1e-3)


def test_integral_matches_closed_form(constant_curve):
    got = qve.integrate_density(constant_curve, -1.0, 1.0)
    assert got == pytest.approx(np.sqrt(3.0) / (2.0 * np.pi) + 1.0 / 3.0, abs=1e-4)


def test_degenerate_interval_is_zero(constant_curve):
    assert qve.integrate_density(constant_curve, 0.5, 0.5) == 0.0


def test_integral_additivity(constant_curve):
    whole = qve.integrate_density(constant_curve, -1.5, 1.5)
    parts = qve.integrate_density(constant_curve, -1.5, 0.25) + qve.integrate_density(
        constant_curve, 0.25, 1.5
    )
    assert whole == pytest.approx(parts, abs=5e-6)


def test_out_of_range_rejected(constant_curve):
    with pytest.raises(OutOfRange):
        qve.integrate_density(constant_curve, -5.0, 0.0)
    with pytest.raises(OutOfRange):
        qve.integrate_density(constant_curve, 1.0, 0.0)


def test_integral_against_quadrature_oracle(constant_curve):
    # trapezoid of the closed form on a fine mesh, windows inside the bulk
    for lo, hi in [(-0.4, 0.9), (1.0, 1.9), (-1.99, -1.0)]:
        got = qve.integrate_density(constant_curve, lo, hi)
        assert got == pytest.approx(semicircle_mass(lo, hi), abs=2e-4)


def _irreducible_profile():
    # the seeded n = 200 profile of perfbench's profile-local-law workload at seed 0
    gen = np.random.default_rng(0)
    a = gen.uniform(0.3, 1.0, size=(200, 200))
    return qve.VarianceProfile(n=200, entries=(a + a.T) / 2.0)


THREE_BLOCK = qve.BlockProfile(
    d=3, weights=np.array([0.5, 0.25, 0.25]), coeffs=np.array([[1.0, 0.4, 0.3], [0.4, 0.8, 0.2], [0.3, 0.2, 0.6]])
)


# At a square-root edge the trapezoid error falls only like h^1.5.  On the three-block
# edge window 4097 points leave 1.3e-6 relative in the oracle itself and 16385 points
# 1e-7 (against 65537), so that window uses 16385; on the irreducible one 4097 and
# 16385 points agree to 1.8e-7.
@pytest.mark.parametrize(
    "make_profile, edge_points", [(_irreducible_profile, 4097), (lambda: THREE_BLOCK, 16385)],
    ids=["irreducible-n200", "three-block"],
)
def test_integral_matches_fine_trapezoid_of_density_batch(make_profile, edge_points):
    profile = make_profile()
    curve = qve.extract_density(profile, qve.default_grid())
    (support,) = qve.detect_bulk(curve, 1e-3)
    (bulk,) = qve.detect_bulk(curve, 0.1)
    mid = (bulk.lo + bulk.hi) / 2.0
    windows = [
        (bulk.lo, bulk.lo + 0.3, 4097),
        (mid - 0.15, mid + 0.15, 4097),
        (bulk.hi - 0.3, bulk.hi, 4097),
        (support.hi - 0.1, support.hi + 0.1, edge_points),  # straddles the right edge
    ]
    for lo, hi, points in windows:
        xs = np.linspace(lo, hi, points)
        # solved in pieces of at most 1024 abscissas to bound the solver's working memory
        rho = np.concatenate([qve.density_batch(profile, part) for part in np.array_split(xs, -(-points // 1024))])
        assert qve.integrate_density(curve, lo, hi) == pytest.approx(np.trapezoid(rho, xs), rel=1e-6)


@pytest.mark.parametrize("n, seed", [(12, 3), (47, 4), (48, 5), (90, 6), (qve._BLOCK_MIN_DIM - 1, 4),
                                     (qve._BLOCK_MIN_DIM, 5)])
def test_blocked_density_matches_one_batch_over_the_grid(n, seed):
    # profiles of dimension >= _BLOCK_MIN_DIM are solved in column blocks; each
    # column iterates on its own, so the blocks give the solution of each phase
    # done as one batch over the grid's first half (x <= 0, the first point of
    # each mirror pair of the antisymmetric grid): the coarse subgrid from cold
    # starts, then, from the curve's coarse solutions, the rest from fine_starts
    # (the curve's own starts, so that a rounding difference of the coarse phase is
    # not amplified near an edge); x > 0 mirrors x < 0, g(-x) = -conj g(x)
    profile = random_profile(n, seed=seed)
    grid = qve.default_grid()
    assert np.array_equal(grid, -grid[::-1])
    curve = qve.extract_density(profile, grid)
    coarse, half = cold_mask(grid.size), grid <= 0
    g = np.empty((n, grid.size), dtype=np.complex128)
    g[:, coarse & half] = qve._solve_batch(profile, grid[coarse & half] + 1j * qve.DEFAULT_ETA)[0]
    start = fine_starts(grid, coarse, curve.solution[:, coarse])[:, half[~coarse]]
    g[:, ~coarse & half] = qve._solve_batch(profile, grid[~coarse & half] + 1j * qve.DEFAULT_ETA, initial=start)[0]
    g[:, ~half] = -g[:, half][:, -2::-1].conj()
    np.testing.assert_allclose(curve.solution, g, rtol=1e-12, atol=0)
    np.testing.assert_allclose(curve.values, g.mean(axis=0).imag / np.pi, rtol=1e-12, atol=1e-300)


# Two solutions whose defects are both <= DEFAULT_TOL = 1e-10 differ by the defect
# times the inverse of the equation's stability operator.  At a square-root edge
# that inverse grows like eta**-0.5 = 1e3 at DEFAULT_ETA, so the continuation and
# a cold batch may differ there by about 1e-7 of the density's peak; 1e-6 of
# the peak leaves a factor of ten.  Away from the edges they agree near 1e-10.
_CONTINUATION_RTOL_OF_PEAK = 1e-6


def _check_against_a_cold_batch(profile, grid):
    curve = qve.extract_density(profile, grid)
    assert (_defect(curve.source, grid, qve.DEFAULT_ETA, curve.solution) <= 1.001 * qve.DEFAULT_TOL).all()
    oracle = qve.density_batch(profile, grid)
    np.testing.assert_allclose(curve.values, oracle, rtol=0, atol=_CONTINUATION_RTOL_OF_PEAK * oracle.max())


@st.composite
def continuation_cases(draw):
    """A d = 1 or d = 2 block profile or an irreducible profile of dimension 1-64,
    and a uniform grid of 2-200 points from below -2 to above 2, so that it
    crosses both edges of the support (inside [-2, 2] for entries <= 1)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["d1", "d2", "irreducible"]))
    if kind == "d1":
        profile = qve.BlockProfile(d=1, weights=np.ones(1), coeffs=np.full((1, 1), gen.uniform(0.05, 1.0)))
    elif kind == "d2":
        w = gen.uniform(0.1, 0.9)
        a = gen.uniform(0.05, 1.0, size=(2, 2))
        profile = qve.BlockProfile(d=2, weights=np.array([w, 1.0 - w]), coeffs=(a + a.T) / 2.0)
    else:
        profile = random_profile(draw(st.integers(min_value=1, max_value=64)), seed=seed,
                                 low=draw(st.floats(min_value=0.05, max_value=0.5)))
    lo, hi = draw(st.floats(min_value=-3.0, max_value=-2.01)), draw(st.floats(min_value=2.01, max_value=3.0))
    return profile, np.linspace(lo, hi, draw(st.integers(min_value=2, max_value=200)))


@given(case=continuation_cases())
@settings(max_examples=60)
def test_continuation_in_x_matches_a_cold_batch(case):
    _check_against_a_cold_batch(*case)


def _recording_solves(monkeypatch):
    """Patch qve._solve_batch to record each call's (initial, iterations); returns the list."""
    solve, calls = qve._solve_batch, []

    def recording_solve(profile, zs, tol=qve.DEFAULT_TOL, initial=None):
        g, residual, iterations = solve(profile, zs, tol, initial=initial)
        calls.append((initial, iterations))
        return g, residual, iterations

    monkeypatch.setattr(qve, "_solve_batch", recording_solve)
    return calls


def test_fine_columns_start_from_their_neighbours(monkeypatch):
    # the 540 fine points of this profile fold onto 270 mirror pairs, solved at
    # x < 0: 1022 map evaluations in all from cubic starts (2044 for all 540)
    calls = _recording_solves(monkeypatch)
    grid = qve.default_grid()
    qve.extract_density(_irreducible_profile(), grid)
    fine = np.concatenate([iterations for initial, iterations in calls if initial is not None])
    assert fine.size == (~cold_mask(grid.size) & (grid < 0)).sum() == 270
    assert fine.sum() <= 1150


def test_quadrature_of_the_campaign_intervals_takes_few_map_evaluations(monkeypatch):
    # profile-local-law's three intervals of length 0.3 at seed 0, through the
    # campaign plan's fold: the outer two mirror each other and the middle one
    # mirrors itself, 260 map evaluations from cubic starts (537 unfolded, 3180
    # from linear starts)
    curve = qve.extract_density(_irreducible_profile(), qve.default_grid())
    widest = max(qve.detect_bulk(curve, 0.1), key=lambda b: b.width)
    calls = _recording_solves(monkeypatch)
    verify.interval_masses(curve, verify.place_intervals(widest, 0.3, 3))
    assert sum(int(iterations.sum()) for _, iterations in calls) <= 350


@pytest.mark.parametrize("known, xs, cubic_used", [
    # a zero-width cell at 0: every point's four nearest knots hold it twice
    ([-0.5, 0.0, 0.0, 0.5, 1.0], [-0.25, 0.25, 0.75], [False, False, False]),
    # between two gap knots the cubic through a bulk knot leaves the half plane at
    # 2.075, not at 2.3; 2.1 sits on a knot
    ([1.0, 2.05, 2.1, 2.6], [2.075, 2.3, 2.1], [False, True, True]),
])
def test_continuation_start_falls_back_to_linear(monkeypatch, known, xs, cubic_used):
    known, xs = np.array(known), np.array(xs)
    g_known = qve._solve_batch(CONST8, known + 1j * qve.DEFAULT_ETA)[0]
    right = np.clip(np.searchsorted(known, xs, side="right"), 1, known.size - 1)
    width = known[right] - known[right - 1]
    t = np.divide(xs - known[right - 1], width, out=np.zeros_like(xs), where=width > 0)
    linear = g_known[:, right - 1] * (1.0 - t) + g_known[:, right] * t
    nodes = np.clip(right - 2, 0, known.size - 4)[:, None] + np.arange(4)
    with np.errstate(all="ignore"):  # coincident knots divide by zero
        weights = [[np.prod([(x - known[i]) / (known[j] - known[i]) for i in row if i != j]) for j in row]
                   for x, row in zip(xs, nodes)]
        cubic = np.einsum("dkj,kj->dk", g_known[:, nodes], np.array(weights))
    assert (np.isfinite(cubic).all(axis=0) & (cubic.imag > 0).all(axis=0)).tolist() == cubic_used
    calls = _recording_solves(monkeypatch)
    g = qve._solve_blocks(CONST8, xs + 1j * qve.DEFAULT_ETA, known=known, g_known=g_known)
    ((start, _),) = calls
    first = np.sort(np.unique(np.abs(xs), return_index=True)[1])  # a mirror pair solves at its first point
    cubic_used, linear, cubic = np.array(cubic_used)[first], linear[:, first], cubic[:, first]
    assert np.array_equal(start[:, ~cubic_used], linear[:, ~cubic_used])
    np.testing.assert_allclose(start[:, cubic_used], cubic[:, cubic_used], rtol=1e-12)
    assert np.array_equal(start[:, xs[first] == 2.1], g_known[:, known == 2.1])  # a knot starts from its solution
    exact = [semicircle_stieltjes(complex(x, qve.DEFAULT_ETA)).imag / np.pi for x in xs]
    np.testing.assert_allclose(g.mean(axis=0).imag / np.pi, exact, rtol=0, atol=_CONTINUATION_RTOL_OF_PEAK / np.pi)


def test_fine_column_between_coarse_neighbours_across_an_edge():
    # the coarse subgrid of this grid is its two ends, 1.85 inside the semicircle's
    # support and 2.15 outside it: every other point starts from the interpolation
    # of a bulk and a gap solution, 2.0 right on the edge
    grid = np.linspace(1.85, 2.15, 11)
    assert cold_mask(grid.size).tolist() == [True] + [False] * 9 + [True]
    _check_against_a_cold_batch(CONST8, grid)
    curve = qve.extract_density(CONST8, grid)
    exact = [semicircle_stieltjes(complex(x, qve.DEFAULT_ETA)).imag / np.pi for x in grid]
    np.testing.assert_allclose(curve.values, exact, rtol=0, atol=_CONTINUATION_RTOL_OF_PEAK / np.pi)


def test_curve_without_source_or_solution_cannot_refine(constant_curve):
    fields = dict(grid=constant_curve.grid, values=constant_curve.values, eta_used=constant_curve.eta_used,
                  profile_hash=constant_curve.profile_hash)
    for extra in ({"source": constant_curve.source}, {"solution": constant_curve.solution}):
        with pytest.raises(InvalidSpec, match="cannot refine"):
            qve.integrate_density(qve.DensityCurve(**fields, **extra), -1.0, 1.0)


# ---------------------------------------------------------------------------
# mirror fold


def _sparse_profile():
    spec = ensembles.WignerSpec(n=60, profile=random_profile(60, seed=8), law=ensembles.EntryLaw("rademacher"),
                                seed=0, p=0.3)
    return ensembles.effective_profile(spec)


_MIRROR_PROFILES = {
    "full": _irreducible_profile,  # solved in column blocks
    "block": lambda: THREE_BLOCK,
    "sbm": _ONE_PASS_PROFILES["sbm"],
    "sparse": _sparse_profile,
}


@pytest.mark.parametrize("kind", _MIRROR_PROFILES)
def test_mirrored_points_give_the_mirrored_solution_bit_for_bit(kind):
    # g solves -1/g = z + S g exactly when -conj g solves it at -conj z, and the
    # solver's arithmetic commutes with negation and conjugation, which round
    # nothing: the fold of _solve_blocks rests on this
    profile = _MIRROR_PROFILES[kind]()
    zs = qve.complex_points(np.linspace(0.05, 2.6, 70), np.geomspace(1e-6, 1.0, 70))  # no point mirrors another
    g = qve._solve_blocks(profile, zs)
    assert qve._solve_blocks(profile, -zs.conj()).tobytes() == (-g.conj()).tobytes()
    unfolded = qve._solve_batch(profile, zs)[0]
    assert qve._solve_batch(profile, -zs.conj())[0].tobytes() == (-unfolded.conj()).tobytes()


def test_a_batch_solves_each_mirror_pair_once_at_its_first_point(monkeypatch):
    # -0.4 + 0.1i and its mirror fold together, and so do 1.5 + 0.1i, its repeat and
    # its mirror; each pair solves at its first point in input order, a point the
    # caller passed, and -0.4 + 0.2i at another eta on its own
    solve, seen = qve._solve_batch, []
    monkeypatch.setattr(qve, "_solve_batch", lambda profile, zs, **kw: seen.append(zs) or solve(profile, zs, **kw))
    zs = np.array([-0.4 + 0.1j, 1.5 + 0.1j, 0.4 + 0.1j, -0.4 + 0.2j, 1.5 + 0.1j, -1.5 + 0.1j])
    g = qve._solve_blocks(THREE_BLOCK, zs)
    (solved,) = seen
    assert solved.tolist() == [-0.4 + 0.1j, 1.5 + 0.1j, -0.4 + 0.2j]
    assert g[:, 2].tobytes() == (-g[:, 0].conj()).tobytes() and g[:, 5].tobytes() == (-g[:, 1].conj()).tobytes()
    assert g[:, 4].tobytes() == g[:, 1].tobytes()


@pytest.mark.parametrize("kind", _MIRROR_PROFILES)
def test_folded_density_matches_an_unfolded_continuation(kind):
    # the fold changes which points solve and from which starts, not the density
    profile = _MIRROR_PROFILES[kind]()
    grid = qve.default_grid()
    curve = qve.extract_density(profile, grid)
    unfolded = qve._m_of(curve.source, unfolded_solution(curve.source, grid)).imag / np.pi
    np.testing.assert_allclose(curve.values, unfolded, rtol=0, atol=1e-10)


def _workload_profiles():
    """The predicted profiles of the benchmark's workloads: dense-local-law's constant
    profile, profile-local-law's seeded irreducible one at seeds 0-3, and sbm-deloc's."""
    profiles = {"dense": qve.VarianceProfile.constant(2000), "sbm": _ONE_PASS_PROFILES["sbm"]()}
    for seed in range(4):
        a = np.random.default_rng(seed).uniform(0.3, 1.0, size=(200, 200))
        profiles[f"profile{seed}"] = qve.VarianceProfile(n=200, entries=(a + a.T) / 2.0)
    return profiles


def test_bulks_of_the_workload_profiles_are_unchanged():
    # against the unfolded continuation on np.linspace's grid, whose values sit
    # within one ulp of 3 (4.4e-16) of the antisymmetric default grid's
    old_grid = np.linspace(*qve.DEFAULT_GRID)
    assert np.abs(qve.default_grid() - old_grid).max() <= np.spacing(3.0)
    for name, profile in _workload_profiles().items():
        curve = qve.extract_density(profile, qve.default_grid())
        values = qve._m_of(curve.source, unfolded_solution(curve.source, old_grid)).imag / np.pi
        old = qve.DensityCurve(grid=old_grid, values=values, eta_used=qve.DEFAULT_ETA, profile_hash="")
        for eps in (0.1, 0.05):
            new_bulks, old_bulks = qve.detect_bulk(curve, eps), qve.detect_bulk(old, eps)
            assert len(new_bulks) == len(old_bulks) >= 1, name
            for new, before in zip(new_bulks, old_bulks):
                assert np.searchsorted(curve.grid, [new.lo, new.hi]).tolist() == \
                    np.searchsorted(old_grid, [before.lo, before.hi]).tolist(), name
                assert new.lo == -new.hi or len(new_bulks) > 1, name


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("first", [1e308, -1e308])
def test_a_failing_mirror_pair_names_the_callers_first_point(threads, first):
    # at x = +-1e308 the imaginary part of -1/z underflows and both columns stall
    # with tied defects; the pair solves once, at the point passed first, and in a
    # later column block than most of the batch; the unfolded batch names it too
    profile = _irreducible_profile()
    zs = qve.complex_points(np.linspace(-2.5, 2.5, 2 * qve._BLOCK_COLUMNS), 1.0)
    zs[qve._BLOCK_COLUMNS + 10], zs[qve._BLOCK_COLUMNS + 30] = complex(first, 1.0), complex(-first, 1.0)
    with pytest.raises(NonConvergence) as unfolded:
        qve._solve_batch(profile, zs)
    with ThreadPoolExecutor(max_workers=threads) as pool, pytest.raises(NonConvergence) as err:
        qve._solve_blocks(profile, zs, pool.map if threads > 1 else map)
    assert err.value.x == unfolded.value.x == first
    assert (err.value.residual, err.value.iterations) == (unfolded.value.residual, unfolded.value.iterations)


# ---------------------------------------------------------------------------
# bulk detection


def test_bulk_at_tenth_matches_closed_form(constant_curve):
    (bulk,) = qve.detect_bulk(constant_curve, 0.1)
    # closed form: rho(x) = 0.1 at |x| = sqrt(4 - (0.2 pi)^2)
    edge = np.sqrt(4.0 - (0.2 * np.pi) ** 2)
    step = constant_curve.grid[1] - constant_curve.grid[0]
    assert abs(bulk.lo + edge) <= step
    assert abs(bulk.hi - edge) <= step


def test_bulk_empty_when_eps_exceeds_peak(constant_curve):
    assert qve.detect_bulk(constant_curve, 1.0) == []


def test_tiny_eps_recovers_full_support(constant_curve):
    (bulk,) = qve.detect_bulk(constant_curve, 1e-9)
    step = constant_curve.grid[1] - constant_curve.grid[0]
    assert abs(bulk.lo + 2.0) <= step
    assert abs(bulk.hi - 2.0) <= step


def test_bulk_values_respect_threshold(constant_curve):
    for eps in (0.05, 0.2, 0.3):
        for bulk in qve.detect_bulk(constant_curve, eps):
            inside = (constant_curve.grid >= bulk.lo) & (constant_curve.grid <= bulk.hi)
            assert constant_curve.values[inside].min() >= eps


# ---------------------------------------------------------------------------
# profiles, validation, serialization


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        qve.VarianceProfile(n=2, entries=np.array([[1.0, 0.0], [0.0, 1.0]]))  # zero entry
    with pytest.raises(InvalidProfile):
        qve.VarianceProfile(n=2, entries=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(InvalidProfile):
        qve.VarianceProfile(n=2, entries=np.array([[1.0, 1.2], [1.2, 1.0]]))  # above 1
    with pytest.raises(InvalidProfile):
        qve.BlockProfile(d=2, weights=np.array([0.7, 0.7]), coeffs=np.ones((2, 2)))


def test_constant_profile_holds_one_n_by_n_array():
    # frozen_array's read-only copy is the one n x n array; a second would double the peak
    n = 2000
    tracemalloc.start()
    try:
        profile = qve.VarianceProfile.constant(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * n * n
    assert profile.entries.shape == (n, n) and np.all(profile.entries == 1.0)


def test_solve_qve_requires_the_upper_half_plane():
    for z in (0j, -1j):
        with pytest.raises(InvalidSpec, match="eta must be positive and finite"):
            qve.solve_qve(CONST8, z)


@pytest.mark.parametrize("options", [{"tol": float("nan")}, {"tol": -1e-12}])
def test_solver_options_reject_invalid_values(options):
    with pytest.raises(InvalidSpec):
        qve.solve_qve(CONST8, complex(0.0, 1.0), **options)


def test_profile_json_round_trip(tmp_path):
    prof = random_profile(6, seed=3)
    path = tmp_path / "p.json"
    prof.to_json(path)
    back = read_json(qve.Profile, path)
    assert isinstance(back, qve.VarianceProfile)
    assert np.array_equal(back.entries, prof.entries)

    block = qve.BlockProfile(d=2, weights=np.array([0.25, 0.75]), coeffs=np.array([[1.0, 0.5], [0.5, 0.9]]))
    block.to_json(path)
    back = read_json(qve.Profile, path)
    assert isinstance(back, qve.BlockProfile)
    assert np.array_equal(back.coeffs, block.coeffs)
    payload = json.loads(path.read_text())
    assert set(payload) == {"d", "weights", "coeffs"}


def test_density_csv_export(tmp_path, constant_curve):
    path = tmp_path / "rho.csv"
    qve.density_to_csv(constant_curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) == constant_curve.grid.size + 1
    x0, rho0 = lines[1].split(",")
    assert float(x0) == constant_curve.grid[0]
    assert float(rho0) == constant_curve.values[0]


def test_reduce_profile_recovers_blocks():
    block = qve.BlockProfile(d=3, weights=np.array([0.5, 0.25, 0.25]), coeffs=np.array(
        [[1.0, 0.4, 0.3], [0.4, 0.8, 0.2], [0.3, 0.2, 0.6]]
    ))
    full = qve.expand_block_profile(block, 16)
    red = qve.reduce_profile(full)
    assert isinstance(red, qve.BlockProfile)
    assert red.d == 3
    point = complex(0.4, 0.2)
    assert abs(qve.solve_qve(red, point).m - qve.solve_qve(block, point).m) < 1e-10


def _mixing_coeffs_of(df, fa):
    """The Anderson weights of history df and residual fa, through their Gram matrix."""
    dfh = df.conj().transpose(0, 2, 1)
    return qve._mixing_coeffs(dfh @ df, dfh @ fa)


@pytest.mark.parametrize("used", [1, 3])
def test_mixing_coefficients_match_pinv(used):
    gen = np.random.default_rng(used)
    df = gen.standard_normal((5, 4, used)) + 1j * gen.standard_normal((5, 4, used))
    df[0] = 0.0  # a stalled column: no usable history
    fa = gen.standard_normal((5, 4, 1)) + 1j * gen.standard_normal((5, 4, 1))
    assert np.allclose(_mixing_coeffs_of(df, fa), np.linalg.pinv(df) @ fa, rtol=1e-12, atol=1e-15)


@given(
    batch=st.integers(min_value=1, max_value=8),
    depth=st.integers(min_value=1, max_value=6),
    extra_rows=st.integers(min_value=0, max_value=6),
    zero_columns=st.integers(min_value=0, max_value=3),
    duplicate=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_mixing_coefficients_match_pinv_differentially(batch, depth, extra_rows, zero_columns, duplicate, seed):
    # the normal equations square cond(df); histories are built as U diag(s) V^H with
    # s in [1, 10] times a scale in 1e-8..1e8, so cond(df) <= 10 unless a column repeats
    gen = np.random.default_rng(seed)
    dim = depth + extra_rows

    def gaussian(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    u, _ = np.linalg.qr(gaussian(batch, dim, depth))
    v, _ = np.linalg.qr(gaussian(batch, depth, depth))
    scale = 10.0 ** gen.uniform(-8, 8, size=(batch, 1, 1))
    df = scale * (u * gen.uniform(1, 10, size=(batch, 1, depth))) @ v.conj().transpose(0, 2, 1)
    rank_deficient = duplicate and depth > 1
    if rank_deficient:
        df[:, :, -1] = df[:, :, 0]
    df[:zero_columns] = 0.0  # stalled columns: no usable history
    fa = 10.0 ** gen.uniform(-8, 8, size=(batch, 1, 1)) * gaussian(batch, dim, 1)

    got = _mixing_coeffs_of(df, fa)
    want = np.linalg.pinv(df) @ fa
    assert got.shape == want.shape
    assert np.all(got[:zero_columns] == 0.0)
    for k in range(min(zero_columns, batch), batch):
        if rank_deficient:
            # the minimum-norm weights differ; both must fit fa equally well
            fit, best = (np.linalg.norm(fa[k] - df[k] @ w) for w in (got[k], want[k]))
            assert abs(fit - best) <= 1e-10 * np.linalg.norm(fa[k])
        else:
            assert np.linalg.norm(got[k] - want[k]) <= 1e-10 * np.linalg.norm(want[k])


def test_reduce_profile_leaves_non_contiguous_blocks_alone():
    # rows alternate between two classes, so no two consecutive rows agree: the
    # run-based reduction keeps the full profile, which is solved at full dimension
    block = qve.BlockProfile(d=2, weights=np.array([0.5, 0.5]), coeffs=np.array([[1.0, 0.3], [0.3, 0.7]]))
    full = qve.expand_block_profile(block, 8)
    perm = np.array([0, 4, 1, 5, 2, 6, 3, 7])
    permuted = qve.VarianceProfile(n=8, entries=full.entries[np.ix_(perm, perm)])
    assert qve.reduce_profile(permuted) is permuted
    point = complex(0.4, 0.2)
    assert abs(qve.solve_qve(permuted, point).m - qve.solve_qve(block, point).m) < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.integers(min_value=1, max_value=6))
@settings(max_examples=30)
def test_reduce_profile_is_exact(seed, d):
    gen = np.random.default_rng(seed)
    sizes = gen.integers(1, 40, size=d)
    n = int(sizes.sum())
    coeffs = gen.choice([0.25, 0.5, 1.0], size=(d, d))  # equal neighbouring classes merge
    full = qve.expand_block_profile(
        qve.BlockProfile(d=d, weights=sizes / n, coeffs=np.maximum(coeffs, coeffs.T)), n
    )
    red = qve.reduce_profile(full)
    assert isinstance(red, qve.BlockProfile)
    assert np.array_equal(qve.expand_block_profile(red, n).entries, full.entries)
    assert np.array_equal(red.weights, np.bincount(qve.block_labels(red, n)) / n)


def test_reduce_profile_leaves_generic_profiles_alone():
    prof = random_profile(6, seed=9)
    assert qve.reduce_profile(prof) is prof


def test_profile_fingerprint_distinguishes_profiles():
    a = qve.VarianceProfile.constant(4)
    b = qve.VarianceProfile.constant(5)
    assert qve.profile_fingerprint(a) != qve.profile_fingerprint(b)
    assert qve.profile_fingerprint(a) == qve.profile_fingerprint(qve.VarianceProfile.constant(4))
    assert qve.profile_fingerprint(qve.reduce_profile(a)) != qve.profile_fingerprint(a)
