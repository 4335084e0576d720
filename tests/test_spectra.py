import dataclasses
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import lapack

from conftest import semicircle_stieltjes
from speclaw import ensembles as ens
from speclaw import qve, spectra, verify
from speclaw.errors import InvalidSpec, MissingVectors, OutOfRange

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_symmetric(n, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


symmetric_matrices = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: hnp.arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    ).map(lambda a: (a + a.T) / 2.0)
)


# ---------------------------------------------------------------------------
# tridiagonalization


def test_tridiagonal_input_passes_through_up_to_signs():
    t_in = np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, -0.25], 1) + np.diag([0.5, -0.25], -1)
    t = spectra.tridiagonalize(t_in)
    assert np.allclose(t.diag, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(t.offdiag), [0.5, 0.25])


def test_two_by_two_is_already_tridiagonal():
    t = spectra.tridiagonalize(FLIP)
    assert np.allclose(t.diag, [0.0, 0.0])
    assert np.allclose(np.abs(t.offdiag), [1.0])


def test_similarity_preserves_eigenvalues():
    a = random_symmetric(50, seed=0)
    t = spectra.tridiagonalize(a)
    ev_t = np.sort(scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag))
    ev_a = np.linalg.eigvalsh(a)
    assert np.abs(ev_t - ev_a).max() <= 1e-10 * np.abs(ev_a).max()


@st.composite
def reduction_inputs(draw):
    """Random symmetric matrices, normalized SBM and sparse samples, and rank-k
    updates a + V^T S V (S symmetric) whose computed sum is symmetric only up
    to rounding."""
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["random", "sbm", "sparse", "update"]))
    if kind == "sbm" and n > 1:
        probs = np.array([[0.3, 0.05], [0.05, 0.3]])
        return ens.normalized_sample(ens.SbmSpec(d=2, sizes=(n // 2, n - n // 2), probs=probs, seed=seed))
    if kind == "sparse":
        return ens.normalized_sample(ens.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n),
                                                    law=ens.EntryLaw("rademacher"), seed=seed, p=0.1))
    a = random_symmetric(n, seed)
    if kind == "update":
        gen = np.random.default_rng(seed)
        k = draw(st.integers(1, 5))
        v, s = gen.standard_normal((k, n)), gen.standard_normal((k, k))
        a = a + (v.T @ (s + s.T)) @ v
    return a


@settings(max_examples=80, deadline=None)
@given(a=reduction_inputs())
def test_reduction_matches_scipy_dsytrd_bit_for_bit(a):
    n = a.shape[0]
    # a.T in Fortran order is the C-order array that tridiagonalize hands LAPACK, so its lower triangle is a's upper
    _, d, e, _, info = lapack.dsytrd(a.T, lower=1, lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))
    assert info == 0
    t = spectra.tridiagonalize(a)
    assert np.array_equal(t.diag, d)
    assert np.array_equal(t.offdiag, e)


def test_reduction_releases_the_interpreter_lock():
    # a pure-Python counter thread gets about 5 % of its idle rate while a
    # reduction holds the lock, and about all of it while the reduction runs
    # outside the lock (one BLAS thread, so each thread has its own core);
    # n is above _TWO_STAGE_MIN_N, so this covers the two-stage call
    a = random_symmetric(1500, seed=7)
    assert a.shape[0] >= spectra._TWO_STAGE_MIN_N
    count, stop = [0], [False]

    def counter():
        while not stop[0]:
            count[0] += 1

    def rate(work) -> float:
        start, t0 = count[0], time.perf_counter()
        work()
        return (count[0] - start) / (time.perf_counter() - t0)

    thread = threading.Thread(target=counter)
    thread.start()
    try:
        idle = rate(lambda: time.sleep(0.3))
        with verify._campaign_map(1) as mapper:
            busy = rate(lambda: list(mapper(lambda i: spectra.tridiagonalize(a), range(1))))
    finally:
        stop[0] = True
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert busy >= 0.25 * idle


def two_stage_inputs(n):
    """A random symmetric matrix and normalized SBM and sparse samples of size n."""
    sbm = ens.SbmSpec(d=2, sizes=(n // 2, n - n // 2), probs=np.array([[0.3, 0.05], [0.05, 0.3]]), seed=n)
    sparse = ens.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=n, p=0.1)
    return [random_symmetric(n, seed=n) / np.sqrt(n), ens.normalized_sample(sbm), ens.normalized_sample(sparse)]


requires_two_stage = pytest.mark.skipif(spectra._lapack_dsytrd_2stage() is None,
                                        reason="no bundled OpenBLAS exports dsytrd_2stage")


@requires_two_stage
@pytest.mark.parametrize("n", [spectra._TWO_STAGE_MIN_N, spectra._TWO_STAGE_MIN_N + 301])
def test_two_stage_reduction_keeps_counts_and_eigenvalues(n):
    gen = np.random.default_rng(n)
    for a in two_stage_inputs(n):
        t = spectra.tridiagonalize(a)
        ev = np.linalg.eigvalsh(a)
        norm = np.abs(ev).max()
        assert np.abs(scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag) - ev).max() <= 1e-12 * norm
        for lo, hi in np.sort(gen.uniform(-1.2 * norm, 1.2 * norm, size=(200, 2)), axis=1):
            assert spectra.count_in_interval(t, lo, hi) == int(np.count_nonzero((ev > lo) & (ev <= hi)))


@requires_two_stage
def test_two_stage_reduction_reads_only_the_upper_triangle():
    a = random_symmetric(spectra._TWO_STAGE_MIN_N, seed=3)
    t = spectra.tridiagonalize(a)
    a[np.tril_indices_from(a, -1)] = np.nan
    poisoned = spectra.tridiagonalize(a)
    assert np.array_equal(poisoned.diag, t.diag)
    assert np.array_equal(poisoned.offdiag, t.offdiag)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1199,
                               pytest.param(spectra._TWO_STAGE_MIN_N + 1, marks=requires_two_stage)])
def test_in_place_and_copy_reduce_the_upper_triangle_of_a_non_symmetric_matrix(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    copied = spectra.tridiagonalize(m)
    poisoned = m.copy()
    poisoned[np.tril_indices(n, -1)] = np.nan  # a read of the lower triangle would make T non-finite
    for t in (spectra.tridiagonalize(m.copy(), overwrite_a=True), spectra.tridiagonalize(poisoned, overwrite_a=True)):
        assert t.diag.tobytes() == copied.diag.tobytes()
        assert t.offdiag.tobytes() == copied.offdiag.tobytes()
    ev = np.linalg.eigvalsh(np.triu(m) + np.triu(m, 1).T)
    ev_t = scipy.linalg.eigvalsh_tridiagonal(copied.diag, copied.offdiag) if n > 1 else copied.diag
    assert np.abs(np.sort(ev_t) - ev).max() <= 1e-12 * np.abs(ev).max()


def fresh_sample(n):
    """A normalized dense sample: exactly symmetric, C-order, owned by the caller."""
    spec = ens.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("uniform_bounded"), seed=n)
    return ens.normalized_sample(spec)


@pytest.mark.parametrize("n", [200, 1300])  # below and above _TWO_STAGE_MIN_N: both kernels
def test_in_place_reduction_is_bit_identical_and_allocates_no_matrix(n):
    a = fresh_sample(n)
    copied = spectra.tridiagonalize(a)
    tracemalloc.start()
    try:
        in_place = spectra.tridiagonalize(a, overwrite_a=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert in_place.diag.tobytes() == copied.diag.tobytes()
    assert in_place.offdiag.tobytes() == copied.offdiag.tobytes()
    assert peak < 0.5 * 8 * n * n  # a copy of the input would take 8 n^2 bytes
    assert not np.array_equal(a, fresh_sample(n))  # the reduction overwrote the caller's buffer


@pytest.mark.parametrize("n", [200, 1300])
def test_reduction_leaves_its_input_untouched_unless_handed_over(n):
    a = fresh_sample(n)
    before = a.copy()
    t = spectra.tridiagonalize(a)
    assert a.tobytes() == before.tobytes()
    # a read-only or Fortran-order input cannot be reduced in place, so it is copied
    read_only, fortran = a.copy(), np.asfortranarray(a)
    read_only.setflags(write=False)
    for m in (read_only, fortran):
        reduced = spectra.tridiagonalize(m, overwrite_a=True)
        assert m.tobytes() == before.tobytes()
        assert reduced.diag.tobytes() == t.diag.tobytes() and reduced.offdiag.tobytes() == t.offdiag.tobytes()


def test_reduction_dispatches_on_size(monkeypatch):
    calls = []

    def recording_reduce(a, two_stage):
        assert a.flags.c_contiguous and a.dtype == np.float64
        calls.append((a.shape[0], two_stage))
        return np.zeros(a.shape[0]), np.zeros(a.shape[0] - 1)

    monkeypatch.setattr(spectra, "_lapack_dsytrd_2stage", lambda: object())
    monkeypatch.setattr(spectra, "_reduce", recording_reduce)
    n = spectra._TWO_STAGE_MIN_N
    spectra.tridiagonalize(np.eye(n - 1))
    spectra.tridiagonalize(np.eye(n))
    monkeypatch.setattr(spectra, "_lapack_dsytrd_2stage", lambda: None)
    spectra.tridiagonalize(np.eye(n))
    assert calls == [(n - 1, False), (n, True), (n, False)]


def test_reduction_without_the_two_stage_symbol_is_dsytrd(monkeypatch):
    monkeypatch.setattr(spectra, "_lapack_dsytrd_2stage", lambda: None)
    a = random_symmetric(spectra._TWO_STAGE_MIN_N, seed=5)
    _, d, e, _, info = lapack.dsytrd(a.T, lower=1, lwork=int(lapack.dsytrd_lwork(a.shape[0], lower=1)[0]))
    assert info == 0
    t = spectra.tridiagonalize(a)
    assert np.array_equal(t.diag, d)
    assert np.array_equal(t.offdiag, e)


def test_bundled_scipy_openblas_exports_the_two_stage_reduction():
    # a scipy wheel bundles OpenBLAS, and this keeps its two-stage path from
    # falling back to dsytrd unnoticed
    root = Path(scipy.__file__).parent
    if not list(root.parent.glob(f"{root.name}.libs/*openblas*")):
        pytest.skip("scipy bundles no OpenBLAS")
    assert spectra.bundled_openblas()
    assert spectra._lapack_dsytrd_2stage() is not None


def test_non_square_input_is_invalid():
    with pytest.raises(InvalidSpec):
        spectra.tridiagonalize(np.zeros((2, 3)))
    with pytest.raises(InvalidSpec):
        spectra.eigen_full(np.zeros(4))


def test_empty_matrix_is_invalid():
    # an empty form would reach numpy's max of a zero-size array when Sturm-counted
    with pytest.raises(InvalidSpec, match="n >= 1"):
        spectra.tridiagonalize(np.zeros((0, 0)))
    with pytest.raises(InvalidSpec, match="n >= 1"):
        spectra.TridiagonalForm(diag=[], offdiag=[])
    with pytest.raises(InvalidSpec):
        spectra.eigen_full(np.zeros((0, 0)))


def test_invalid_arguments_raise_typed_errors():
    t = spectra.tridiagonalize(FLIP)
    with pytest.raises(OutOfRange):
        spectra.count_in_interval(t, 1.0, 0.0)
    with pytest.raises(InvalidSpec):
        spectra.schur_resolvent_check(FLIP, 2, complex(0.0, 1.0))
    with pytest.raises(InvalidSpec):
        spectra.TridiagonalForm(diag=np.zeros(3), offdiag=np.zeros(3))
    with pytest.raises(InvalidSpec):
        spectra.SpectrumSummary(eigenvalues=np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Sturm counting


def test_count_simple_flip_matrix():
    t = spectra.tridiagonalize(FLIP)  # eigenvalues -1, 1
    assert spectra.count_in_interval(t, 0.5, 1.5) == 1
    assert spectra.count_in_interval(t, -1.5, 1.5) == 2
    assert spectra.count_in_interval(t, 2.0, 3.0) == 0


def test_count_on_diagonal_matrix():
    t = spectra.tridiagonalize(np.diag([1.0, 2.0, 3.0]))
    assert spectra.count_in_interval(t, 1.5, 3.5) == 2
    assert spectra.count_in_interval(t, 0.5, 0.5) == 0
    # shifts landing on an eigenvalue nudge downward: a tie at hi is excluded,
    # a tie at lo included, keeping counts additive across the tied point
    assert spectra.count_in_interval(t, 0.0, 1.0) == 0
    assert spectra.count_in_interval(t, 1.0, 2.5) == 2


@pytest.mark.parametrize("n", [129, 300, 600])
def test_blocked_reduction_counts_match_eigvalsh(n):
    # from n = 129 on, dsytrd with the queried workspace takes its blocked path
    sbm = ens.SbmSpec(d=2, sizes=(n // 2, n - n // 2), probs=np.array([[0.3, 0.05], [0.05, 0.3]]), seed=n)
    matrices = [random_symmetric(n, seed=n + k) / np.sqrt(n) for k in range(3)]
    matrices.append(ens.normalized_sample(sbm))
    gen = np.random.default_rng(n)
    for a in matrices:
        t = spectra.tridiagonalize(a)
        ev = np.linalg.eigvalsh(a)
        for lo, hi in np.sort(gen.uniform(-2.5, 2.5, size=(200, 2)), axis=1):
            assert spectra.count_in_interval(t, lo, hi) == int(np.count_nonzero((ev > lo) & (ev <= hi)))


def test_counts_match_eigendecomposition_on_random_matrices():
    gen = np.random.default_rng(42)
    for seed in range(10):
        n = int(gen.integers(10, 120))
        a = random_symmetric(n, seed=seed) / np.sqrt(n)
        t = spectra.tridiagonalize(a)
        ev = np.linalg.eigvalsh(a)
        for lo, hi in gen.uniform(-3, 3, size=(30, 2)):
            lo, hi = min(lo, hi), max(lo, hi)
            expected = int(np.count_nonzero((ev > lo) & (ev <= hi)))
            assert spectra.count_in_interval(t, lo, hi) == expected


@given(a=symmetric_matrices, data=st.data())
def test_sylvester_additivity(a, data):
    t = spectra.tridiagonalize(a)
    bound = float(np.abs(a).sum() + 1.0)
    lo = data.draw(st.floats(min_value=-bound, max_value=bound))
    hi = data.draw(st.floats(min_value=lo, max_value=bound))
    mid = data.draw(st.floats(min_value=lo, max_value=hi))
    total = spectra.count_in_interval(t, lo, hi)
    assert total == spectra.count_in_interval(t, lo, mid) + spectra.count_in_interval(t, mid, hi)
    assert 0 <= total <= a.shape[0]


@pytest.mark.parametrize("lo, hi, expected", [(0.0, 1.0, 1), (1.0, 2.0, 2), (-1.0, 0.0, 0)])
def test_exact_ties_count_on_lo_to_hi_half_open(lo, hi, expected):
    # [lo, hi): an eigenvalue on lo counts, one on hi does not; (lo, hi] would give 2, 1 and 1
    t = spectra.tridiagonalize(np.diag([0.0, 1.0, 1.0, 2.0]))
    assert spectra.count_in_interval(t, lo, hi) == expected


def test_exact_eigenvalue_hits_are_deterministic():
    t = spectra.tridiagonalize(np.diag([0.0, 1.0, 1.0, 2.0]))
    first = spectra.count_in_interval(t, 0.0, 1.0)
    assert first == spectra.count_in_interval(t, 0.0, 1.0)
    # counts stay additive through the tied point
    assert (
        spectra.count_in_interval(t, -1.0, 1.0)
        + spectra.count_in_interval(t, 1.0, 3.0)
        == spectra.count_in_interval(t, -1.0, 3.0)
        == 4
    )


def test_counts_below_vectorized_matches_scalar():
    a = random_symmetric(60, seed=3)
    t = spectra.tridiagonalize(a)
    shifts = np.linspace(-10, 10, 101)
    counts = spectra.eigenvalue_counts_below(t, shifts)
    ev = np.linalg.eigvalsh(a)
    expected = np.searchsorted(ev, shifts, side="left")
    assert np.array_equal(counts, expected)


def _stack_of_forms(n, seed):
    """Random forms of one size whose norms, about 1e-200, 1e-3, 0.3, 1 and 1e3, take
    different power-of-two scalings (unscaled, the first one's squared couplings
    underflow), one with an exactly zero first pivot at the shift 0.25 and a
    zero coupling, and a Householder form."""
    gen = np.random.default_rng(seed)
    forms = [spectra.TridiagonalForm(diag=scale * gen.uniform(-1, 1, n), offdiag=scale * gen.uniform(-1, 1, n - 1))
             for scale in (1e-200, 1e-3, 0.3, 1.0, 1e3)]
    couplings = gen.uniform(-0.5, 0.5, n - 1)
    couplings[(n - 1) // 2:][:1] = 0.0
    forms.append(spectra.TridiagonalForm(diag=np.append(0.25, gen.uniform(-0.5, 0.5, n - 1)), offdiag=couplings))
    return forms + [spectra.tridiagonalize(random_symmetric(n, seed=seed))]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (9, 2), (40, 3)])
def test_stacked_sturm_sweep_equals_per_form_counts(n, seed):
    forms = _stack_of_forms(n, seed)
    assert forms[5].diag[0] - 0.25 == 0.0  # the first pivot at the shift 0.25 is exactly zero
    tops = [max(np.abs(t.diag).max(), np.abs(t.offdiag).max(initial=0.0)) for t in forms]
    assert len({int(np.frexp(top)[1]) for top in tops if top < 1.0}) >= 2  # different scalings in one stack
    spread = np.random.default_rng(seed).uniform(-3, 3, 24)
    shifts = np.concatenate(([-np.inf, np.inf, 0.0, 0.25, 1e-3, -1e-4], spread, 1e-200 * spread))
    stacked = spectra.eigenvalue_counts_below(forms, shifts)
    assert stacked.shape == (len(forms), shifts.size) and stacked.dtype == np.int64
    assert np.array_equal(stacked, spectra.eigenvalue_counts_below(tuple(forms), shifts))
    for t, row in zip(forms, stacked):
        alone = spectra.eigenvalue_counts_below(t, shifts)
        assert alone.shape == shifts.shape  # a single form still gives one count per shift
        assert np.array_equal(row, alone)
        assert row[0] == 0 and row[1] == n
        ev = scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag) if n > 1 else t.diag
        far = np.abs(shifts[:, None] - ev[None, :]).min(axis=1) > 1e-9 * np.abs(ev).max()
        assert np.array_equal(row[far], np.searchsorted(ev, shifts[far], side="left"))
        order = np.argsort(shifts)
        for lo, hi in zip(order[:-1], order[1:]):
            assert spectra.count_in_interval(t, shifts[lo], shifts[hi]) == row[hi] - row[lo]


def test_stacked_sturm_sweep_rejects_nan_shifts_and_mixed_sizes():
    forms = _stack_of_forms(6, seed=4)
    with pytest.raises(InvalidSpec, match="Sturm shift 2 is NaN"):
        spectra.eigenvalue_counts_below(forms, np.array([0.0, 1.0, np.nan]))
    with pytest.raises(InvalidSpec, match="one size"):
        spectra.eigenvalue_counts_below(forms + _stack_of_forms(5, seed=4)[:1], np.zeros(2))
    with pytest.raises(InvalidSpec, match="one size"):
        spectra.eigenvalue_counts_below([], np.zeros(2))


# adversarial entries: zeros, tiny and huge magnitudes, neighbours one ulp apart
_entries = st.sampled_from([0.0, 1.0, np.nextafter(1.0, 0.0), -1.0, 2.5, 1e-8, -1e-8, 1e8, -1e8]) | st.floats(-1e8, 1e8)
_couplings = st.sampled_from([0.0, 1e-300]) | _entries


@st.composite
def adversarial_tridiagonals(draw):
    """A block (d, e) repeated 1-3 times, linked by zero or 1e-300 couplings
    (which give repeated eigenvalues); optionally with every coupling zero."""
    m = draw(st.integers(1, 5))
    d = draw(st.lists(_entries, min_size=m, max_size=m))
    e = draw(st.lists(_couplings, min_size=m - 1, max_size=m - 1))
    reps = draw(st.integers(1, 3))
    link = draw(st.sampled_from([0.0, 1e-300]))
    off = np.array((e + [link]) * reps)[:-1]
    return np.tile(d, reps), off * draw(st.sampled_from([0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(tri=adversarial_tridiagonals(), extra=st.lists(st.floats(-2e8, 2e8), max_size=4))
def test_sturm_counts_match_eigvalsh_tridiagonal(tri, extra):
    diag, off = tri
    t = spectra.TridiagonalForm(diag=diag, offdiag=off)
    ev = np.sort(diag) if not off.any() else scipy.linalg.eigvalsh_tridiagonal(diag, off)
    mids = (ev[1:] + ev[:-1]) / 2.0
    shifts = np.concatenate([diag, ev, mids, [ev[0] - 1.0, ev[-1] + 1.0], extra])
    counts = spectra.eigenvalue_counts_below(t, shifts)
    expected = np.searchsorted(ev, shifts, side="left")  # #{eigenvalues < shift}
    if off.any():
        # exact where the shift is farther from the spectrum than the eigensolver's error
        scale = np.abs(diag).max() + 2.0 * np.abs(off).max()
        tol = 16.0 * diag.size * np.finfo(float).eps * scale
        far = np.abs(shifts[:, None] - ev[None, :]).min(axis=1) > tol
        counts, expected = counts[far], expected[far]
    # with zero couplings the eigenvalues are the diagonal entries, so every
    # shift (ties on entries included) must count exactly
    assert np.array_equal(counts, expected)


# ---------------------------------------------------------------------------
# full decomposition


def _assert_eigh_sup_norms(s, a):
    """s.inf_norms are the sup-norms of eigh's eigenvectors of `a`, bit for bit, within [1/sqrt(n), 1]."""
    vals, vecs = np.linalg.eigh(a)
    assert np.array_equal(s.eigenvalues, vals)
    assert np.array_equal(s.inf_norms, np.abs(vecs).max(axis=0))
    n = len(a)
    assert np.all((s.inf_norms >= 1.0 / np.sqrt(n) - 1e-12) & (s.inf_norms <= 1.0))


def test_eigen_full_flip_matrix():
    s = spectra.eigen_full(FLIP, want_vectors=True)
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    assert np.allclose(s.inf_norms, [2**-0.5, 2**-0.5])
    _assert_eigh_sup_norms(s, FLIP)


def test_eigen_full_sorts():
    s = spectra.eigen_full(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(s.eigenvalues, [1.0, 2.0, 3.0])


def test_trace_identity():
    a = random_symmetric(100, seed=5)
    s = spectra.eigen_full(a)
    assert abs(s.eigenvalues.sum() - np.trace(a)) <= 1e-9 * np.abs(a).max() * 100


def test_eigenvector_sup_norms_are_those_of_eigh():
    a = random_symmetric(40, seed=6)
    _assert_eigh_sup_norms(spectra.eigen_full(a, want_vectors=True), a)


# ---------------------------------------------------------------------------
# empirical Stieltjes transform


def test_stieltjes_two_eigenvalues():
    s = spectra.SpectrumSummary(eigenvalues=np.array([-1.0, 1.0]))
    assert spectra.stieltjes_empirical(s, complex(0.0, 1.0)) == pytest.approx(0.5j)


def test_stieltjes_large_z_expansion():
    s = spectra.SpectrumSummary(eigenvalues=np.linspace(-2, 2, 11))
    got = spectra.stieltjes_empirical(s, complex(0.0, 1e6))
    assert abs(got - 1e-6j) < 1e-17


def test_stieltjes_has_positive_imaginary_part():
    s = spectra.SpectrumSummary(eigenvalues=np.array([-0.5, 0.1, 2.0]))
    for x in (-1.0, 0.0, 3.0):
        assert spectra.stieltjes_empirical(s, complex(x, 0.01)).imag > 0


def test_empirical_transform_approaches_prediction():
    spec = ens.WignerSpec(
        n=2000, profile=qve.VarianceProfile.constant(2000), law=ens.EntryLaw("rademacher"), seed=17
    )
    s = spectra.eigen_full(ens.normalized_sample(spec))
    got = spectra.stieltjes_empirical(s, complex(0.0, 0.05))
    assert abs(got - semicircle_stieltjes(0.05j)) < 0.05


# ---------------------------------------------------------------------------
# Schur complement identity


def test_schur_on_diagonal_matrix():
    w = np.diag([0.3, -0.7, 1.1])
    point = complex(0.2, 0.4)
    for k in range(3):
        direct, schur = spectra.schur_resolvent_check(w, k, point)
        assert direct == pytest.approx(1.0 / (w[k, k] - point))
        assert schur == pytest.approx(direct)


def test_schur_one_by_one_has_no_minor():
    point = complex(0.2, 0.4)
    direct, schur = spectra.schur_resolvent_check(np.array([[0.3]]), 0, point)
    assert direct == pytest.approx(1.0 / (0.3 - point), rel=1e-15)
    assert schur == 1.0 / (0.3 - point)


def test_schur_two_by_two_hand_value():
    w = FLIP / np.sqrt(2.0)
    direct, schur = spectra.schur_resolvent_check(w, 0, complex(0.0, 1.0))
    # (W - iI)^{-1} diagonal entry: i/(0.5/(0-i) ... ) computed by 2x2 inverse
    inv = np.linalg.inv(w - 1j * np.eye(2))
    assert direct == pytest.approx(complex(inv[0, 0]))
    assert abs(direct - schur) < 1e-12


@pytest.mark.parametrize("m", [np.array([[0.1, np.nan, 0.0], [np.nan, 0.2, 0.3], [0.0, 0.3, 0.4]]), np.full((3, 3), np.inf)],
                         ids=["nan-coupling", "all-inf"])
def test_schur_on_a_non_finite_matrix_raises(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="^matrix entries must be finite$"):
            spectra.schur_resolvent_check(m, 0, 0.5j)


def test_schur_random_matrices():
    gen = np.random.default_rng(0)
    worst = 0.0
    a = random_symmetric(50, seed=12) / np.sqrt(50)
    for _ in range(10):
        k = int(gen.integers(0, 50))
        point = complex(float(gen.uniform(-2, 2)), float(gen.uniform(0.05, 1.0)))
        direct, schur = spectra.schur_resolvent_check(a, k, point)
        worst = max(worst, abs(direct - schur))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# sup norms and bulk selection


def test_inf_norms_localized_extreme():
    s = spectra.eigen_full(np.diag([1.0, 2.0, 3.0]), want_vectors=True)
    assert np.allclose(spectra.eigvec_inf_norms(s), 1.0)


def test_inf_norms_delocalized_extreme():
    n = 16
    flat = np.ones((n, n)) / n  # rank one; top eigenvector is constant
    s = spectra.eigen_full(flat, want_vectors=True)
    assert spectra.eigvec_inf_norms(s)[-1] == pytest.approx(1.0 / np.sqrt(n))


def test_summary_keeps_the_sup_norms_and_no_vectors():
    a = random_symmetric(12, seed=4)
    s = spectra.eigen_full(a, want_vectors=True)
    _assert_eigh_sup_norms(s, a)
    assert spectra.eigvec_inf_norms(s) is s.inf_norms
    assert not s.inf_norms.flags.writeable
    assert [np.ndim(getattr(s, f.name)) for f in dataclasses.fields(s)] == [1, 1]  # no n x n array


def test_summary_rejects_an_n_by_n_second_argument():
    # a caller still passing the eigenvector matrix as the second argument
    u = np.linalg.qr(random_symmetric(3, seed=4))[0]
    with pytest.raises(InvalidSpec, match="inf_norms must hold one sup-norm per eigenvalue"):
        spectra.SpectrumSummary(np.arange(3.0), u)


def test_inf_norms_require_vectors():
    s = spectra.eigen_full(FLIP)
    with pytest.raises(MissingVectors):
        spectra.eigvec_inf_norms(s)


def test_bulk_indices_and_ratios():
    s = spectra.eigen_full(np.diag(np.linspace(-1, 1, 9)), want_vectors=True)
    intervals = [qve.BulkInterval(lo=-0.5, hi=0.5)]
    idx = spectra.bulk_indices(s, intervals)
    assert np.all(np.abs(s.eigenvalues[idx]) <= 0.5)
    ratios = spectra.normalized_deloc_ratios(spectra.eigvec_inf_norms(s)[idx], np.log(9.0) / 9.0)  # K = p = 1
    control = np.sqrt(9.0 / np.log(9.0))
    assert np.allclose(ratios, control)  # identity eigenvectors: inf norm 1


# ---------------------------------------------------------------------------
# interlacing property


@given(data=st.data())
@settings(max_examples=25)
def test_rank_one_updates_shift_counts_by_at_most_one(data):
    n = data.draw(st.integers(min_value=2, max_value=20))
    seed = data.draw(st.integers(min_value=0, max_value=500))
    gen = np.random.default_rng(seed)
    a = random_symmetric(n, seed=seed)
    v = gen.standard_normal(n)
    lo = data.draw(st.floats(min_value=-10, max_value=10))
    hi = data.draw(st.floats(min_value=lo, max_value=11))
    base = spectra.count_in_interval(spectra.tridiagonalize(a), lo, hi)
    bumped = spectra.count_in_interval(spectra.tridiagonalize(a + np.outer(v, v)), lo, hi)
    assert abs(bumped - base) <= 1


def test_spectrum_csv_export(tmp_path):
    s = spectra.eigen_full(FLIP, want_vectors=True)
    path = tmp_path / "s.csv"
    spectra.spectrum_to_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,inf_norm"
    assert len(lines) == 3
    s2 = spectra.eigen_full(FLIP)
    spectra.spectrum_to_csv(s2, path)
    assert path.read_text().strip().splitlines()[1].endswith(",")
