import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_profile
from speclaw import ensembles as ens
from speclaw import qve, rng
from speclaw.errors import DegenerateVariance, InvalidProfile, InvalidSpec, read_json


def wigner_spec(n, seed=0, law=None, profile=None):
    return ens.WignerSpec(
        n=n,
        profile=profile or qve.VarianceProfile.constant(n),
        law=law or ens.EntryLaw("rademacher"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# entry laws


def test_law_defaults_and_validation():
    assert ens.EntryLaw("rademacher").bound == 1.0
    assert ens.EntryLaw("uniform_bounded").bound == pytest.approx(math.sqrt(3.0))
    assert ens.EntryLaw("scaled_bernoulli_centered").bound == 3.0
    with pytest.raises(InvalidSpec):
        ens.EntryLaw("gaussian")
    with pytest.raises(InvalidSpec):
        ens.EntryLaw("rademacher", bound=2.0)
    with pytest.raises(InvalidSpec):
        ens.EntryLaw("scaled_bernoulli_centered", bound=0.5)


@pytest.mark.parametrize("kind,bound", [
    ("rademacher", None),
    ("uniform_bounded", None),
    ("scaled_bernoulli_centered", None),
    ("scaled_bernoulli_centered", 2.0),
])
def test_laws_are_centered_unit_variance_and_bounded(kind, bound):
    law = ens.EntryLaw(kind, bound)
    from speclaw import rng

    vals = law.sample(rng.stream_key(0, rng.TAG_VALUES), np.arange(400_000, dtype=np.uint64))
    assert np.abs(vals).max() <= law.bound + 1e-12
    assert abs(vals.mean()) < 5 * law.bound / math.sqrt(vals.size)
    fourth = np.mean(vals**4)
    assert abs(vals.var() - 1.0) < 5 * math.sqrt(max(fourth - 1.0, 1e-12) / vals.size) + 1e-6


# ---------------------------------------------------------------------------
# dense sampling


def test_rademacher_two_by_two_support():
    m = ens.sample_wigner(wigner_spec(2, seed=42))
    assert set(np.unique(m)) <= {-1.0, 1.0}
    assert m[0, 1] == m[1, 0]
    n, _, p_eff = ens.ensemble_parameters(wigner_spec(2, seed=42))
    assert 1.0 / math.sqrt(n * p_eff) == pytest.approx(1.0 / math.sqrt(2.0))


def test_fixed_seed_reproduces_bit_identical_matrices():
    spec = wigner_spec(64, seed=7)
    a = ens.sample_wigner(spec)
    b = ens.sample_wigner(spec)
    assert np.array_equal(a, b)
    c = ens.sample_wigner(wigner_spec(64, seed=8))
    assert not np.array_equal(a, c)


def test_symmetry_is_bitwise():
    m = ens.sample_wigner(wigner_spec(80, seed=3, law=ens.EntryLaw("uniform_bounded")))
    assert np.array_equal(m, m.T)


def test_empirical_variance_matches_profile():
    spec = wigner_spec(500, seed=11, law=ens.EntryLaw("uniform_bounded"))
    m = ens.sample_wigner(spec)
    iu, ju = np.triu_indices(500, k=1)
    offdiag = m[iu, ju]
    assert abs(offdiag.var()) == pytest.approx(1.0, abs=0.1)
    assert abs(offdiag.mean()) < 5.0 / math.sqrt(offdiag.size)


def test_profile_scales_entry_variance():
    block = qve.BlockProfile(d=2, weights=np.array([0.5, 0.5]), coeffs=np.array([[1.0, 0.25], [0.25, 1.0]]))
    profile = qve.expand_block_profile(block, 600)
    m = ens.sample_wigner(wigner_spec(600, seed=2, profile=profile))
    cross = m[:300, 300:]
    assert cross.var() == pytest.approx(0.25, abs=0.02)


def test_invalid_wigner_spec():
    with pytest.raises(InvalidSpec):
        ens.WignerSpec(n=4, profile=qve.VarianceProfile.constant(5), law=ens.EntryLaw("rademacher"), seed=0)
    block = qve.BlockProfile(d=3, weights=np.full(3, 1.0 / 3.0), coeffs=np.ones((3, 3)))
    with pytest.raises(InvalidProfile):  # a class without rows
        ens.WignerSpec(n=2, profile=block, law=ens.EntryLaw("rademacher"), seed=0)


def sample_as_before(entries, law, seed):
    """Dense sample from the full n x n profile, with no block structure used."""
    n = entries.shape[0]
    iu, ju = np.triu_indices(n)
    vals = law.sample(rng.stream_key(seed, rng.TAG_VALUES), rng.pair_counters(iu, ju))
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = vals * np.sqrt(entries[iu, ju])
    return out


def sbm_as_before(spec):
    """Block-model adjacency drawn on the strict upper triangle only."""
    n, labels = spec.n, spec.block_labels()
    iu, ju = np.triu_indices(n, k=1)
    p_edge = spec.probs[labels[iu], labels[ju]]
    edges = rng.uniforms(rng.stream_key(spec.seed, rng.TAG_EDGES), rng.pair_counters(iu, ju)) < p_edge
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = edges
    return out


@pytest.mark.parametrize("kind", ens.LAW_KINDS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.integers(min_value=1, max_value=5))
@settings(max_examples=15)
def test_block_and_expanded_profiles_sample_identically(kind, seed, d):
    gen = np.random.default_rng(seed)
    sizes = gen.integers(1, 9, size=d)
    n = int(sizes.sum())
    weights = sizes + gen.uniform(0.0, 0.45, size=d)  # rounding decides the class sizes
    coeffs = gen.uniform(0.1, 1.0, size=(d, d))
    block = qve.BlockProfile(d=d, weights=weights / weights.sum(), coeffs=(coeffs + coeffs.T) / 2.0)
    try:
        full = qve.expand_block_profile(block, n)
    except InvalidProfile:
        assume(False)
    law = ens.EntryLaw(kind)
    interleave = np.argsort(np.arange(n) % 2, kind="stable")  # classes no longer contiguous
    permuted = qve.VarianceProfile(n=n, entries=full.entries[np.ix_(interleave, interleave)])
    irreducible = random_profile(n, seed=seed % 1000)
    for profile, entries in ((block, full), (full, full), (permuted, permuted), (irreducible, irreducible)):
        spec = wigner_spec(n, seed, law, profile)
        assert np.array_equal(ens.sample(spec), sample_as_before(entries.entries, law, seed))
    sparse = [ens.sample(ens.SparseSpec(base=wigner_spec(n, seed, law, prof), p=0.3)) for prof in (block, full)]
    assert np.array_equal(sparse[0], sparse[1])


@st.composite
def ensemble_specs(draw):
    """Dense (block, full or irreducible profile), sparse and block-model specs."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["block", "full", "irreducible", "sbm"]))
    d = draw(st.integers(min_value=1, max_value=4))
    sizes = gen.integers(1, 9, size=d)
    n = int(sizes.sum())
    if kind == "sbm":
        probs = gen.uniform(0.0, 0.95, size=(d, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small n puts d in the unbounded-blocks regime
            return ens.SbmSpec(d=d, sizes=tuple(sizes), probs=(probs + probs.T) / 2.0, seed=seed)
    coeffs = gen.uniform(0.1, 1.0, size=(d, d))
    block = qve.BlockProfile(d=d, weights=sizes / n, coeffs=(coeffs + coeffs.T) / 2.0)
    profile = {"block": block, "full": qve.expand_block_profile(block, n),
               "irreducible": random_profile(n, seed=seed % 1000)}[kind]
    law = draw(st.sampled_from(ens.LAW_KINDS))
    bound = draw(st.floats(min_value=1.0, max_value=4.0)) if law == "scaled_bernoulli_centered" else None
    spec = wigner_spec(n, seed, ens.EntryLaw(law, bound), profile)
    p = draw(st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return spec if p is None else ens.SparseSpec(base=spec, p=p)


@given(spec=ensemble_specs())
@settings(max_examples=60)
def test_normalized_sample_equals_the_composed_raw_path(spec):
    m = ens.sample(spec)
    if isinstance(spec, ens.SbmSpec):
        assert np.array_equal(m, sbm_as_before(spec))
        labels = spec.block_labels()
        expected = spec.probs[labels[:, None], labels[None, :]]
        centered = (sbm_as_before(spec) - expected) / (math.sqrt(spec.n) * math.sqrt(spec.sigma_squared))
        composed = ens.center_and_scale_sbm(m, spec)
        assert composed.tobytes() == centered.tobytes()
    else:
        n, _, p_eff = ens.ensemble_parameters(spec)
        composed = m * (1.0 / math.sqrt(n * p_eff))
    assert ens.normalized_sample(spec).tobytes() == composed.tobytes()


def normalized_as_before(spec):
    """The normalized matrix built the earlier way: the upper triangle's raw
    entries scaled (dense, sparse) or centered (block models), then filled."""
    base = spec.base if isinstance(spec, ens.SparseSpec) else spec
    n = base.n
    iu, ju = np.triu_indices(n)
    counters = rng.pair_counters(iu, ju)
    if isinstance(spec, ens.SbmSpec):
        labels = spec.block_labels()
        p_edge = spec.probs[labels[iu], labels[ju]]
        vals = (rng.uniforms(rng.stream_key(spec.seed, rng.TAG_EDGES), counters) < p_edge).astype(np.float64)
        vals[iu == ju] = 0.0
        vals = (vals - p_edge) / (math.sqrt(n) * math.sqrt(spec.sigma_squared))
    else:
        if isinstance(base.profile, qve.VarianceProfile):
            labels, coeffs = np.arange(n), base.profile.entries
        else:
            labels, coeffs = qve.block_labels(base.profile, n), base.profile.coeffs
        vals = base.law.sample(rng.stream_key(base.seed, rng.TAG_VALUES), counters)
        vals = vals * np.sqrt(coeffs)[labels[iu], labels[ju]]
        if isinstance(spec, ens.SparseSpec):
            vals = vals * (rng.uniforms(rng.stream_key(base.seed, rng.TAG_MASK), counters) < spec.p)
        vals = vals * (1.0 / math.sqrt(n * ens.ensemble_parameters(spec)[2]))
    out = np.zeros((n, n))
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


@given(spec=ensemble_specs())
@settings(max_examples=60)
def test_normalized_sample_equals_the_earlier_upper_triangle_path(spec):
    assert ens.normalized_sample(spec).tobytes() == normalized_as_before(spec).tobytes()


@pytest.mark.parametrize("sizes, probs", [
    ((1,), [[0.3]]),
    ((2,), [[0.5]]),
    ((150, 250), [[0.1, 0.02], [0.02, 0.07]]),
    ((40, 1, 60), [[0.9, 0.0, 0.2], [0.0, 0.0, 0.6], [0.2, 0.6, 0.05]]),
    ((300, 300), [[0.02, 0.02], [0.02, 0.02]]),
])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_normalized_sbm_equals_the_earlier_upper_triangle_path(sizes, probs, seed):
    spec = ens.SbmSpec(d=len(sizes), sizes=sizes, probs=np.array(probs), seed=seed)
    assert ens.normalized_sample(spec).tobytes() == normalized_as_before(spec).tobytes()


def test_centering_is_in_place_on_a_writeable_float64_sample_and_copies_any_other_input():
    spec = ens.SbmSpec(d=2, sizes=(30, 50), probs=np.array([[0.3, 0.1], [0.1, 0.2]]), seed=4)
    adj = ens.sample(spec)
    expected = centered_as_gathered(adj, spec)
    assert ens.center_and_scale_sbm(adj, spec) is adj
    assert adj.tobytes() == expected.tobytes()

    read_only = ens.sample(spec)
    read_only.setflags(write=False)
    for other in (read_only, ens.sample(spec).astype(np.int64), ens.sample(spec).tolist()):
        before = np.array(other)
        centered = ens.center_and_scale_sbm(other, spec)
        assert not np.shares_memory(centered, other)
        assert np.array_equal(other, before)
        assert centered.tobytes() == expected.tobytes()


def centered_as_gathered(adj, spec):
    """The centering as it was: E A~ gathered into a second n x n array, subtracted, then scaled."""
    labels = spec.block_labels()
    out = spec.probs[labels[:, None], labels[None, :]]
    np.subtract(adj, out, out=out)
    return np.divide(out, math.sqrt(spec.n) * math.sqrt(spec.sigma_squared), out=out)


@pytest.mark.parametrize("d", [2, 500])
def test_sbm_normalized_sample_is_centered_in_its_one_buffer(d):
    # gathering E A~ into a second n x n array peaked at 2.00 x 8n^2; d = 500 is the unbounded-classes regime
    n, gen = 2000, np.random.default_rng(d)
    probs = np.triu(gen.uniform(0.01, 0.3, (d, d)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = ens.SbmSpec(d=d, sizes=(n // d,) * d, probs=probs + np.triu(probs, 1).T, seed=5)
    tracemalloc.start()
    try:
        centered = ens.normalized_sample(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n
    assert centered.tobytes() == centered_as_gathered(ens.sample(spec), spec).tobytes()


def sample_as_parent(spec):
    """The raw sample as the upper-triangle path drew it: every counter of the
    triangle at once, the values scattered into the matrix and its transpose."""
    base = spec.base if isinstance(spec, ens.SparseSpec) else spec
    n = base.n
    iu, ju = np.triu_indices(n)
    counters = rng.pair_counters(iu, ju)
    if isinstance(spec, ens.SbmSpec):
        labels = spec.block_labels()
        p_edge = spec.probs[labels[iu], labels[ju]] * (iu != ju)
        vals = (rng.uniforms(rng.stream_key(spec.seed, rng.TAG_EDGES), counters) < p_edge).astype(np.float64)
    else:
        if isinstance(base.profile, qve.VarianceProfile):
            labels, coeffs = np.arange(n), base.profile.entries
        else:
            labels, coeffs = qve.block_labels(base.profile, n), base.profile.coeffs
        vals = base.law.sample(rng.stream_key(base.seed, rng.TAG_VALUES), counters)
        vals = vals * np.sqrt(coeffs)[labels[iu], labels[ju]]
        if isinstance(spec, ens.SparseSpec):
            vals = vals * (rng.uniforms(rng.stream_key(base.seed, rng.TAG_MASK), counters) < spec.p)
    out = np.zeros((n, n))
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


@given(spec=ensemble_specs())
@settings(max_examples=60)
def test_sample_equals_the_upper_triangle_path(spec):
    assert ens.sample(spec).tobytes() == sample_as_parent(spec).tobytes()


# the largest n that fills in one strip of rows; one more takes two strips
ONE_STRIP = math.isqrt(ens._STRIP_ENTRIES)


def strip_specs(n):
    two = qve.BlockProfile(d=2, weights=np.array([0.4, 0.6]), coeffs=np.array([[1.0, 0.3], [0.3, 0.6]]))
    sizes = (n,) if n == 1 else (n // 3, n - n // 3)
    probs = np.array([[0.2]]) if n == 1 else np.array([[0.2, 0.05], [0.05, 0.1]])
    return {
        "irreducible": wigner_spec(n, seed=n, law=ens.EntryLaw("uniform_bounded"), profile=random_profile(n, seed=n)),
        "sparse-block": ens.SparseSpec(base=wigner_spec(n, seed=n + 1, profile=None if n < 2 else two), p=0.2),
        "sbm": ens.SbmSpec(d=len(sizes), sizes=sizes, probs=probs, seed=n + 2),
    }


@pytest.mark.parametrize("kind", ["irreducible", "sparse-block", "sbm"])
@pytest.mark.parametrize("n", [1, ONE_STRIP, ONE_STRIP + 1])
def test_sample_equals_the_upper_triangle_path_across_strip_boundaries(n, kind):
    assert ens._STRIP_ENTRIES // ONE_STRIP >= ONE_STRIP > ens._STRIP_ENTRIES // (ONE_STRIP + 1)
    spec = strip_specs(n)[kind]
    assert ens.sample(spec).tobytes() == sample_as_parent(spec).tobytes()


@pytest.mark.parametrize("spec", [
    wigner_spec(2000, seed=3, law=ens.EntryLaw("scaled_bernoulli_centered", 2.0),
                profile=qve.BlockProfile(d=3, weights=np.full(3, 1.0 / 3.0),
                                         coeffs=np.array([[1.0, 0.2, 0.5], [0.2, 0.7, 0.1], [0.5, 0.1, 0.9]]))),
    ens.SbmSpec(d=2, sizes=(700, 1300), probs=np.array([[0.1, 0.02], [0.02, 0.07]]), seed=11),
], ids=["dense", "sbm"])
def test_campaign_size_sample_equals_the_upper_triangle_path(spec):
    assert ens.sample(spec).tobytes() == sample_as_parent(spec).tobytes()


def test_dense_normalized_sample_allocates_little_beyond_its_result():
    # the upper-triangle path peaked at 3.4 times the n x n result: two index
    # arrays of n^2/2, their counters, the values, then the scatter
    n = 2000
    spec = wigner_spec(n, seed=4)  # built first: VarianceProfile.constant(n) allocates n^2 itself
    tracemalloc.start()
    try:
        ens.normalized_sample(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


@pytest.mark.parametrize("spec", [
    wigner_spec(30, seed=1, profile=random_profile(30, seed=2)),
    ens.SparseSpec(base=wigner_spec(30, seed=1), p=0.3),
    ens.SbmSpec(d=2, sizes=(10, 20), probs=np.array([[0.5, 0.1], [0.1, 0.3]]), seed=1),
    ens.SparseSpec(base=wigner_spec(ONE_STRIP + 40, seed=1), p=0.3),
], ids=["wigner", "sparse", "sbm", "sparse-two-strips"])
def test_trial_matrix_is_one_draw(monkeypatch, spec):
    # each stream of the spec hashes every counter of the upper triangle, and
    # only those, and a normalized sample draws the raw sample once
    hashed, draws = {}, []
    hash_u64, sample = rng.hash_u64, ens.sample
    monkeypatch.setattr(rng, "hash_u64", lambda key, c: hashed.setdefault(int(key), []).append(np.ravel(c)) or
                        hash_u64(key, c))
    monkeypatch.setattr(ens, "sample", lambda s: draws.append(s) or sample(s))
    ens.normalized_sample(spec)
    base = spec.base if isinstance(spec, ens.SparseSpec) else spec
    tags = {ens.WignerSpec: [rng.TAG_VALUES], ens.SparseSpec: [rng.TAG_VALUES, rng.TAG_MASK],
            ens.SbmSpec: [rng.TAG_EDGES]}[type(spec)]
    assert sorted(hashed) == sorted(int(rng.stream_key(base.seed, tag)) for tag in tags)
    iu, ju = np.triu_indices(base.n)
    upper = np.sort(rng.pair_counters(iu, ju))
    for counters in hashed.values():
        assert np.array_equal(np.unique(np.concatenate(counters)), upper)
    assert len(draws) == 1 and draws[0] is spec


# ---------------------------------------------------------------------------
# sparse sampling


def test_p_one_mask_is_identity():
    base = wigner_spec(50, seed=3)
    dense = ens.sample_wigner(base)
    sparse = ens.sample_sparse(ens.SparseSpec(base=base, p=1.0))
    assert np.array_equal(dense, sparse)


def test_sparse_keep_fraction():
    base = wigner_spec(1000, seed=5)
    m = ens.sample_sparse(ens.SparseSpec(base=base, p=0.05))
    iu, ju = np.triu_indices(1000, k=1)
    frac = np.count_nonzero(m[iu, ju]) / iu.size
    assert frac == pytest.approx(0.05, abs=0.01)
    n, _, p_eff = ens.ensemble_parameters(ens.SparseSpec(base=base, p=0.05))
    assert 1.0 / math.sqrt(n * p_eff) == pytest.approx(1.0 / math.sqrt(1000 * 0.05))


def test_sparse_mask_independent_of_values():
    base = wigner_spec(300, seed=9)
    m = ens.sample_sparse(ens.SparseSpec(base=base, p=0.5))
    kept = m[np.triu_indices(300, k=1)]
    kept = kept[kept != 0.0]
    # kept entries are +-1 in balanced proportion; dependence would skew them
    assert abs(kept.mean()) < 5.0 / math.sqrt(kept.size)


def test_p_zero_rejected():
    with pytest.raises(InvalidSpec):
        ens.SparseSpec(base=wigner_spec(10), p=0.0)


# ---------------------------------------------------------------------------
# block models


def test_minimal_sbm_entries():
    spec = ens.SbmSpec(d=1, sizes=(2,), probs=np.array([[0.5]]), seed=1)
    a = ens.sample_sbm(spec)
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0
    assert a[0, 1] in (0.0, 1.0)
    assert a[0, 1] == a[1, 0]


def test_sbm_block_densities():
    probs = np.array([[0.1, 0.02], [0.02, 0.1]])
    spec = ens.SbmSpec(d=2, sizes=(500, 500), probs=probs, seed=4)
    a = ens.sample_sbm(spec)
    within = a[:500, :500][np.triu_indices(500, k=1)]
    cross = a[:500, 500:]
    assert within.mean() == pytest.approx(0.1, abs=0.01)
    assert cross.mean() == pytest.approx(0.02, abs=0.005)


def test_all_zero_probabilities_give_zero_matrix():
    spec = ens.SbmSpec(d=2, sizes=(5, 5), probs=np.zeros((2, 2)), seed=0)
    assert not ens.sample_sbm(spec).any()


def test_center_and_scale_arithmetic():
    spec = ens.SbmSpec(d=1, sizes=(2,), probs=np.array([[0.5]]), seed=0)
    centered = ens.center_and_scale_sbm(ens.sample_sbm(spec), spec)
    unit = 0.5 / (math.sqrt(2.0) * 0.5)
    assert abs(centered[0, 0]) == pytest.approx(unit)
    assert centered[0, 0] == pytest.approx(-unit)
    assert abs(centered[0, 1]) == pytest.approx(unit)


def test_centering_removes_the_mean():
    probs = np.array([[0.2, 0.05], [0.05, 0.15]])
    spec = ens.SbmSpec(d=2, sizes=(300, 200), probs=probs, seed=8)
    centered = ens.center_and_scale_sbm(ens.sample_sbm(spec), spec)
    offdiag = centered[np.triu_indices(500, k=1)]
    assert abs(offdiag.mean()) <= 3.0 * offdiag.std() / math.sqrt(offdiag.size)


def test_degenerate_variance_raises():
    spec = ens.SbmSpec(d=1, sizes=(4,), probs=np.array([[0.0]]), seed=0)
    with pytest.raises(DegenerateVariance):
        ens.center_and_scale_sbm(ens.sample_sbm(spec), spec)
    with pytest.raises(DegenerateVariance):
        ens.effective_profile(spec)


def test_unbounded_blocks_regime_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ens.SbmSpec(d=8, sizes=(2,) * 8, probs=np.full((8, 8), 0.4), seed=0)
    assert any("unbounded-blocks" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# effective profiles


def test_effective_profile_equal_probabilities_is_flat():
    spec = ens.SbmSpec(d=2, sizes=(600, 400), probs=np.full((2, 2), 0.1), seed=0)
    block = ens.effective_profile(spec)
    assert np.allclose(block.weights, [0.6, 0.4])
    assert np.allclose(block.coeffs, 1.0)


def test_effective_profile_coefficients():
    probs = np.array([[0.1, 0.02], [0.02, 0.05]])
    spec = ens.SbmSpec(d=2, sizes=(500, 500), probs=probs, seed=0)
    block = ens.effective_profile(spec)
    assert block.coeffs[0, 0] == pytest.approx(1.0)
    assert block.coeffs[1, 1] == pytest.approx(0.05 * 0.95 / 0.09)
    assert block.coeffs[0, 1] == pytest.approx(0.02 * 0.98 / 0.09)


def test_effective_profile_passthrough_for_dense_and_sparse():
    profile = random_profile(16, seed=5)
    spec = wigner_spec(16, profile=profile)
    assert ens.effective_profile(spec) is profile
    assert ens.effective_profile(ens.SparseSpec(base=spec, p=0.3)) is profile


def test_effective_profile_rejects_zero_variance_block():
    probs = np.array([[0.1, 0.0], [0.0, 0.1]])
    spec = ens.SbmSpec(d=2, sizes=(4, 4), probs=probs, seed=0)
    with pytest.raises(InvalidProfile):
        ens.effective_profile(spec)


def test_ensemble_parameters():
    spec = wigner_spec(100)
    assert ens.ensemble_parameters(spec) == (100, 1.0, 1.0)
    assert ens.ensemble_parameters(ens.SparseSpec(base=spec, p=0.2)) == (100, 1.0, 0.2)
    sbm = ens.SbmSpec(d=2, sizes=(50, 50), probs=np.array([[0.3, 0.1], [0.1, 0.2]]), seed=0)
    assert ens.ensemble_parameters(sbm) == (100, 1.0, 0.3)


# ---------------------------------------------------------------------------
# serialization and export


@given(seed=st.integers(min_value=0, max_value=2**62))
@settings(max_examples=10)
def test_ensemble_json_round_trip(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp("specs") / "e.json"
    spec = ens.SparseSpec(base=wigner_spec(12, seed=seed), p=0.25)
    spec.to_json(path)
    back = read_json(ens.EnsembleSpec, path)
    assert back.p == spec.p and back.base.seed == spec.base.seed
    assert back.base.law == spec.base.law
    assert back.base.profile.to_dict() == spec.base.profile.to_dict()
    assert np.array_equal(ens.sample(back), ens.sample(spec))


def test_sbm_json_round_trip(tmp_path):
    spec = ens.SbmSpec(d=2, sizes=(6, 4), probs=np.array([[0.3, 0.1], [0.1, 0.2]]), seed=5)
    path = tmp_path / "sbm.json"
    spec.to_json(path)
    back = read_json(ens.EnsembleSpec, path)
    assert back.sizes == spec.sizes
    assert np.array_equal(back.probs, spec.probs)


def test_binary_matrix_round_trip(tmp_path):
    m = ens.sample_wigner(wigner_spec(17, seed=2))
    path = tmp_path / "m.bin"
    ens.save_matrix_binary(m, path)
    back = ens.load_matrix_binary(path)
    assert np.array_equal(back, m)


@pytest.mark.parametrize(
    "payload",
    [
        struct.pack("<q", 3) + bytes(8 * 8),  # truncated: 8 of 9 values
        struct.pack("<q", 0),
        struct.pack("<q", -1) + bytes(8),
        bytes(4),  # shorter than the header
    ],
    ids=["truncated", "n0", "n-1", "no-header"],
)
def test_binary_matrix_rejects_inconsistent_header(tmp_path, payload):
    path = tmp_path / "bad.bin"
    path.write_bytes(payload)
    with pytest.raises(InvalidSpec):
        ens.load_matrix_binary(path)


def test_matrix_market_round_trip(tmp_path):
    m = ens.sample_wigner(wigner_spec(9, seed=2))
    path = tmp_path / "m.mtx"
    ens.save_matrix_market(m, path)
    back = np.asarray(scipy.io.mmread(str(path)))
    assert np.allclose(back, m)


def test_with_seed_rewrites_the_right_field():
    spec = ens.SparseSpec(base=wigner_spec(10, seed=1), p=0.5)
    reseeded = ens.with_seed(spec, 99)
    assert reseeded.base.seed == 99 and reseeded.p == 0.5
    sbm = ens.SbmSpec(d=1, sizes=(4,), probs=np.array([[0.2]]), seed=1)
    assert ens.with_seed(sbm, 7).seed == 7


@pytest.mark.parametrize("sparse", [False, True])
def test_with_seed_skips_the_profile_scan(monkeypatch, sparse):
    def build(seed):
        base = wigner_spec(60, seed=seed, law=ens.EntryLaw("uniform_bounded"), profile=random_profile(60, seed=3))
        return ens.SparseSpec(base=base, p=0.4) if sparse else base

    spec = build(1)
    calls = []
    real = ens.reduce_profile
    monkeypatch.setattr(ens, "reduce_profile", lambda profile: calls.append(1) or real(profile))
    reseeded = ens.with_seed(spec, 17)
    assert calls == []
    assert np.array_equal(ens.sample(reseeded), ens.sample(build(17)))
    assert (spec.base.seed if sparse else spec.seed) == 1  # the original is untouched
