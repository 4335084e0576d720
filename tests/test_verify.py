import ast
import builtins
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import on_workers
from speclaw import cli, ensembles as ens
import speclaw
from speclaw import qve, spectra, verify
from speclaw.errors import AssertionFailure, InvalidSpec, NonConvergence, report_json_bytes
from speclaw.spectra import count_in_interval, tridiagonalize


def dense_config(n=300, trials=4, length=0.4, seed=100, profile=None, law=None, **kw):
    spec = ens.WignerSpec(
        n=n, profile=profile or qve.VarianceProfile.constant(n), law=law or ens.EntryLaw("rademacher"), seed=0
    )
    return verify.LocalLawConfig(
        ensemble=spec,
        interval_len_factor=verify.factor_for_length(length, spec),
        trials=trials,
        base_seed=seed,
        **kw,
    )


@pytest.fixture(scope="module")
def dense_report():
    return verify.verify_local_law(dense_config())


# ---------------------------------------------------------------------------
# local law


def test_full_span_interval_counts_everything():
    cfg = dense_config(n=300, trials=3)
    curve = qve.extract_density(ens.effective_profile(cfg.ensemble), qve.default_grid(), eta=cfg.eta)
    predicted = 300 * qve.integrate_density(curve, -3.0, 3.0)
    trials = [ens.with_seed(cfg.ensemble, cfg.base_seed + i) for i in range(cfg.trials)]
    observed = [count_in_interval(tridiagonalize(ens.normalized_sample(spec)), -3.0, 3.0) for spec in trials]
    assert predicted == pytest.approx(300.0, abs=0.5)
    assert observed == [300, 300, 300]
    assert max(abs(o - predicted) / (300 * 6.0) for o in observed) <= 1e-3


def test_interval_placement_matches_config(dense_report):
    cfg_len = 0.4
    for rec in dense_report.intervals:
        assert rec.hi - rec.lo == pytest.approx(cfg_len, rel=1e-9)
    mids = [(rec.lo + rec.hi) / 2 for rec in dense_report.intervals]
    assert mids == sorted(mids)
    assert mids[1] == pytest.approx(0.0, abs=1e-9)


def test_deviations_are_recomputable(dense_report):
    n = dense_report.n
    for rec in dense_report.intervals:
        for obs, dev in zip(rec.observed, rec.deviations):
            assert dev == pytest.approx(abs(obs - rec.predicted) / (n * (rec.hi - rec.lo)))


def irreducible_config(n=qve._BLOCK_MIN_DIM + 12, trials=2, seed=7):
    """A campaign whose profile reduces to nothing, so its prediction is solved in column blocks."""
    a = np.random.default_rng(seed).uniform(0.3, 1.0, size=(n, n))
    return dense_config(n=n, trials=trials, length=0.4, profile=qve.VarianceProfile(n=n, entries=(a + a.T) / 2.0))


def _cold_points(grid):
    """The subgrid extract_density starts cold: every _COARSE_STRIDE-th point and the last."""
    return np.unique(np.append(grid[::qve._COARSE_STRIDE], grid[-1]))


@pytest.mark.parametrize("threads", [1, 2])
def test_prediction_blocks_and_quadrature_run_pinned(monkeypatch, threads):
    controls = cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS bundled with numpy/scipy")
    before = [get() for get, _ in controls]
    solve, seen = qve._solve_batch, []

    def recording_solve(profile, zs, *args, **kwargs):
        seen.append((kwargs.get("initial") is None, [get() for get, _ in controls]))  # cold: a prediction block
        return solve(profile, zs, *args, **kwargs)

    monkeypatch.setattr(qve, "_solve_batch", recording_solve)
    on_workers(threads, verify.verify_local_law, irreducible_config())
    coarse = [pins for cold, pins in seen if cold]
    warm = [pins for cold, pins in seen if not cold]  # the fine phase's blocks and the quadrature
    # the 61 cold points fold onto 31 mirror pairs, one block
    assert len(coarse) == math.ceil(np.unique(np.abs(_cold_points(qve.default_grid()))).size / qve._BLOCK_COLUMNS) == 1
    assert warm
    assert all(pins == [1] * len(controls) for pins in coarse + warm)
    assert [get() for get, _ in controls] == before


@pytest.mark.parametrize("threads", [1, 2])
def test_pin_is_restored_when_a_prediction_block_raises(monkeypatch, threads):
    controls = cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS bundled with numpy/scipy")
    before = [get() for get, _ in controls]
    solve = qve._solve_batch

    def failing_solve(profile, zs, *args, **kwargs):
        if zs[0].real > 0.0:
            raise NonConvergence("block failed", x=float(zs[0].real), eta=qve.DEFAULT_ETA)
        return solve(profile, zs, *args, **kwargs)

    monkeypatch.setattr(qve, "_solve_batch", failing_solve)
    with pytest.raises(NonConvergence):
        on_workers(threads, verify.verify_local_law, irreducible_config())
    assert [get() for get, _ in controls] == before


def test_blocked_nonconvergence_names_the_lowest_failing_block_at_any_worker_count(monkeypatch):
    # three map evaluations cannot finish a cold column of the coarse phase
    monkeypatch.setattr(qve, "_MAX_ITER", 3)
    profile = verify.effective_profile(irreducible_config().ensemble)
    grid = qve.default_grid()
    failures = []
    for threads in (1, 2):
        with pytest.raises(NonConvergence) as err, cli.workers(threads) as mapper:
            qve.extract_density(profile, grid, mapper=mapper)
        failures.append((err.value.x, err.value.eta))
    coarse = _cold_points(grid)
    first_block = np.array_split(coarse, math.ceil(coarse.size / qve._BLOCK_COLUMNS))[0]
    with pytest.raises(NonConvergence) as err:
        qve._solve_batch(profile, first_block + 1j * qve.DEFAULT_ETA)
    assert failures == [(err.value.x, err.value.eta)] * 2


def test_fine_phase_nonconvergence_names_the_same_point_at_any_worker_count(monkeypatch):
    # tol = 0 for the warm-started columns: each fine block stalls at the rounding
    # floor after the coarse phase has converged, and the pool must raise the
    # failure of the first fine block whatever the worker count
    solve = qve._solve_batch

    def fine_tol_zero(profile, zs, tol=qve.DEFAULT_TOL, initial=None):
        return solve(profile, zs, 0.0 if initial is not None else tol, initial=initial)

    monkeypatch.setattr(qve, "_solve_batch", fine_tol_zero)
    profile = verify.effective_profile(irreducible_config().ensemble)
    grid = qve.default_grid()
    failures = []
    for threads in (1, 2, 3):
        with pytest.raises(NonConvergence, match="stalled") as err, cli.workers(threads) as mapper:
            qve.extract_density(profile, grid, mapper=mapper)
        failures.append((err.value.x, err.value.eta, err.value.residual, err.value.iterations))
    assert failures == [failures[0]] * 3
    fine = np.setdiff1d(grid, _cold_points(grid))
    first_block = np.array_split(fine, math.ceil(fine.size / qve._BLOCK_COLUMNS))[0]
    assert failures[0][0] in first_block


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_mirrored_campaign_intervals_share_one_quadrature(monkeypatch, threads):
    # the bulk of the antisymmetric default grid is [-b, b], so the outer two of
    # three intervals mirror each other exactly and the middle one mirrors itself:
    # two integrate_density calls, and the outer two read one mass
    integrate, calls = verify.integrate_density, []
    monkeypatch.setattr(verify, "integrate_density", lambda curve, lo, hi: calls.append((lo, hi)) or
                        integrate(curve, lo, hi))
    report = on_workers(threads, verify.verify_local_law, irreducible_config())
    left, middle, right = report.intervals
    assert (left.lo, left.hi) == (-right.hi, -right.lo) and middle.lo == -middle.hi
    assert left.predicted == right.predicted
    assert sorted(calls) == [(middle.lo, middle.hi), (right.lo, right.hi)]


def test_interval_masses_fold_only_mirrors_inside_the_curve():
    # an interval reads its mirror's mass only where the curve spans the mirror
    spec = dense_config(n=300).ensemble
    curve = qve.extract_density(ens.effective_profile(spec), np.linspace(-2.5, 2.0, 451))
    masses = verify.interval_masses(curve, [(-0.5, -0.2), (0.2, 0.5), (-2.4, -2.1), (-1.0, 1.0)])
    assert masses[0] == masses[1]
    assert masses == [qve.integrate_density(curve, lo, hi)
                      for lo, hi in [(0.2, 0.5), (0.2, 0.5), (-2.4, -2.1), (-1.0, 1.0)]]


@pytest.mark.parametrize("campaign", [verify.verify_local_law, verify.verify_delocalization])
def test_blocked_campaign_reports_identical_at_any_worker_count(campaign):
    cfg = irreducible_config()
    reports = {report_json_bytes(on_workers(threads, campaign, cfg).to_dict()) for threads in (1, 2, 3)}
    assert len(reports) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_campaign_rejects_fewer_than_one_worker(threads):
    with pytest.raises(InvalidSpec, match="at least 1 worker"):
        on_workers(threads, verify.verify_local_law, dense_config(n=60, trials=2, length=0.5))


def test_pass_fraction_consistency(dense_report):
    cfg = verify.LocalLawConfig.from_dict(dense_report.config)
    per_trial = np.zeros(cfg.trials)
    for rec in dense_report.intervals:
        per_trial = np.maximum(per_trial, rec.deviations)
    assert dense_report.trial_pass == [bool(d <= cfg.delta) for d in per_trial]
    assert dense_report.pass_fraction == pytest.approx(np.mean(dense_report.trial_pass))
    assert dense_report.max_deviation == pytest.approx(per_trial.max())


def test_report_is_deterministic_and_thread_invariant():
    cfg = dense_config(n=200, trials=3)
    a = on_workers(1, verify.verify_local_law, cfg)
    b = on_workers(1, verify.verify_local_law, cfg)
    c = on_workers(2, verify.verify_local_law, cfg)
    assert report_json_bytes(a.to_dict()) == report_json_bytes(b.to_dict())
    assert report_json_bytes(a.to_dict()) == report_json_bytes(c.to_dict())


def test_sparse_p_one_matches_dense_pipeline():
    base = ens.WignerSpec(
        n=200, profile=qve.VarianceProfile.constant(200), law=ens.EntryLaw("rademacher"), seed=0
    )
    factor = verify.factor_for_length(0.5, base)
    dense_cfg = verify.LocalLawConfig(ensemble=base, interval_len_factor=factor, trials=3, base_seed=5)
    sparse_cfg = verify.LocalLawConfig(
        ensemble=dataclasses.replace(base, p=1.0), interval_len_factor=factor, trials=3, base_seed=5
    )
    dense_rep = verify.verify_local_law(dense_cfg).to_dict()
    sparse_rep = verify.verify_local_law(sparse_cfg).to_dict()
    dense_rep.pop("config")
    sparse_rep.pop("config")
    assert dense_rep == sparse_rep


def test_equal_probability_sbm_reduces_to_constant_profile():
    sbm = ens.SbmSpec(d=2, sizes=(100, 100), probs=np.full((2, 2), 0.1), seed=0)
    block = ens.effective_profile(sbm)
    const = qve.reduce_profile(qve.VarianceProfile.constant(8))
    pt = complex(0.3, 0.1)
    assert abs(qve.solve_qve(block, pt).m - qve.solve_qve(const, pt).m) < 1e-10


def test_sbm_campaign_runs_and_passes_loosely():
    sbm = ens.SbmSpec(d=2, sizes=(150, 150), probs=np.array([[0.2, 0.05], [0.05, 0.2]]), seed=0)
    cfg = verify.LocalLawConfig(
        ensemble=sbm,
        delta=0.2,
        interval_len_factor=verify.factor_for_length(0.5, sbm),
        num_intervals=2,
        trials=3,
        base_seed=11,
    )
    report = verify.verify_local_law(cfg)
    assert report.pass_fraction >= 2 / 3
    assert not report.k_bound_flag


def test_k_bound_flag_marks_an_eta_floor_above_a_tenth():
    # K^2 log n/(n p_eff) is log(200)/200 = 0.026 for the dense campaign, log(200)/40 = 0.13 kept at p = 0.2
    dense = dense_config(n=200, trials=1, length=0.2)
    sparse = dataclasses.replace(dense.ensemble, p=0.2)
    strained = dataclasses.replace(dense, ensemble=sparse, interval_len_factor=verify.factor_for_length(0.2, sparse))
    for cfg, flag in ((dense, False), (strained, True)):
        assert (verify.local_law_scale(cfg.ensemble) > 0.1) is flag
        assert verify.verify_local_law(cfg).k_bound_flag is flag
        assert verify.verify_delocalization(cfg).k_bound_flag is flag


def test_quartering_p_quadruples_the_local_law_scale_and_halves_the_deloc_ratios(monkeypatch):
    # eta_0 = K^2 log n/(n p) is exactly 4x at p/4 (a power of two), and so are the interval length
    # factor * eta_0 and the Stieltjes floor eta_0; the same sup-norms over sqrt(eta_0) read exactly half
    full = dense_config(n=100, trials=1, length=0.1)
    quarter = dataclasses.replace(full, ensemble=dataclasses.replace(full.ensemble, p=0.25))
    scales = [verify.local_law_scale(cfg.ensemble) for cfg in (full, quarter)]
    assert scales == [math.log(100) / 100, 4 * scales[0]]

    lengths, place = [], verify.place_intervals
    monkeypatch.setattr(verify, "place_intervals",
                        lambda bulk, length, num, n: lengths.append(length) or place(bulk, length, num, n))
    for cfg in (full, quarter):
        on_workers(1, verify.verify_local_law, cfg)
    assert lengths == [full.interval_len_factor * scales[0], 4 * lengths[0]]
    floors = [on_workers(1, verify.verify_stieltjes_closeness, cfg, [1.0]).eta_floor for cfg in (full, quarter)]
    assert floors == [scales[0], 4 * scales[0]]

    summary = spectra.eigen_full(ens.normalized_sample(full.ensemble), want_vectors=True)
    monkeypatch.setattr(verify, "eigen_full", lambda matrix, want_vectors: summary)  # the same sup-norms
    dense, sparse = (on_workers(1, verify.verify_delocalization, cfg) for cfg in (full, quarter))
    assert sparse.records == [dataclasses.replace(r, max_ratio=r.max_ratio / 2) for r in dense.records]
    assert sparse.ratio_quantiles == {q: v / 2 for q, v in dense.ratio_quantiles.items()}
    assert (dense.max_ratio / 2, dense.k_bound_flag, sparse.k_bound_flag) == (sparse.max_ratio, False, True)
    norms = summary.inf_norms
    assert np.array_equal(spectra.normalized_deloc_ratios(norms, scales[1]),
                          spectra.normalized_deloc_ratios(norms, scales[0]) / 2)


def test_empty_bulk_raises():
    cfg = dense_config(n=100, trials=1, eps=10.0)
    with pytest.raises(InvalidSpec, match="predicted density never reaches eps=10"):
        verify.verify_local_law(cfg)


@pytest.mark.parametrize("campaign, kw, message", [
    (verify.verify_local_law, {"length": 5.0}, "no interval of length 5 fits"),
    (verify.verify_delocalization, {"eps": 10.0}, "predicted density never reaches eps=10"),
], ids=["local-law-intervals-do-not-fit", "deloc-eps-above-the-density"])
def test_every_refusal_comes_before_the_first_sample(monkeypatch, campaign, kw, message):
    drawn, sample = [], verify.normalized_sample
    monkeypatch.setattr(verify, "normalized_sample", lambda spec: drawn.append(spec.seed) or sample(spec))
    with pytest.raises(InvalidSpec, match=message):
        campaign(dense_config(n=100, trials=2, **kw))
    assert drawn == []
    campaign(dense_config(n=100, trials=2))  # the same campaign without the refusal draws both samples
    assert sorted(drawn) == [100, 101]


def test_local_law_report_round_trip(tmp_path, dense_report):
    path = tmp_path / "r.json"
    dense_report.to_json(path)
    assert path.read_bytes() == report_json_bytes(dense_report.to_dict())
    back = verify.LocalLawReport.from_dict(json.loads(path.read_text()))
    assert report_json_bytes(back.to_dict()) == report_json_bytes(dense_report.to_dict())
    csv_path = tmp_path / "r.csv"
    dense_report.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    cfg = verify.LocalLawConfig.from_dict(dense_report.config)
    assert len(lines) == 1 + cfg.num_intervals * cfg.trials


def test_legacy_full_profile_config_runs_like_the_compact_one(tmp_path):
    block = qve.BlockProfile(d=2, weights=np.array([60, 90]) / 150, coeffs=np.array([[1.0, 0.4], [0.4, 0.7]]))
    compact = dense_config(n=150, trials=2, length=0.5, profile=block)
    legacy = compact.to_dict()
    legacy["ensemble"]["profile"] = qve.expand_block_profile(block, 150).to_dict()
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    loaded = verify.load_local_law_config(path)
    assert loaded.to_dict() == compact.to_dict()
    a = verify.verify_local_law(loaded).to_dict()
    b = verify.verify_local_law(compact).to_dict()
    assert a.pop("config") == b.pop("config")
    assert report_json_bytes(a) == report_json_bytes(b)


def _campaigns():
    return [verify.verify_local_law, lambda cfg, **kw: verify.verify_stieltjes_closeness(cfg, [0.3, 0.5], **kw),
            verify.verify_delocalization]


def _sparse(cfg, p=0.6):
    spec = dataclasses.replace(cfg.ensemble, p=p)
    return dataclasses.replace(cfg, ensemble=spec, interval_len_factor=verify.factor_for_length(0.4, spec))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("campaign", _campaigns())
def test_full_profile_reports_cite_the_profile_by_fingerprint(tmp_path, campaign, sparse):
    cfg = _sparse(irreducible_config()) if sparse else irreducible_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = verify.load_local_law_config(path)
    report = campaign(loaded).to_dict()
    wigner = loaded.ensemble
    cited = {"n": wigner.n, "fingerprint": qve.profile_fingerprint(wigner.profile)}
    expected = loaded.to_dict()
    expected["ensemble"]["profile"] = cited
    assert report["config"] == expected
    assert len(report_json_bytes(report)) < 8192


@pytest.mark.parametrize("campaign", _campaigns())
@pytest.mark.parametrize("make_config", [
    lambda: dense_config(n=60, trials=2, length=0.5),  # the constant profile is a d = 1 block
    lambda: dense_config(n=60, trials=2, length=0.5, profile=qve.BlockProfile(
        d=2, weights=np.array([0.5, 0.5]), coeffs=np.array([[1.0, 0.4], [0.4, 0.7]]))),
    lambda: _sparse(dense_config(n=60, trials=2, length=0.5)),
    lambda: verify.LocalLawConfig(
        ensemble=ens.SbmSpec(d=2, sizes=(30, 30), probs=np.array([[0.5, 0.1], [0.1, 0.5]]), seed=0),
        interval_len_factor=0.5, trials=2),
])
def test_compact_reports_embed_the_config_unchanged(campaign, make_config):
    cfg = make_config()
    assert campaign(cfg).to_dict()["config"] == cfg.to_dict()


def test_cited_local_law_report_round_trips_byte_for_byte(tmp_path):
    report = verify.verify_local_law(irreducible_config())
    path = tmp_path / "r.json"
    report.to_json(path)
    back = verify.LocalLawReport.from_dict(json.loads(path.read_text()))
    assert report_json_bytes(back.to_dict()) == path.read_bytes()


def test_constant_dense_config_is_compact():
    cfg = dense_config(n=2000, trials=20)
    assert len(json.dumps(cfg.to_dict(), sort_keys=True)) < 1024


def test_config_validation():
    spec = ens.WignerSpec(
        n=10, profile=qve.VarianceProfile.constant(10), law=ens.EntryLaw("rademacher"), seed=0
    )
    with pytest.raises(InvalidSpec):
        verify.LocalLawConfig(ensemble=spec, delta=1.5)
    with pytest.raises(InvalidSpec):
        verify.LocalLawConfig(ensemble=spec, eps=-0.1)
    with pytest.raises(InvalidSpec):
        verify.LocalLawConfig(ensemble=spec, trials=0)


@pytest.mark.parametrize("ensemble", [
    ens.WignerSpec(n=1, profile=qve.VarianceProfile.constant(1), law=ens.EntryLaw("rademacher"), seed=0),
    ens.SbmSpec(d=1, sizes=(1,), probs=np.full((1, 1), 0.5), seed=0),
], ids=["wigner", "sbm"])
def test_interval_length_of_a_single_node_is_invalid(ensemble):
    # the length carries log n, which is 0 at n = 1; one check, one message
    p_eff = ens.ensemble_parameters(ensemble)[2]
    message = f"campaigns need n >= 2 and a finite K^2 log n/(n p_eff), got 0.0 at n=1, K=1.0, p_eff={p_eff}"
    for call in (verify.local_law_scale, lambda e: verify.factor_for_length(0.3, e),
                 lambda e: verify.LocalLawConfig(ensemble=e)):
        with pytest.raises(InvalidSpec) as exc:
            call(ensemble)
        assert str(exc.value) == message


def test_interval_placement_insets_and_falls_back():
    bulk = qve.BulkInterval(lo=-1.9, hi=1.9)
    narrow = verify.place_intervals(bulk, 0.2, 3, 200)
    assert narrow[0][0] >= bulk.lo + 0.2 / 2 - 1e-12
    assert narrow[-1][1] <= bulk.hi - 0.2 / 2 + 1e-12
    wide = verify.place_intervals(bulk, 2.0, 3, 200)
    for lo, hi in wide:
        assert lo >= bulk.lo - 1e-12 and hi <= bulk.hi + 1e-12
    with pytest.raises(InvalidSpec, match=re.escape("no interval of length 4 fits inside [-1.9, 1.9]")):
        verify.place_intervals(bulk, 4.0, 1, 200)


@pytest.mark.parametrize("length", [0.0, 1e-320, 1e-17])
def test_intervals_without_width_are_refused(length):
    # m -/+ length/2 rounds to m away from 0, where a deviation would divide 0 by 0
    bulk = qve.BulkInterval(lo=-1.9, hi=1.9)
    with pytest.raises(InvalidSpec, match="have no width"):
        verify.place_intervals(bulk, length, 3, 200)
    assert all(lo < hi for lo, hi in verify.place_intervals(bulk, 1e-15, 3, 200))  # one ulp of 1.9 is 2.2e-16


# ---------------------------------------------------------------------------
# Stieltjes closeness


def test_stieltjes_far_from_spectrum_is_tiny():
    cfg = dense_config(n=200, trials=3, num_intervals=2)
    report = verify.verify_stieltjes_closeness(cfg, [10.0])
    assert report.max_discrepancy <= 1e-2


def test_stieltjes_bulk_discrepancy_small():
    cfg = dense_config(n=500, trials=3, num_intervals=1)
    report = verify.verify_stieltjes_closeness(cfg, [0.1])
    assert report.max_discrepancy <= 0.1
    assert report.median_sup <= 0.05


def test_stieltjes_floor_enforced():
    cfg = dense_config(n=200, trials=1)
    floor = verify.local_law_scale(cfg.ensemble)
    with pytest.raises(InvalidSpec, match="below the configured floor"):
        verify.verify_stieltjes_closeness(cfg, [floor / 2.0])


def test_stieltjes_batches_match_per_point_solves_at_any_worker_count():
    # the campaign solves its (x, eta) pairs as one batch: 3 x 3 points in one
    # column block, then 13 x 4 = 52 points in two
    for num_intervals, etas in ((3, [0.3, 0.5, 1.0]), (13, [0.3, 0.5, 0.7, 1.0])):
        cfg = dataclasses.replace(irreducible_config(), num_intervals=num_intervals)
        reports = [on_workers(threads, verify.verify_stieltjes_closeness, cfg, etas) for threads in (1, 2, 3)]
        assert len({report_json_bytes(r.to_dict()) for r in reports}) == 1
        profile = verify.effective_profile(cfg.ensemble)
        assert len(reports[0].records) == len(etas) * num_intervals
        for rec in reports[0].records:
            want = qve.solve_qve(profile, complex(rec.x, rec.eta)).m
            assert abs(complex(*rec.predicted) - want) <= 1e-12 * abs(want)
    assert len(etas) * num_intervals > qve._BLOCK_COLUMNS and profile.dim >= qve._BLOCK_MIN_DIM


def test_stieltjes_discrepancies_are_the_per_point_abs_bit_for_bit():
    # the campaign compares all its trials and points as one array, with np.hypot;
    # each entry must be abs() of that point's own gap, which np.abs is not always
    cfg = dense_config(n=100, trials=3, num_intervals=3)
    report = verify.verify_stieltjes_closeness(cfg, [0.4, 0.1, 0.2])
    eigs = [np.linalg.eigvalsh(ens.normalized_sample(ens.with_seed(cfg.ensemble, cfg.base_seed + t)))
            for t in range(cfg.trials)]
    np_abs_differs = False
    for rec in report.records:
        z, m = complex(rec.x, rec.eta), complex(*rec.predicted)
        gaps = [complex(np.mean(1.0 / (e - z))) - m for e in eigs]
        assert rec.discrepancies == [abs(gap) for gap in gaps]
        np_abs_differs |= np.abs(np.array(gaps)).tolist() != rec.discrepancies
    assert np_abs_differs
    assert [rec.eta for rec in report.records[:3]] == [0.1, 0.2, 0.4]
    assert report.trial_sup == [max(rec.discrepancies[t] for rec in report.records) for t in range(cfg.trials)]


@pytest.mark.parametrize("eta_grid", [None, [[0.1, 0.2]], ["0.1"], [0.1 + 0j], [True], 0.1, [[0.1], [0.2, 0.3]]],
                         ids=["none", "2-d", "string", "complex", "boolean", "scalar", "ragged"])
def test_stieltjes_eta_grid_must_be_a_vector_of_reals(monkeypatch, eta_grid):
    predictions = []
    monkeypatch.setattr(verify, "extract_density", lambda *args, **kwargs: predictions.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="eta grid must be"):
            verify.verify_stieltjes_closeness(dense_config(n=100, trials=1), eta_grid)
    assert predictions == []


def test_stieltjes_report_round_trip(tmp_path):
    cfg = dense_config(n=100, trials=2, num_intervals=1)
    report = verify.verify_stieltjes_closeness(cfg, [0.5, 1.0])
    path = tmp_path / "s.json"
    report.to_json(path)
    import json

    back = verify.StieltjesReport.from_dict(json.loads(path.read_text()))
    assert back.to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# delocalization


def test_deloc_ratios_obey_unit_vector_floor():
    cfg = dense_config(n=200, trials=3)
    report = verify.verify_delocalization(cfg)
    n, k, p_eff = ens.ensemble_parameters(cfg.ensemble)
    floor = math.sqrt(p_eff) / (k * math.sqrt(math.log(n)))
    for rec in report.records:
        assert rec.max_ratio >= floor
        assert rec.bulk_count > 0
    assert report.max_ratio == pytest.approx(max(r.max_ratio for r in report.records))


def test_deloc_trial_without_bulk_eigenvalues_records_zeros(monkeypatch):
    # trial 1 finds no eigenvalue in the bulk; the pooled quantiles come from the others
    original, calls = verify.bulk_indices, []

    def bulk(*args):
        calls.append(None)
        return original(*args)[:0] if len(calls) == 2 else original(*args)

    monkeypatch.setattr(verify, "bulk_indices", bulk)
    report = on_workers(1, verify.verify_delocalization, dense_config(n=100, trials=3))
    assert report.records[1] == verify.DelocTrialRecord(trial=1, bulk_count=0, max_inf_norm=0.0, max_ratio=0.0)
    assert report.records[0].bulk_count > 0 and report.records[2].bulk_count > 0
    assert report.max_ratio == max(r.max_ratio for r in report.records)


def test_deloc_max_inf_norm_is_the_bulk_sup_norm_bit_for_bit(monkeypatch):
    # rebuilding the sup-norm from its ratio, ratio * K sqrt(log n)/sqrt(n p), misses it in the last bits
    # (trials 3, 4, 6 and 7 here)
    cfg = dense_config(n=250, trials=8, law=ens.EntryLaw("uniform_bounded"))
    summaries, eigen_full = [], verify.eigen_full
    monkeypatch.setattr(verify, "eigen_full", lambda *a, **kw: summaries.append(eigen_full(*a, **kw)) or summaries[-1])
    report = on_workers(1, verify.verify_delocalization, cfg)
    curve = qve.extract_density(ens.effective_profile(cfg.ensemble), qve.default_grid(), eta=cfg.eta)
    bulks = qve.detect_bulk(curve, cfg.eps)
    for rec, s in zip(report.records, summaries, strict=True):
        inside = np.zeros(s.n, dtype=bool)
        for b in bulks:
            inside |= (s.eigenvalues >= b.lo) & (s.eigenvalues <= b.hi)
        assert rec.bulk_count == inside.sum() > 0
        assert rec.max_inf_norm == s.inf_norms[inside].max()


def test_deloc_negative_control_is_localized():
    from speclaw import spectra

    n = 200
    control = np.diag(np.linspace(0.1, 1.0, n))
    s = spectra.eigen_full(control, want_vectors=True)
    intervals = [qve.BulkInterval(lo=0.0, hi=1.0)]
    norms = spectra.eigvec_inf_norms(s)[spectra.bulk_indices(s, intervals)]
    cfg = dense_config(n=n, trials=2)
    ratios = spectra.normalized_deloc_ratios(norms, verify.local_law_scale(cfg.ensemble))
    expected = math.sqrt(n / math.log(n))
    assert np.allclose(ratios, expected)

    # the separation grows with n (the acceptance suite checks 5x at n=1000)
    deloc = verify.verify_delocalization(cfg)
    assert expected >= 3.0 * deloc.max_ratio


def test_deloc_report_round_trip(tmp_path):
    cfg = dense_config(n=100, trials=2)
    report = verify.verify_delocalization(cfg)
    report.to_json(tmp_path / "d.json")
    import json

    back = verify.DelocReport.from_dict(json.loads((tmp_path / "d.json").read_text()))
    assert back.to_dict() == report.to_dict()
    report.to_csv(tmp_path / "d.csv")
    assert len((tmp_path / "d.csv").read_text().strip().splitlines()) == 3


# ---------------------------------------------------------------------------
# projection concentration


def proj_spec(**kw):
    defaults = dict(
        n=200,
        sigma=np.ones(200),
        subspace_dim=200,
        weights=np.ones(200),
        t_grid=np.arange(1.0, 9.0),
        trials=1000,
        seed=3,
    )
    defaults.update(kw)
    return verify.ProjectionTestSpec(**defaults)


def test_full_basis_statistic_is_norm_of_x():
    spec = proj_spec()
    report = verify.projection_concentration_test(spec)
    # with r = 1 and d = n the statistic is ||X||^2 - sum(sigma), identically 0
    # for rademacher entries, so no trial can fail at any threshold
    assert report.failure_rates == [0.0] * spec.t_grid.size
    assert report.center == pytest.approx(200.0)


def test_isotropic_center_is_subspace_dimension():
    spec = proj_spec(subspace_dim=60, weights=np.ones(60))
    report = verify.projection_concentration_test(spec)
    assert report.center == pytest.approx(60.0, abs=1e-9)


def test_increasing_failure_rates_raise_assertion_failure():
    spec = proj_spec(subspace_dim=60, weights=np.ones(60))
    object.__setattr__(spec, "t_grid", spec.t_grid[::-1].copy())  # bypass the sort
    with pytest.raises(AssertionFailure, match="non-increasing"):
        verify.projection_concentration_test(spec)


def test_package_has_no_assert_statements():
    # python -O strips assert statements; checks must raise typed errors
    for path in sorted(Path(speclaw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_package_raises_no_builtin_exceptions():
    # a failure carries its exit code and error record only as a SpecLawError; the
    # parser's SystemExit and bare re-raises are the only other raises allowed
    for path in sorted(Path(speclaw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(cls, type) and issubclass(cls, BaseException) and cls is not SystemExit:
                    lines.append(node.lineno)
        assert lines == [], f"{path.name}: builtin exception raised on lines {lines}"


def test_failure_rates_non_increasing_and_decay():
    sigma = np.where(np.arange(400) % 2 == 0, 0.25, 1.0)
    spec = verify.ProjectionTestSpec(
        n=400, sigma=sigma, subspace_dim=100, weights=np.ones(100),
        t_grid=np.arange(1.0, 9.0), trials=4000, seed=9,
    )
    report = verify.projection_concentration_test(spec)
    rates = report.failure_rates
    assert len(rates) == spec.t_grid.size
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[4] <= 0.05  # t = 5K
    assert rates[-1] == 0.0


def test_projection_spec_validation():
    with pytest.raises(InvalidSpec):
        proj_spec(sigma=np.full(200, 1.5))
    with pytest.raises(InvalidSpec):
        proj_spec(subspace_dim=300)
    with pytest.raises(InvalidSpec):
        proj_spec(t_grid=np.array([-1.0]))


def test_projection_report_round_trip(tmp_path):
    report = verify.projection_concentration_test(proj_spec(trials=100))
    report.to_json(tmp_path / "p.json")
    import json

    back = verify.ProjectionReport.from_dict(json.loads((tmp_path / "p.json").read_text()))
    assert back.to_dict() == report.to_dict()


# what a per-threshold loop of np.mean(dev >= threshold) gave, recorded to hold the one broadcast comparison
# to it: (seed, trials, t_grid as given) -> center, failure rates on the sorted t_grid
_RECORDED_RATES = {
    (11, 10_000, tuple(np.arange(1.0, 9.0))): (62.651012237513804, [0.029] + [0.0] * 7),
    (11, 10_000, tuple(np.arange(10.0, 0.0, -1.0) / 10.0)): (
        62.651012237513804, [0.8388, 0.6779, 0.5247, 0.3955, 0.2881, 0.1977, 0.1348, 0.086, 0.0525, 0.029]),
    (9, 4000, tuple(np.arange(1.0, 9.0))): (62.833659562337424, [0.03075] + [0.0] * 7),
}


@pytest.mark.parametrize("key", list(_RECORDED_RATES), ids=["criterion-11", "criterion-11-fine", "decay-test"])
def test_projection_rates_equal_the_recorded_ones(key):
    seed, trials, t_grid = key
    spec = verify.ProjectionTestSpec(n=400, sigma=np.where(np.arange(400) % 2 == 0, 0.25, 1.0), subspace_dim=100,
                                     weights=np.ones(100), t_grid=np.array(t_grid), trials=trials, seed=seed)
    report = verify.projection_concentration_test(spec)
    assert (report.center, report.failure_rates) == _RECORDED_RATES[key]
    assert report.spec["t_grid"] == sorted(t_grid)


def test_haar_basis_is_orthonormal():
    u = verify.haar_basis(50, 20, seed=1)
    assert np.abs(u.T @ u - np.eye(20)).max() < 1e-12


# ---------------------------------------------------------------------------
# interlacing


def _count(a: np.ndarray, lo: float, hi: float) -> int:
    return count_in_interval(tridiagonalize(a), lo, hi)


def test_zero_update_shifts_nothing():
    a = np.diag(np.arange(1.0, 6.0))
    assert _count(a + np.zeros((5, 5)), 0.5, 3.5) == _count(a, 0.5, 3.5) == 3


def test_unit_rank_one_shift_is_exactly_one():
    n = 6
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    assert _count(np.zeros((n, n)) + b, 0.5, 1.5) - _count(np.zeros((n, n)), 0.5, 1.5) == 1


def test_interlacing_counts_each_trial_base_once(monkeypatch):
    forms = []
    monkeypatch.setattr(verify, "tridiagonalize", lambda a: forms.append(a) or tridiagonalize(a))
    verify.interlacing_test(trials=4, n=10, seed=1)
    assert len(forms) == 3 * 4  # the base matrix, its rank-1 and its rank-d update


def test_interlacing_campaign_has_no_violations():
    report = verify.interlacing_test(trials=60, n=30, seed=2)
    assert report.max_shift_by_rank[1] <= 1
    assert all(shift <= rank for rank, shift in report.max_shift_by_rank.items())
    assert set(report.max_shift_by_rank) == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("trials, n, seed, maxima", [
    (500, 50, 6, {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}),  # criterion 6
    (60, 30, 2, {1: 1, 2: 2, 3: 2, 4: 3, 5: 5}),
    (1, 10, 4, {1: 1, 2: 1}),
])
def test_interlacing_maxima_equal_the_recorded_ones(trials, n, seed, maxima):
    # recorded when rank 1 sat in its own field; it now leads the by-rank dict, in rank order
    report = verify.interlacing_test(trials=trials, n=n, seed=seed)
    assert report.max_shift_by_rank == maxima
    assert list(report.max_shift_by_rank) == sorted(maxima)


def test_interlacing_report_round_trip(tmp_path):
    report = verify.interlacing_test(trials=10, n=10, seed=4)
    report.to_json(tmp_path / "i.json")
    import json

    back = verify.InterlacingReport.from_dict(json.loads((tmp_path / "i.json").read_text()))
    assert back.to_dict() == report.to_dict()


def test_interlacing_requires_n_at_least_two():
    with pytest.raises(InvalidSpec):
        verify.interlacing_test(trials=1, n=1, seed=0)


@pytest.mark.parametrize("trials", [0, -5])
def test_interlacing_requires_at_least_one_trial(trials):
    # no trial would pass vacuously with violations=0
    with pytest.raises(InvalidSpec, match="at least 1 trial"):
        verify.interlacing_test(trials=trials, n=10, seed=0)
