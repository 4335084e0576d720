"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the campaigns at n = 2000 make this the slow part of the suite
(several minutes).  Tolerances are frozen here, backed by the recorded
calibration run in scripts/pilot_results.json.
"""

import math
import time

import numpy as np
import pytest

from conftest import on_workers, random_profile, semicircle_stieltjes
from speclaw import ensembles as ens
from speclaw import qve, spectra, verify
from speclaw.errors import report_json_bytes


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def dense_spec(n, seed=0, p=1.0):
    return ens.WignerSpec(
        n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=seed, p=p
    )


def dense_campaign(n=2000, trials=20, length=0.2, delta=0.05):
    spec = dense_spec(n)
    return verify.LocalLawConfig(
        ensemble=spec,
        eps=0.1,
        delta=delta,
        interval_len_factor=verify.factor_for_length(length, spec),
        num_intervals=3,
        trials=trials,
        base_seed=1000,
    )


def sparse_campaign(p, n=2000, trials=20, length=2.0, delta=0.1, base_seed=2000):
    spec = dense_spec(n, p=p)
    return verify.LocalLawConfig(
        ensemble=spec,
        eps=0.1,
        delta=delta,
        interval_len_factor=verify.factor_for_length(length, spec),
        num_intervals=3,
        trials=trials,
        base_seed=base_seed,
    )


def sbm_campaign(trials=20):
    spec = ens.SbmSpec(
        d=2, sizes=(1000, 1000), probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0
    )
    return verify.LocalLawConfig(
        ensemble=spec,
        eps=0.1,
        delta=0.1,
        interval_len_factor=verify.factor_for_length(0.4, spec),
        num_intervals=3,
        trials=trials,
        base_seed=3000,
    )


@pytest.fixture(scope="module")
def dense_report():
    t0 = time.time()
    report = on_workers(2, verify.verify_local_law, dense_campaign())
    return report, time.time() - t0


@pytest.fixture(scope="module")
def sparse_reports():
    return {p: on_workers(2, verify.verify_local_law, sparse_campaign(p)) for p in (0.1, 0.05, 0.02)}


@pytest.fixture(scope="module")
def sbm_report():
    return on_workers(2, verify.verify_local_law, sbm_campaign())


def test_criterion_1_solver_matches_closed_form():
    profile = qve.VarianceProfile.constant(32)
    xs = np.linspace(-3.0, 3.0, 10)
    etas = np.geomspace(1e-4, 1.0, 5)
    t0 = time.time()
    worst = 0.0
    for x in xs:
        for eta in etas:
            sol = qve.solve_qve(profile, complex(float(x), float(eta)))
            worst = max(worst, abs(sol.m - semicircle_stieltjes(complex(x, eta))))
    elapsed = time.time() - t0
    report_line(
        1,
        worst <= 1e-8 and elapsed < 1.0,
        f"max |m - m_closed_form| = {worst:.2e} over 50 points (tol 1e-8), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_density_mass_and_support():
    worst_mass = 0.0
    worst_tail = 0.0
    for seed in range(5):
        n = [16, 24, 32, 48, 64][seed]
        curve = qve.extract_density(random_profile(n, seed=seed), qve.default_grid())
        worst_mass = max(worst_mass, abs(curve.mass() - 1.0))
        worst_tail = max(worst_tail, float(curve.values[np.abs(curve.grid) > 2.05].max()))
    report_line(
        2,
        worst_mass <= 1e-3 and worst_tail <= 1e-3,
        f"mass error <= {worst_mass:.2e} (tol 1e-3), density outside [-2.05, 2.05] <= {worst_tail:.2e}",
    )


def test_criterion_3_block_full_consistency():
    gen = np.random.default_rng(33)
    worst = 0.0
    for trial in range(5):
        d = int(gen.integers(2, 5))
        sizes = gen.multinomial(400 - 8 * d, np.ones(d) / d) + 8
        coeffs = gen.uniform(0.25, 1.0, size=(d, d))
        coeffs = (coeffs + coeffs.T) / 2.0
        block = qve.BlockProfile(d=d, weights=sizes / 400.0, coeffs=coeffs)
        full = qve.expand_block_profile(block, 400)
        for k in range(4):
            point = complex(float(gen.uniform(-3, 3)), float(gen.uniform(0.2, 2.0)))
            diff = abs(qve.solve_qve(block, point, tol=1e-12).m - qve.solve_qve(full, point, tol=1e-12).m)
            worst = max(worst, diff)
    report_line(3, worst <= 1e-9, f"max |m_block - m_full| = {worst:.2e} over 20 points (tol 1e-9)")


def test_criterion_4_sturm_counts_are_exact():
    gen = np.random.default_rng(44)
    t0 = time.time()
    mismatches = 0
    for trial in range(100):
        n = int(gen.integers(10, 201))
        a = gen.standard_normal((n, n))
        a = (a + a.T) / (2.0 * math.sqrt(n))
        tri = spectra.tridiagonalize(a)
        ev = np.linalg.eigvalsh(a)
        los = gen.uniform(-3, 3, size=100)
        his = los + gen.uniform(0, 3, size=100)
        for lo, hi in zip(los, his):
            expected = int(np.count_nonzero((ev > lo) & (ev <= hi)))
            if spectra.count_in_interval(tri, float(lo), float(hi)) != expected:
                mismatches += 1
    elapsed = time.time() - t0
    report_line(
        4,
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches in 10000 interval counts, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_schur_identity():
    gen = np.random.default_rng(55)
    worst = 0.0
    for trial in range(500):
        n = int(gen.integers(5, 101))
        a = gen.standard_normal((n, n))
        a = (a + a.T) / (2.0 * math.sqrt(n))
        k = int(gen.integers(0, n))
        point = complex(float(gen.uniform(-2.5, 2.5)), float(gen.uniform(0.05, 2.0)))
        direct, schur = spectra.schur_resolvent_check(a, k, point)
        worst = max(worst, abs(direct - schur))
    report_line(5, worst <= 1e-8, f"max |direct - schur| = {worst:.2e} over 500 triples (tol 1e-8)")


def test_criterion_6_interlacing():
    report = verify.interlacing_test(trials=500, n=50, seed=6)
    shifts = report.max_shift_by_rank
    ok = shifts[1] <= 1 and all(shift <= rank for rank, shift in shifts.items())
    report_line(
        6,
        ok,
        f"0 violations in 500 rank-1 trials (max shift {shifts[1]}), max shifts by rank {shifts}",
    )


def test_criterion_7_local_law_dense(dense_report):
    report, elapsed = dense_report
    ok = report.pass_fraction >= 0.95 and elapsed < 180.0
    report_line(
        7,
        ok,
        f"dense n=2000: pass fraction {report.pass_fraction:.2f} at delta=0.05 "
        f"(max deviation {report.max_deviation:.4f}), runtime {elapsed:.0f}s (< 180s)",
    )


def test_criterion_8_local_law_sparse(sparse_reports):
    head = sparse_reports[0.1]
    ok_level = head.pass_fraction >= 0.9
    fractions = [sparse_reports[p].pass_fraction for p in (0.1, 0.05, 0.02)]
    medians = [
        float(np.median(np.max([rec.deviations for rec in sparse_reports[p].intervals], axis=0)))
        for p in (0.1, 0.05, 0.02)
    ]
    monotone = all(a >= b for a, b in zip(fractions, fractions[1:])) and all(
        a <= b for a, b in zip(medians, medians[1:])
    )
    report_line(
        8,
        ok_level and monotone,
        f"sparse p=0.1 pass {head.pass_fraction:.2f} at delta=0.1; sweep p=(0.1,0.05,0.02): "
        f"pass fractions {fractions}, median trial-max deviations "
        f"{[f'{m:.4f}' for m in medians]} (degrading monotonically)",
    )


def test_criterion_9_local_law_sbm(sbm_report):
    report_line(
        9,
        sbm_report.pass_fraction >= 0.9,
        f"sbm d=2 n=2000: pass fraction {sbm_report.pass_fraction:.2f} at delta=0.1 "
        f"(max deviation {sbm_report.max_deviation:.4f})",
    )


def test_criterion_10_delocalization_scaling():
    ratios = {}
    for label, make in (
        ("dense", dense_spec),
        ("sparse", lambda m: dense_spec(m, p=0.1)),
    ):
        for n in (1000, 2000):
            spec = make(n)
            cfg = verify.LocalLawConfig(
                ensemble=spec,
                eps=0.1,
                trials=20,
                base_seed=4000,
                interval_len_factor=verify.factor_for_length(0.2, spec),
            )
            ratios[f"{label}_{n}"] = on_workers(2, verify.verify_delocalization, cfg).max_ratio

    stable = all(
        abs(ratios[f"{lb}_2000"] - ratios[f"{lb}_1000"]) <= 0.3 * ratios[f"{lb}_1000"]
        for lb in ("dense", "sparse")
    )

    # localized negative control: identity eigenvectors fed through the same path
    def control_ratio(n):
        summary = spectra.eigen_full(np.diag(np.arange(1.0, n + 1) / n), want_vectors=True)
        norms = spectra.eigvec_inf_norms(summary)[spectra.bulk_indices(summary, [qve.BulkInterval(lo=0.0, hi=1.0)])]
        return float(spectra.normalized_deloc_ratios(norms, verify.local_law_scale(dense_spec(n))).max())

    controls = {n: control_ratio(n) for n in (1000, 2000)}
    separated = all(controls[n] >= 5.0 * ratios[f"dense_{n}"] for n in (1000, 2000))
    report_line(
        10,
        stable and separated,
        f"max ratios {({k: round(v, 3) for k, v in ratios.items()})} stable within 30%; "
        f"diag controls {({n: round(c, 1) for n, c in controls.items()})} >= 5x the dense ratios",
    )


def test_criterion_11_projection_concentration():
    sigma = np.where(np.arange(400) % 2 == 0, 0.25, 1.0)
    spec = verify.ProjectionTestSpec(
        n=400,
        sigma=sigma,
        subspace_dim=100,
        weights=np.ones(100),
        t_grid=np.arange(1.0, 9.0),  # t = K..8K with K = 1
        trials=10_000,
        seed=11,
    )
    report = verify.projection_concentration_test(spec)
    rates = report.failure_rates
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    at_5k = rates[4]
    report_line(
        11,
        monotone and at_5k <= 0.05,
        f"failure rates {rates} non-increasing, rate at t=5K is {at_5k:.4f} (<= 0.05)",
    )


def test_criterion_12_determinism(dense_report, sparse_reports, sbm_report):
    repeats = {
        "dense": (dense_report[0], on_workers(2, verify.verify_local_law, dense_campaign())),
        "sparse": (sparse_reports[0.1], on_workers(2, verify.verify_local_law, sparse_campaign(0.1))),
        "sbm": (sbm_report, on_workers(2, verify.verify_local_law, sbm_campaign())),
    }
    identical = {
        k: report_json_bytes(a.to_dict()) == report_json_bytes(b.to_dict())
        for k, (a, b) in repeats.items()
    }
    report_line(
        12,
        all(identical.values()),
        f"byte-identical reports on repeat: {identical}",
    )
