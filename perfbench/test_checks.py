"""Each benchmark check passes on a genuine report and catches a corrupted one.

Small campaigns (n = 300) stand in for the workloads, so the whole file runs in
seconds:  python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from speclaw import ensembles as ens  # noqa: E402
from speclaw import qve, verify  # noqa: E402

SEED = 1  # not the default seed, so only the oracles run


def _campaign(spec, trials=3):
    cfg = verify.LocalLawConfig(ensemble=spec, eps=0.1, delta=0.1, trials=trials, base_seed=50,
                                interval_len_factor=verify.factor_for_length(0.4, spec))
    curve = qve.extract_density(ens.effective_profile(spec), qve.default_grid(), eta=cfg.eta)
    as_dict = {"grid": curve.grid.tolist(), "values": curve.values.tolist(), "eta_used": curve.eta_used}
    return cfg, as_dict


@pytest.fixture(scope="module")
def dense():
    spec = ens.WignerSpec(n=300, profile=qve.VarianceProfile.constant(300), law=ens.EntryLaw("rademacher"), seed=0)
    cfg, curve = _campaign(spec)
    report = json.loads(json.dumps(verify.verify_local_law(cfg).to_dict()))
    return cfg, report, curve


@pytest.fixture(scope="module")
def sbm():
    spec = ens.SbmSpec(d=2, sizes=(150, 150), probs=np.array([[0.3, 0.1], [0.1, 0.3]]), seed=0)
    cfg, curve = _campaign(spec)
    report = json.loads(json.dumps(verify.verify_delocalization(cfg).to_dict()))
    return cfg, report, curve


def test_genuine_reports_pass(dense, sbm):
    assert workloads.check("dense-local-law", SEED, dense[1], dense[0], dense[2]) == []
    assert workloads.check("sbm-deloc", SEED, sbm[1], sbm[0], sbm[2]) == []


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_observed_count_off_by_one(dense, trial):
    cfg, report, curve = dense
    bad = copy.deepcopy(report)
    bad["intervals"][1]["observed"][trial] += 1
    assert workloads.check("dense-local-law", SEED, bad, cfg, curve)


def test_predicted_off_the_semicircle(dense):
    cfg, report, curve = dense
    bad = copy.deepcopy(report)
    bad["intervals"][0]["predicted"] *= 1 + 1e-4
    assert workloads.check("dense-local-law", SEED, bad, cfg, curve)


def test_density_mass_and_support(dense):
    cfg, report, curve = dense
    heavy = dict(curve, values=[1.01 * v for v in curve["values"]])
    assert workloads.check("dense-local-law", SEED, report, cfg, heavy)
    leaky = dict(curve, values=[v + (0.01 if abs(x) > 2.5 else 0.0) for x, v in zip(curve["grid"], curve["values"])])
    assert workloads.check("dense-local-law", SEED, report, cfg, leaky)


def test_deloc_bulk_count_and_ratios(sbm):
    cfg, report, curve = sbm
    trial = SEED % cfg.trials
    bad = copy.deepcopy(report)
    bad["records"][trial]["bulk_count"] += 1
    assert workloads.check("sbm-deloc", SEED, bad, cfg, curve)
    bad = copy.deepcopy(report)
    bad["records"][(trial + 1) % cfg.trials]["max_ratio"] *= 1.001
    assert workloads.check("sbm-deloc", SEED, bad, cfg, curve)
    bad = copy.deepcopy(report)
    bad["ratio_quantiles"]["q50"] = 1e-6
    assert workloads.check("sbm-deloc", SEED, bad, cfg, curve)


def test_reference_comparison(dense):
    expected = workloads.reference_view(dense[1])
    assert workloads.compare_reference(copy.deepcopy(expected), expected) == []
    close = copy.deepcopy(expected)
    close["intervals"][0]["predicted"] *= 1 + 1e-10
    assert workloads.compare_reference(close, expected) == []
    far = copy.deepcopy(expected)
    far["intervals"][0]["predicted"] *= 1 + 1e-7
    assert workloads.compare_reference(far, expected)
    off = copy.deepcopy(expected)
    off["intervals"][2]["observed"][0] -= 1
    assert workloads.compare_reference(off, expected)
