"""The three campaign workloads: inputs from a seed, the CLI call, and the checks.

dense-local-law   verify-local-law, dense Wigner n=2000, constant profile.  The
                  ROADMAP's end-to-end campaign: Householder tridiagonalization
                  and sampling per trial, and per campaign the cost of the full
                  n x n profile (20 MB config, fingerprint, reduction, 68 MB
                  report).
profile-local-law verify-local-law on a seeded irreducible n=200 profile, where
                  the QVE batch solver and quadrature do nearly all the work and
                  sampling and Sturm counting almost none.
sbm-deloc         verify-deloc on a 2-block SBM, n=2000: eigh with vectors per
                  trial instead of tridiagonalize + Sturm, no n x n profile, and
                  a trial pool whose two workers contend for BLAS threads.

Every check is an oracle the repository already trusts (closed-form
semicircle, dense eigenvalues against Sturm counts, criterion 2's mass and
support bounds, 1/sqrt(n) <= |u|_inf <= 1) or a comparison with reports
recorded from the commit that introduced the benchmark, at the default seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
THREADS = 2
REFERENCE = Path(__file__).with_name("reference.json")

# trial counts keep per-trial work comparable to the once-per-campaign cost
WORKLOADS = {
    "dense-local-law": {"command": "verify-local-law", "trials": 2},
    "profile-local-law": {"command": "verify-local-law", "trials": 20},
    "sbm-deloc": {"command": "verify-deloc", "trials": 4},
}


def base_seed(seed: int) -> int:
    # seed 0 gives the acceptance suite's dense campaign seed (1000); trials stay disjoint
    return 1000 * (seed + 1)


def build_config(name: str, seed: int):
    """The campaign config of one workload, built through the library."""
    from speclaw import ensembles as ens
    from speclaw import qve, verify

    trials = WORKLOADS[name]["trials"]
    if name == "dense-local-law":
        n = 2000
        spec = ens.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n),
                              law=ens.EntryLaw("rademacher"), seed=0)
        length, delta = 0.2, 0.05
    elif name == "profile-local-law":
        n = 200
        gen = np.random.default_rng(seed)
        a = gen.uniform(0.3, 1.0, size=(n, n))
        spec = ens.WignerSpec(n=n, profile=qve.VarianceProfile(n=n, entries=(a + a.T) / 2.0),
                              law=ens.EntryLaw("uniform_bounded"), seed=0)
        length, delta = 0.3, 0.1
    elif name == "sbm-deloc":
        spec = ens.SbmSpec(d=2, sizes=(1000, 1000),
                           probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0)
        length, delta = 0.4, 0.1
    else:
        raise KeyError(name)
    return verify.LocalLawConfig(
        ensemble=spec, eps=0.1, delta=delta,
        interval_len_factor=verify.factor_for_length(length, spec),
        num_intervals=3, trials=trials, base_seed=base_seed(seed), eta=qve.DEFAULT_ETA,
    )


def argv(name: str, config_path, report_path, threads: int = THREADS) -> list[str]:
    return [WORKLOADS[name]["command"], "--config", str(config_path),
            "--threads", str(threads), "--out", str(report_path)]


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages (empty when the report holds)


def _semicircle_mass(lo: float, hi: float) -> float:
    def anti(x: float) -> float:
        x = min(max(x, -2.0), 2.0)
        return x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) + math.asin(x / 2.0) / math.pi
    return anti(hi) - anti(lo)


def _local_law_consistency(report: dict, config) -> list[str]:
    """Deviations, pass flags and maxima must follow from observed and predicted."""
    errors = []
    n, trials, delta = report["n"], config.trials, config.delta
    worst = [0.0] * trials
    for j, rec in enumerate(report["intervals"]):
        if len(rec["observed"]) != trials or len(rec["deviations"]) != trials:
            errors.append(f"interval {j}: expected {trials} trials")
            continue
        for t, (obs, dev) in enumerate(zip(rec["observed"], rec["deviations"])):
            want = abs(obs - rec["predicted"]) / (n * (rec["hi"] - rec["lo"]))
            if not math.isclose(dev, want, rel_tol=1e-12, abs_tol=1e-15):
                errors.append(f"interval {j} trial {t}: deviation {dev!r} != {want!r}")
            worst[t] = max(worst[t], dev)
        frac = sum(d <= delta for d in rec["deviations"]) / trials
        if not math.isclose(rec["pass_fraction"], frac, rel_tol=1e-12):
            errors.append(f"interval {j}: pass_fraction {rec['pass_fraction']} != {frac}")
    if report["trial_pass"] != [w <= delta for w in worst]:
        errors.append("trial_pass disagrees with the deviations")
    if not math.isclose(report["max_deviation"], max(worst), rel_tol=1e-12):
        errors.append("max_deviation disagrees with the deviations")
    return errors


def _one_trial_counts(report: dict, config, trial: int) -> list[str]:
    """Recount one trial from dense eigenvalues of the same normalized sample."""
    from speclaw import ensembles as ens

    spec = ens.with_seed(config.ensemble, config.base_seed + trial)
    ev = np.linalg.eigvalsh(ens.normalized_sample(spec))
    errors = []
    for j, rec in enumerate(report["intervals"]):
        want = int(np.count_nonzero((ev > rec["lo"]) & (ev <= rec["hi"])))
        if rec["observed"][trial] != want:
            errors.append(f"interval {j} trial {trial}: observed {rec['observed'][trial]}, eigvalsh gives {want}")
    return errors


def _curve_checks(curve: dict) -> list[str]:
    grid, values = np.asarray(curve["grid"]), np.asarray(curve["values"])
    mass = float(np.trapezoid(values, grid))
    tail = float(values[np.abs(grid) > 2.05].max())
    errors = []
    if abs(mass - 1.0) > 1e-3:
        errors.append(f"density mass {mass!r} is not within 1e-3 of 1")
    if tail > 1e-3:
        errors.append(f"density {tail!r} outside [-2.05, 2.05]")
    return errors


def _deloc_checks(report: dict, config, curve: dict, trial: int) -> list[str]:
    from speclaw import ensembles as ens
    from speclaw import qve

    n, k_bound, p_eff = ens.ensemble_parameters(config.ensemble)
    to_ratio = math.sqrt(n * p_eff) / (k_bound * math.sqrt(math.log(n)))
    lo_ratio, hi_ratio = to_ratio / math.sqrt(n), to_ratio
    errors = []
    if len(report["records"]) != config.trials:
        errors.append(f"expected {config.trials} trial records")
    ratios = [r["max_ratio"] for r in report["records"]] + list(report["ratio_quantiles"].values())
    for value in ratios + [report["max_ratio"]]:
        if not lo_ratio * (1 - 1e-12) <= value <= hi_ratio * (1 + 1e-12):
            errors.append(f"ratio {value!r} outside [{lo_ratio!r}, {hi_ratio!r}] implied by 1/sqrt(n) <= |u|_inf <= 1")
    for r in report["records"]:
        if not math.isclose(r["max_ratio"], r["max_inf_norm"] * to_ratio, rel_tol=1e-12):
            errors.append(f"trial {r['trial']}: max_ratio does not match max_inf_norm")
    if not math.isclose(report["max_ratio"], max(r["max_ratio"] for r in report["records"]), rel_tol=1e-12):
        errors.append("max_ratio is not the largest trial ratio")

    # one trial recomputed with eigh: bulk eigenvalue count exact, sup-norm to 1e-8
    bulks = qve.detect_bulk(
        qve.DensityCurve(grid=curve["grid"], values=curve["values"], eta_used=curve["eta_used"],
                         profile_hash=""), config.eps)
    spec = ens.with_seed(config.ensemble, config.base_seed + trial)
    vals, vecs = np.linalg.eigh(ens.normalized_sample(spec))
    mask = np.zeros(n, dtype=bool)
    for b in bulks:
        mask |= (vals >= b.lo) & (vals <= b.hi)
    rec = report["records"][trial]
    if rec["bulk_count"] != int(mask.sum()):
        errors.append(f"trial {trial}: bulk_count {rec['bulk_count']}, eigh gives {int(mask.sum())}")
    elif mask.any():
        norm = float(np.abs(vecs[:, mask]).max())
        if not math.isclose(rec["max_inf_norm"], norm, rel_tol=1e-8):
            errors.append(f"trial {trial}: max_inf_norm {rec['max_inf_norm']!r}, eigh gives {norm!r}")
    return errors


def compare_reference(actual, expected, path: str = "report") -> list[str]:
    """Integers and flags exactly, floats within 1e-8 relative."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += compare_reference(actual[key], expected[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare_reference(a, e, f"{path}[{i}]")
        return out
    if isinstance(expected, float):
        ok = isinstance(actual, (int, float)) and not isinstance(actual, bool) and math.isclose(
            actual, expected, rel_tol=1e-8, abs_tol=1e-300)
        return [] if ok else [f"{path}: {actual!r} != {expected!r} (1e-8 relative)"]
    ok = type(actual) is type(expected) and actual == expected
    return [] if ok else [f"{path}: {actual!r} != {expected!r}"]


def reference_view(report: dict) -> dict:
    """The report without its input config, which the seed alone determines."""
    return {k: v for k, v in report.items() if k != "config"}


def check(name: str, seed: int, report: dict, config, curve: dict) -> list[str]:
    """All checks of one workload's report; `curve` is the campaign's density curve."""
    trial = seed % config.trials
    errors = _curve_checks(curve)
    if name == "dense-local-law":
        # quadrature stops when two refinements agree to 1e-6, and eta = 1e-6 smooths
        # the edge: the edge intervals sit 1.05e-6 (relative) off the closed form
        for j, rec in enumerate(report["intervals"]):
            want = report["n"] * _semicircle_mass(rec["lo"], rec["hi"])
            if not math.isclose(rec["predicted"], want, rel_tol=1e-5):
                errors.append(f"interval {j}: predicted {rec['predicted']!r}, semicircle gives {want!r}")
    if name in ("dense-local-law", "profile-local-law"):
        errors += _local_law_consistency(report, config)
        errors += _one_trial_counts(report, config, trial)
    if name == "sbm-deloc":
        errors += _deloc_checks(report, config, curve, trial)
    if seed == DEFAULT_SEED:
        expected = json.loads(REFERENCE.read_text())[name]
        errors += compare_reference(reference_view(report), expected)
    return errors
