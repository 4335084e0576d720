import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclaw
from conftest import random_profile, unfolded_solution
from speclaw import cli, ensembles as ens, qve, spectra, verify


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "const.json"
    qve.VarianceProfile.constant(8).to_json(path)
    return str(path)


@pytest.fixture()
def ensemble_path(tmp_path):
    spec = ens.WignerSpec(
        n=80, profile=qve.VarianceProfile.constant(80), law=ens.EntryLaw("rademacher"), seed=1
    )
    path = tmp_path / "wigner.json"
    spec.to_json(path)
    return str(path)


@pytest.fixture()
def campaign_path(tmp_path):
    spec = ens.WignerSpec(
        n=150, profile=qve.VarianceProfile.constant(150), law=ens.EntryLaw("rademacher"), seed=0
    )
    cfg = verify.LocalLawConfig(
        ensemble=spec, trials=2, interval_len_factor=verify.factor_for_length(0.5, spec)
    )
    path = tmp_path / "llaw.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return str(path)


def test_density_command_writes_csv(tmp_path, profile_path, capsys):
    out = tmp_path / "rho.csv"
    code = cli.main(["density", "--profile", profile_path, "--grid", "-3:3:600", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 601  # header + 600 rows
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    mass = np.trapezoid(rows[:, 1], rows[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-3)
    assert "mass=" in capsys.readouterr().out


def _density_rows(path) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]])


def test_grid_flag_builds_the_default_grid(tmp_path, profile_path):
    # one builder, qve.linear_grid, makes both grids exactly antisymmetric, so both fold
    default, flagged = tmp_path / "default.csv", tmp_path / "flagged.csv"
    assert cli.main(["density", "--profile", profile_path, "--out", str(default)]) == 0
    assert cli.main(["density", "--profile", profile_path, "--grid", "-3:3:601", "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == default.read_bytes()
    x = _density_rows(default)[:, 0]
    assert np.array_equal(x, -x[::-1]) and x.tolist() == [k / 100 for k in range(-300, 301)]  # k/100 rounds once


def test_asymmetric_grid_is_np_linspace_and_matches_an_unfolded_solve(tmp_path):
    # 57 of its points have an exact mirror on the grid and fold; the rest solve as before
    profile, path, out = random_profile(30, seed=2), tmp_path / "profile.json", tmp_path / "rho.csv"
    profile.to_json(path)
    assert cli.main(["density", "--profile", str(path), "--grid", "-1:3:401", "--out", str(out)]) == 0
    rows, grid = _density_rows(out), np.linspace(-1.0, 3.0, 401)
    assert np.array_equal(rows[:, 0], grid)
    unfolded = unfolded_solution(profile, grid).mean(axis=0).imag / np.pi
    np.testing.assert_allclose(rows[:, 1], unfolded, rtol=0, atol=1e-10)


def test_qve_solve_round_trip(tmp_path, profile_path, capsys):
    out = tmp_path / "sol.json"
    code = cli.main(["qve-solve", "--profile", profile_path, "--x", "-1.5", "--eta", "0.01", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    m = complex(*payload["m"])
    assert payload["residual"] <= 1e-10
    g = np.array([complex(re, im) for re, im in payload["g"]])
    assert abs(g.mean() - m) < 1e-12
    assert "m=" in capsys.readouterr().out


def test_sample_binary_and_market(tmp_path, ensemble_path):
    out_bin = tmp_path / "m.bin"
    assert cli.main(["sample", "--ensemble", ensemble_path, "--out", str(out_bin)]) == 0
    data = ens.load_matrix_binary(out_bin)
    assert data.shape == (80, 80)
    assert np.array_equal(data, data.T)

    out_mm = tmp_path / "m.mtx"
    assert cli.main(["sample", "--ensemble", ensemble_path, "--format", "mm", "--out", str(out_mm)]) == 0
    assert out_mm.read_text().startswith("%%MatrixMarket")

    out_bin2 = tmp_path / "m2.bin"
    cli.main(["sample", "--ensemble", ensemble_path, "--seed", "9", "--out", str(out_bin2)])
    assert not np.array_equal(ens.load_matrix_binary(out_bin2), data)


def test_spectrum_command(tmp_path, ensemble_path):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--ensemble", ensemble_path, "--vectors", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,inf_norm"
    assert len(lines) == 81
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_verify_local_law_command(tmp_path, campaign_path, capsys):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = cli.main([
        "verify-local-law", "--config", campaign_path, "--out", str(out), "--csv", str(csv_out)
    ])
    assert code == 0
    assert "pass_fraction=" in capsys.readouterr().out
    report = verify.LocalLawReport.from_dict(json.loads(out.read_text()))
    assert report.n == 150
    assert csv_out.exists()


def test_identical_invocations_are_byte_identical(tmp_path, campaign_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["verify-local-law", "--config", campaign_path, "--out", str(out1)])
    cli.main(["verify-local-law", "--config", campaign_path, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_trials_override(tmp_path, campaign_path):
    out = tmp_path / "r.json"
    cli.main(["verify-local-law", "--config", campaign_path, "--trials", "1", "--out", str(out)])
    report = verify.LocalLawReport.from_dict(json.loads(out.read_text()))
    assert len(report.trial_pass) == 1


def test_verify_stieltjes_command(tmp_path, campaign_path, capsys):
    code = cli.main(["verify-stieltjes", "--config", campaign_path, "--eta", "0.5,1.0"])
    assert code == 0
    assert "max_discrepancy=" in capsys.readouterr().out


def test_verify_deloc_command(tmp_path, campaign_path, capsys):
    out = tmp_path / "d.json"
    assert cli.main(["verify-deloc", "--config", campaign_path, "--out", str(out)]) == 0
    assert "max_ratio=" in capsys.readouterr().out
    verify.DelocReport.from_dict(json.loads(out.read_text()))


def test_stieltjes_csv_flag_exits_one_with_usage(tmp_path, campaign_path, capsys):
    # the stieltjes report has no CSV form, so the flag is not accepted
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-stieltjes", "--config", campaign_path, "--eta", "0.5", "--csv", str(tmp_path / "st.csv")])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "st.csv").exists()


def test_projection_command(tmp_path, capsys):
    spec = verify.ProjectionTestSpec(
        n=64, sigma=np.ones(64), subspace_dim=16, weights=np.ones(16),
        t_grid=np.arange(1.0, 6.0), trials=500, seed=0,
    )
    cfg_path = tmp_path / "proj.json"
    with open(cfg_path, "w") as fh:
        json.dump(spec.to_dict(), fh)
    out = tmp_path / "proj_report.json"
    assert cli.main(["test-projection", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "failure_rate_last=" in capsys.readouterr().out


def test_interlacing_command(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert cli.main(["test-interlacing", "--trials", "10", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
    assert "violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("trial, rank", [(0, 1), (1, 1), (0, 2), (2, 4)])
def test_interlacing_violation_exits_three_with_its_counterexample(tmp_path, monkeypatch, capsys, trial, rank):
    # each trial counts its base matrix, its rank-1 and its rank-d update (d = 2 + trial % 4) in one
    # sweep over [lo, hi); every count reads 0 except the one of trial `trial`'s rank-`rank` update
    target = 1 if rank == 1 else 2
    calls = []

    def counts_below(forms, shifts):
        assert len(forms) == 3
        calls.append(tuple(shifts))
        below = np.zeros((3, 2), dtype=np.int64)
        below[target, 1] = rank + 1 if len(calls) - 1 == trial else 0
        return below

    monkeypatch.setattr(verify, "eigenvalue_counts_below", counts_below)
    out = tmp_path / "i.json"
    assert cli.main(["test-interlacing", "--trials", "5", "--n", "10", "--seed", "7", "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err)
    lo, hi = calls[trial]
    assert record["error"] == "assertion_failure"
    assert record["message"] == f"rank-{rank} update moved the count on [{lo:g}, {hi:g}) by {rank + 1}"
    assert record["counterexample"] == {"trial": trial, "seed": 7, "lo": lo, "hi": hi, "rank": rank, "shift": rank + 1}
    assert len(calls) == trial + 1 and not out.exists()


@pytest.mark.parametrize("command, name", [("test-projection", "projection_concentration_test"),
                                           ("test-interlacing", "interlacing_test")])
def test_lemma_commands_look_their_function_up_at_call_time(tmp_path, monkeypatch, command, name):
    # the one report branch calls whatever `verify` holds then, as a tracer's wrapper
    seen = []
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: seen.append(args) or original(*args))
    cfg = tmp_path / "proj.json"
    cfg.write_text(json.dumps(_PROJECTION))
    argv = ["--config", str(cfg)] if command == "test-projection" else ["--trials", "2", "--n", "6"]
    assert cli.main([command, *argv, "--out", str(tmp_path / "r.json")]) == 0
    assert len(seen) == 1 and (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, extra", [("verify-deloc", []), ("verify-stieltjes", ["--eta", "0.5"])])
def test_delta_is_a_usage_error_where_the_campaign_ignores_it(campaign_path, capsys, command, extra):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", campaign_path, "--delta", "0.2", *extra])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--delta" in err


def test_delta_overrides_the_local_law_config(tmp_path, campaign_path):
    out = tmp_path / "r.json"
    assert cli.main(["verify-local-law", "--config", campaign_path, "--delta", "0.3", "--threads", "1",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["delta"] == 0.3


def test_unknown_flag_exits_one_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    code = cli.main(["density", "--profile", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"


def test_non_convergence_exits_two(tmp_path, capsys):
    # a defect of 1e-17 is below the rounding of 1/g + z + Sg at z = 1.5 + 1e-12i
    # (1.1e-16); at x = 2 the rounding errors happen to cancel below it
    prof_path = tmp_path / "p.json"
    qve.VarianceProfile.constant(4).to_json(prof_path)
    code = cli.main(["qve-solve", "--profile", str(prof_path), "--x", "1.5", "--eta", "1e-12", "--tol", "1e-17"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "non_convergence"
    assert record["x"] == 1.5
    assert record["eta"] == 1e-12
    assert record["residual"] > 1e-17
    assert record["iterations"] > 0


def test_stalled_solve_exits_two_without_using_up_its_iterations(tmp_path, capsys):
    # the defect sits at the rounding floor (1.1e-16), far above tol = 1e-17, for good;
    # the solver must say so within a few dozen sweeps instead of spending max_iter = 10000
    prof_path = tmp_path / "p.json"
    qve.VarianceProfile.constant(4).to_json(prof_path)
    code = cli.main(["qve-solve", "--profile", str(prof_path), "--x", "1.5", "--eta", "1e-12", "--tol", "1e-17"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "non_convergence"
    assert (record["x"], record["eta"]) == (1.5, 1e-12)
    assert 1e-17 < record["residual"] < 1e-15
    assert 0 < record["iterations"] < 500


def test_failed_reduction_exits_two(tmp_path, campaign_path, monkeypatch, capsys):
    def failing_dsytrd(*args):
        args[-1].value = -4  # LAPACK's info: the fourth argument is illegal

    monkeypatch.setattr(spectra, "_lapack_dsytrd", lambda: failing_dsytrd)
    code = cli.main(["verify-local-law", "--config", campaign_path, "--out", str(tmp_path / "r.json")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "non_convergence"
    assert "info=-4" in record["message"]
    assert not (tmp_path / "r.json").exists()


def _reports_across_blas_threads_and_workers(tmp_path, cfg, command, *extra):
    """Report bytes of one CLI campaign at OPENBLAS_NUM_THREADS {1, 2} x --threads {1, 2}."""
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps(cfg.to_dict()))
    src = str(Path(speclaw.__file__).resolve().parents[1])
    reports = set()
    for blas, workers in (("1", "1"), ("2", "1"), ("1", "2"), ("2", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"report-{blas}-{workers}.json"
        subprocess.run(
            [sys.executable, "-m", "speclaw.cli", command, "--config", str(config),
             "--threads", workers, "--out", str(out), *extra],
            env=env, check=True, capture_output=True,
        )
        reports.add(out.read_bytes())
    return reports


def test_density_csv_identical_across_blas_threads(tmp_path):
    # density solves on a campaign's map, one BLAS thread per solve; unpinned, this n = 1500 profile gave
    # 247 of 601 rho values that differed, by up to 1.2e-12, between 1 and 2 BLAS threads
    n = 1500
    a = np.random.default_rng(1).uniform(0.3, 1.0, size=(n, n))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"n": n, "entries": np.round((a + a.T) / 2.0, 2).tolist()}))
    src = str(Path(speclaw.__file__).resolve().parents[1])
    tables = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"rho-{blas}.csv"
        subprocess.run([sys.executable, "-m", "speclaw.cli", "density", "--profile", str(profile), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        tables.add(out.read_bytes())
    assert len(tables) == 1


def test_reports_identical_across_blas_threads_and_workers(tmp_path):
    block = qve.BlockProfile(d=2, weights=np.array([0.5, 0.5]), coeffs=np.array([[1.0, 0.5], [0.5, 0.8]]))
    spec = ens.WignerSpec(n=200, profile=block, law=ens.EntryLaw("uniform_bounded"), seed=0)
    cfg = verify.LocalLawConfig(ensemble=spec, trials=3, interval_len_factor=verify.factor_for_length(0.5, spec))
    assert len(_reports_across_blas_threads_and_workers(tmp_path, cfg, "verify-local-law")) == 1


def test_two_stage_campaign_reports_identical_at_any_worker_count(tmp_path):
    # at n = _TWO_STAGE_MIN_N every trial is reduced by dsytrd_2stage of the bundled OpenBLAS
    n = spectra._TWO_STAGE_MIN_N
    spec = ens.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=0)
    cfg = verify.LocalLawConfig(ensemble=spec, trials=2, interval_len_factor=verify.factor_for_length(0.2, spec))
    assert len(_reports_across_blas_threads_and_workers(tmp_path, cfg, "verify-local-law")) == 1


@pytest.mark.parametrize("command, extra", [("verify-deloc", ()), ("verify-stieltjes", ("--eta", "0.05"))])
def test_sbm_reports_identical_across_blas_threads_and_workers(tmp_path, command, extra):
    # n = 400 is large enough for OpenBLAS to thread the eigensolver when it may
    spec = ens.SbmSpec(d=2, sizes=(200, 200), probs=np.array([[0.3, 0.05], [0.05, 0.3]]), seed=0)
    cfg = verify.LocalLawConfig(ensemble=spec, trials=3)
    assert len(_reports_across_blas_threads_and_workers(tmp_path, cfg, command, *extra)) == 1


_WIGNER = {"kind": "wigner", "n": 20, "profile": {"d": 1, "weights": [1.0], "coeffs": [[1.0]]},
           "law": {"kind": "rademacher"}, "seed": 0}
_SBM = {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5]], "seed": 0}
_CAMPAIGN = {"ensemble": _WIGNER, "trials": 2, "interval_len_factor": 5.0}
_PROJECTION = {"n": 4, "sigma": [1.0] * 4, "subspace_dim": 2, "weights": [1.0, 1.0], "t_grid": [1.0], "trials": 3}


@pytest.mark.parametrize("command, payload", [
    ("verify-local-law", []),
    ("verify-local-law", {**_CAMPAIGN, "trials": None}),
    ("verify-local-law", {**_CAMPAIGN, "trials": 2.7}),
    ("verify-local-law", {**_CAMPAIGN, "trails": 3}),
    ("verify-local-law", {"trials": 2}),
    ("verify-local-law", {**_CAMPAIGN, "ensemble": {**_WIGNER, "profile": []}}),
    ("test-projection", {**_PROJECTION, "sed": 3}),
    ("test-projection", {**_PROJECTION, "sigma": ["1", "1", "1", "1"]}),
    ("sample", []),
    ("sample", {**_WIGNER, "law": "rademacher"}),
    ("sample", {**_WIGNER, "p": None}),
    ("sample", {**_WIGNER, "n": 20.0}),
    ("sample", {**_WIGNER, "profile": {"d": 1, "weights": [1.0], "coeffs": [["1.0"]]}}),
    ("sample", {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5], 0.5], "seed": 0}),
    ("verify-local-law", {**_CAMPAIGN, "eta": float("inf")}),  # written as Infinity
    ("sample", {**_WIGNER, "law": {"kind": "scaled_bernoulli_centered", "bound": float("nan")}}),
    ("sample", {**_WIGNER, "law": {"kind": "scaled_bernoulli_centered", "bound": float("inf")}}),
    ("test-projection", {**_PROJECTION, "sigma": [1.0, float("nan"), 1.0, 1.0]}),
    ("test-projection", {**_PROJECTION, "weights": [1.0, float("nan")]}),
    ("test-projection", {**_PROJECTION, "t_grid": [1.0, float("inf")]}),
    ("sample", {**_WIGNER, "profile": {"n": 20, "entries": [[1.0] * 20] * 20, **_WIGNER["profile"]}}),
    ("sample", {k: v for k, v in _WIGNER.items() if k != "kind"}),
    ("sample", {**_SBM, "p": 0.5}),  # a block model has no keep probability
    ("sample", {**_SBM, "sizes": [True]}),
])
def test_malformed_json_exits_one_with_an_error_record(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    flag = "--ensemble" if command == "sample" else "--config"
    assert cli.main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


def _strict_json(text: str):
    """`text` parsed as JSON that holds no NaN or Infinity."""

    def reject(constant):
        raise AssertionError(f"non-finite constant {constant} in {text!r}")

    return json.loads(text, parse_constant=reject)


def _main_in_process(argv: list[str], out: Path) -> None:
    """Run cli.main(argv) and require one of the two clean outcomes: exit 0
    with a strict-JSON report at `out`, or exit 1 or 2 with exactly one
    strict-JSON line on stderr and no report."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected a value
            code = exc.code
    assert not caught, [str(w.message) for w in caught]  # each would be one more line on stderr
    if code == 0:
        assert stderr.getvalue() == ""
        _strict_json(out.read_text())
    else:
        assert code in (1, 2), (code, stderr.getvalue())
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert _strict_json(lines[0])["error"]
        assert not out.exists()


@st.composite
def tiny_campaigns(draw):
    """A campaign config of a dense or sparse wigner, or an SBM, ensemble with n in 2..12, as JSON."""
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**16))
    unit = st.floats(0.01, 1.0)
    law = {"kind": draw(st.sampled_from(["rademacher", "uniform_bounded"]))}
    wigner = {"kind": "wigner", "n": n, "profile": {"d": 1, "weights": [1.0], "coeffs": [[1.0]]},
              "law": law, "seed": seed}
    kind = draw(st.sampled_from(["wigner", "sparse", "sbm"]))
    if kind == "wigner":
        ensemble = wigner
    elif kind == "sparse":
        ensemble = {**wigner, "p": draw(unit)}
    else:
        first = draw(st.integers(1, n - 1))
        cross = draw(unit)
        ensemble = {"kind": "sbm", "d": 2, "sizes": [first, n - first],
                    "probs": [[draw(unit), cross], [cross, draw(unit)]], "seed": seed}
    return {"ensemble": ensemble, "eps": draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
            "trials": draw(st.integers(1, 3)), "interval_len_factor": draw(st.floats(0.1, 50.0))}


@settings(max_examples=100, deadline=None)
@given(config=tiny_campaigns(), command=st.sampled_from(["verify-local-law", "verify-stieltjes", "verify-deloc"]),
       eta=st.floats(1e-3, 10.0))
def test_fuzzed_tiny_campaigns_exit_cleanly(config, command, eta):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "campaign.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        extra = ["--eta", repr(eta)] if command == "verify-stieltjes" else []
        _main_in_process([command, "--config", str(path), "--threads", "1", "--out", str(out), *extra], out)


_EXTREME = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-8, 1.0, 2.0, 1e8, 1e300, 1e308, 1.7976931348623157e308]
_SIGNED = st.sampled_from(_EXTREME + [-v for v in _EXTREME] + [float("inf"), float("-inf"), float("nan")])


@settings(max_examples=100, deadline=None)
@given(x=_SIGNED | st.floats(), eta=_SIGNED | st.floats(), block=st.booleans())
def test_fuzzed_qve_solve_at_extreme_points_exits_cleanly(x, eta, block):
    profile = (qve.BlockProfile(d=2, weights=np.array([0.3, 0.7]), coeffs=np.array([[1.0, 0.2], [0.2, 0.6]]))
               if block else qve.VarianceProfile.constant(4))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "profile.json", Path(tmp) / "solution.json"
        profile.to_json(path)
        _main_in_process(["qve-solve", "--profile", str(path), f"--x={x!r}", f"--eta={eta!r}", "--out", str(out)], out)


@pytest.mark.parametrize("command", ["sample", "verify-local-law"])
def test_old_sparse_record_exits_one_with_one_error_record(tmp_path, capsys, command):
    # sparsity is the wigner spec's keep probability; the former "sparse" kind that nested one is not read
    sparse = {"kind": "sparse", "base": _WIGNER, "p": 0.5}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(sparse if command == "sample" else {**_CAMPAIGN, "ensemble": sparse}))
    flag = "--ensemble" if command == "sample" else "--config"
    assert cli.main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    where = str(path) if command == "sample" else "LocalLawConfig.ensemble"
    assert _strict_json(lines[0]) == {"error": "config", "message": f"{where} is none of WignerSpec, SbmSpec"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p", [0, -0.1, 1.5, float("nan")])
def test_keep_probability_outside_the_unit_interval_exits_one(tmp_path, capsys, p):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**_WIGNER, "p": p}))  # nan is written as NaN, which the reader takes
    assert cli.main(["sample", "--ensemble", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert _strict_json(lines[0])["message"] == f"WignerSpec.p must lie in (0, 1], got {float(p)}"


def test_deloc_campaign_with_an_empty_bulk_exits_one(tmp_path, capsys):
    # eps 0.315 keeps a bulk round the density's peak that no eigenvalue of n = 4 reaches
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"ensemble": {**_WIGNER, "n": 4}, "trials": 2, "eps": 0.315}))
    assert cli.main(["verify-deloc", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    captured = capsys.readouterr()
    assert "max_ratio" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert _strict_json(lines[0])["error"] == "config"
    assert not (tmp_path / "r.json").exists()


def test_non_finite_error_context_is_written_as_null(profile_path, monkeypatch, capsys):
    # no qve-solve point turns its defect non-finite after a finite start, so the
    # solve starts from a warm start whose second defect overflows (see test_qve)
    def diverging_solve(profile, point, tol):
        start = np.full((profile.dim, 1), 1e308 * (1 + 1j))
        qve._solve_batch(profile, np.array([point]), tol, initial=start)

    monkeypatch.setattr(qve, "solve_qve", diverging_solve)
    code = cli.main(["qve-solve", "--profile", profile_path, "--x", "1.1", "--eta", "0.5"])
    assert code == 2
    record = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "non_convergence"
    assert (record["x"], record["eta"], record["residual"]) == (1.1, 0.5, None)


def test_non_finite_defect_fails_at_once_with_one_record(profile_path):
    # -1/z underflows at this point, so the defect of the very first iterate is infinite
    src = str(Path(speclaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-m", "speclaw.cli", "qve-solve", "--profile", profile_path, "--x=1e308", "--eta", "1e308"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1
    record = _strict_json(lines[0])
    assert record["error"] == "config"
    assert "x=1e+308" in record["message"] and "eta=1e+308" in record["message"]


@pytest.mark.parametrize("argv, code", [
    (["density", "--grid=1e308:1.5e308:2", "--eta", "1e308", "--out", "{tmp}/rho.csv"], 1),
    (["qve-solve", "--x=1e300", "--eta", "1"], 2),  # starts finite, then stalls at the rounding floor
])
def test_unstartable_point_exits_one_and_a_stall_exits_two(tmp_path, profile_path, capsys, argv, code):
    argv = [argv[0], "--profile", profile_path, *(arg.format(tmp=tmp_path) for arg in argv[1:])]
    assert cli.main(argv) == code
    record = _strict_json(capsys.readouterr().err.strip())
    assert record["error"] == ("config" if code == 1 else "non_convergence")
    assert not (tmp_path / "rho.csv").exists()


def test_zero_tol_is_honoured(tmp_path, capsys):
    prof_path = tmp_path / "p.json"
    qve.VarianceProfile.constant(4).to_json(prof_path)
    out = tmp_path / "sol.json"
    args = ["qve-solve", "--profile", str(prof_path), "--x", "0", "--eta", "0.1", "--tol", "0", "--out", str(out)]
    assert cli.main(args) == 0
    assert json.loads(out.read_text())["residual"] == 0.0


def _config_failure(capsys) -> str:
    """The message of the one "config" record on stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = _strict_json(err)
    assert record["error"] == "config"
    return record["message"]


@pytest.mark.parametrize("command", ["verify-local-law", "verify-stieltjes", "verify-deloc"])
@pytest.mark.parametrize("ensemble", [{**_WIGNER, "n": 1}, {**_SBM, "sizes": [1]}], ids=["wigner", "sbm"])
def test_single_node_campaign_exits_one_without_a_report(tmp_path, capsys, command, ensemble):
    # log n = 0 would zero the interval length, the eta floor and the deloc normalization
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({**_CAMPAIGN, "ensemble": ensemble}))
    eta = ["--eta", "0.5"] if command == "verify-stieltjes" else []
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "r.json"), *eta]) == 1
    assert "n >= 2" in _config_failure(capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["qve-solve", "--profile", "{profile}", "--eta", "-1"], "eta must be positive and finite, got -1.0"),
    (["density", "--profile", "{profile}", "--eta", "0", "--out", "{tmp}/rho.csv"], "eta must be positive"),
    (["verify-stieltjes", "--config", "{campaign}", "--eta", ","], "eta grid is empty"),
    (["density", "--profile", "{profile}", "--eta", "inf", "--out", "{tmp}/rho.csv"], "eta must be positive and finite"),
])
def test_invalid_argument_exits_one(tmp_path, profile_path, campaign_path, capsys, argv, message):
    paths = {"profile": profile_path, "campaign": campaign_path, "tmp": tmp_path}
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    assert message in _config_failure(capsys)


# the json module reads the NaN and Infinity literals, so a config can carry them
@pytest.mark.parametrize("command, flag, payload, message", [
    ("spectrum", "--ensemble", {"kind": "sbm", "d": 2, "sizes": [3, 3], "probs": [[0.5, float("nan")], [float("nan"), 0.5]],
                                "seed": 0}, "SbmSpec.probs must be finite"),
    ("density", "--profile", {"d": 1, "weights": [1.0], "coeffs": [[float("inf")]]}, "BlockProfile.coeffs must be finite"),
    ("density", "--profile", {"n": 1, "entries": [[float("nan")]]}, "VarianceProfile.entries must be finite"),
    ("test-projection", "--config", {"n": 1, "sigma": [1.0], "subspace_dim": 1, "weights": [1.0],
                                     "t_grid": [1.0, float("-inf")], "trials": 1}, "ProjectionTestSpec.t_grid must be finite"),
])
def test_non_finite_config_arrays_exit_one(tmp_path, capsys, command, flag, payload, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main([command, flag, str(path), "--out", str(out)]) == 1
    assert _config_failure(capsys) == message
    assert not out.exists()


# every array field of a JSON record: (command, its input flag, a valid input)
_ARRAY_INPUTS = {
    "VarianceProfile": ("density", "--profile", {"n": 2, "entries": [[1.0, 0.5], [0.5, 1.0]]}),
    "BlockProfile": ("density", "--profile", {"d": 2, "weights": [0.5, 0.5], "coeffs": [[1.0, 0.5], [0.5, 1.0]]}),
    "SbmSpec": ("spectrum", "--ensemble", {"kind": "sbm", "d": 2, "sizes": [3, 3], "probs": [[0.5, 0.1], [0.1, 0.5]],
                                           "seed": 0}),
    "ProjectionTestSpec": ("test-projection", "--config", {"n": 2, "sigma": [1.0, 0.5], "subspace_dim": 2,
                                                           "weights": [1.0, 0.5], "t_grid": [1.0, 2.0], "trials": 1}),
}
_ARRAY_FIELDS = ["VarianceProfile.entries", "BlockProfile.weights", "BlockProfile.coeffs", "SbmSpec.probs",
                 "ProjectionTestSpec.sigma", "ProjectionTestSpec.weights", "ProjectionTestSpec.t_grid"]


def _with_first_element(value, replace):
    """The nested list `value` with its first number replaced by replace(number)."""
    head = _with_first_element(value[0], replace) if isinstance(value[0], list) else replace(value[0])
    return [head, *value[1:]]


@pytest.mark.parametrize("bad", [lambda v: "1", lambda v: [v], lambda v: None], ids=["string", "ragged", "null"])
@pytest.mark.parametrize("where", _ARRAY_FIELDS)
def test_json_array_of_non_numbers_exits_one_naming_the_field(tmp_path, capsys, where, bad):
    # the codec only requires a JSON array; the record's constructor checks its elements
    cls, name = where.split(".")
    command, flag, payload = _ARRAY_INPUTS[cls]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**payload, name: _with_first_element(payload[name], bad)}))
    out = tmp_path / "out"
    assert cli.main([command, flag, str(path), "--out", str(out)]) == 1
    assert _config_failure(capsys) == f"{where} must be an array of real numbers"
    assert not out.exists()


@pytest.mark.parametrize("etas", ["nan,0.01", "0.01,inf", "0,0.01", "-0.5,0.01"])
def test_stieltjes_eta_off_the_positive_reals_exits_one_before_the_prediction(tmp_path, campaign_path, monkeypatch,
                                                                             capsys, etas):
    predictions = []
    monkeypatch.setattr(verify, "extract_density", lambda *args, **kwargs: predictions.append(args))
    out = tmp_path / "r.json"
    assert cli.main(["verify-stieltjes", "--config", campaign_path, f"--eta={etas}", "--out", str(out)]) == 1
    assert "eta must be positive and finite" in _config_failure(capsys)
    assert predictions == [] and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["qve-solve", "--profile", "{profile}", "--eta", "inf"], "eta must be positive and finite, got inf"),
    (["qve-solve", "--profile", "{profile}", "--eta", "nan"], "eta must be positive and finite, got nan"),
    (["qve-solve", "--profile", "{profile}", "--eta", "0"], "eta must be positive and finite, got 0.0"),
    (["qve-solve", "--profile", "{profile}", "--x", "nan"], "x must be finite, got nan"),
    (["verify-stieltjes", "--config", "{campaign}", "--eta", "0.01,inf"], "eta must be positive and finite, got inf"),
])
def test_point_off_the_upper_half_plane_exits_one_with_one_record(profile_path, campaign_path, capsys, argv, message):
    paths = {"profile": profile_path, "campaign": campaign_path}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
    assert caught == []
    assert _config_failure(capsys) == message  # stderr parses as this one record and nothing else


@pytest.mark.parametrize("grid", ["0:inf:5", "-inf:0:5", "nan:1:5", "-1e308:1e308:5"])
def test_non_finite_grid_end_exits_one_without_warnings(tmp_path, profile_path, capsys, grid):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        cli.main(["density", "--profile", profile_path, "--grid", grid, "--out", str(tmp_path / "rho.csv")])
    assert exc.value.code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and "finite lo < hi" in err


def _strict_cli(*argv: str) -> subprocess.CompletedProcess:
    """`python -W error -m speclaw.cli argv`: any warning, numpy's included, would end in a traceback."""
    src = str(Path(speclaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "error", "-m", "speclaw.cli", *argv],
                          env=env, capture_output=True, text=True)


_BLOCK_50 = {**_WIGNER, "n": 50}


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_zero_width_intervals_exit_one_with_one_record(tmp_path, out):
    # 1e-320 * K^2 log n/(n p) is a subnormal length that m -/+ length/2 rounds away off 0
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"ensemble": _BLOCK_50, "trials": 1, "interval_len_factor": 1e-320}))
    report = tmp_path / "r.json"
    run = _strict_cli("verify-local-law", "--config", str(path), *(["--out", str(report)] if out else []))
    assert (run.returncode, run.stdout) == (1, "")
    [line] = run.stderr.splitlines()
    record = _strict_json(line)
    assert record["error"] == "config" and "have no width" in record["message"]
    assert not report.exists()


# 10**15 doubles outgrow any address space and 2**62 doubles an intp; a smaller count such as 10**12
# fails only where the kernel refuses to overcommit, so the tests do not use one
@pytest.mark.parametrize("count", [10**15, 2**62])
@pytest.mark.parametrize("command", ["verify-local-law", "verify-stieltjes"])
def test_unallocatable_interval_count_exits_one_with_one_record(tmp_path, command, count):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"ensemble": _BLOCK_50, "trials": 1, "interval_len_factor": 5.0, "num_intervals": count}))
    eta = ["--eta", "0.5"] if command == "verify-stieltjes" else []
    run = _strict_cli(command, "--config", str(path), "--out", str(tmp_path / "r.json"), *eta)
    assert (run.returncode, run.stdout) == (1, "")
    [line] = run.stderr.splitlines()
    assert _strict_json(line)["message"].startswith("cannot allocate a grid of ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("count", [10**15, 2**62])
def test_unallocatable_grid_count_is_a_usage_error(tmp_path, profile_path, count):
    # the grid is built while argparse converts the flag, before main's try, so it fails as a usage error
    run = _strict_cli("density", "--profile", profile_path, "--grid", f"0:1:{count}", "--out", str(tmp_path / "rho.csv"))
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("usage: speclaw density") and "Traceback" not in run.stderr
    assert run.stderr.splitlines()[-1] == f"error: argument --grid: cannot allocate a grid of {count} points"
    assert not (tmp_path / "rho.csv").exists()


def test_lemma_summary_lines_are_unchanged(tmp_path, capsys):
    # the lines the commands printed when the reports held rows and max_shift_rank1 (acceptance seeds)
    spec = {"n": 400, "sigma": [0.25, 1.0] * 200, "subspace_dim": 100, "weights": [1.0] * 100,
            "t_grid": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1], "trials": 10_000, "seed": 11}
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["test-projection", "--config", str(path)]) == 0
    assert cli.main(["test-interlacing", "--trials", "500", "--n", "50", "--seed", "6"]) == 0
    assert capsys.readouterr().out == ("failure_rate_first=0.8388 failure_rate_last=0.0290\n"
                                       "violations=0 trials=500 max_rank1_shift=1\n")


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "-3"]], ids=["threads-0", "threads-negative"])
def test_fewer_than_one_worker_exits_one(tmp_path, campaign_path, capsys, flag):
    out = tmp_path / "r.json"
    assert cli.main(["verify-local-law", "--config", campaign_path, *flag, "--out", str(out)]) == 1
    assert "at least 1 worker" in _config_failure(capsys)
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_interlacing_without_trials_exits_one(tmp_path, capsys, trials):
    out = tmp_path / "i.json"
    assert cli.main(["test-interlacing", "--trials", trials, "--n", "10", "--out", str(out)]) == 1
    assert "at least 1 trial" in _config_failure(capsys)
    assert not out.exists()


def test_projection_without_coordinates_exits_one(tmp_path, capsys):
    path = tmp_path / "proj.json"
    path.write_text(json.dumps({**_PROJECTION, "n": 0, "sigma": []}))
    out = tmp_path / "r.json"
    assert cli.main(["test-projection", "--config", str(path), "--out", str(out)]) == 1
    assert _config_failure(capsys) == "ProjectionTestSpec.n must lie in [1, inf), got 0"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, payload, message", [
    ("sample", "--ensemble", {**_WIGNER, "n": 2**32 + 1}, "WignerSpec.n must lie in [1, 4294967296), got 4294967297"),
    ("sample", "--ensemble", {**_SBM, "d": 2, "sizes": [2**31, 2**31 + 1], "probs": [[0.5, 0.1], [0.1, 0.5]]},
     "n=4294967297 must be below 2**32: pair counters hold 32-bit indices"),
    ("verify-deloc", "--config", {**_CAMPAIGN, "ensemble": {**_SBM, "sizes": [2**32]}},
     "n=4294967296 must be below 2**32: pair counters hold 32-bit indices"),
], ids=["wigner", "sbm", "sbm-campaign"])
def test_n_past_the_pair_counter_range_exits_one(tmp_path, capsys, command, flag, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main([command, flag, str(path), "--out", str(out)]) == 1
    assert _config_failure(capsys) == message
    assert not out.exists()


def test_interlacing_past_the_pair_counter_range_exits_one(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert cli.main(["test-interlacing", "--trials", "1", "--n", str(2**32), "--out", str(out)]) == 1
    assert "n < 2**32" in _config_failure(capsys)
    assert not out.exists()


@pytest.mark.parametrize("where, payload", [
    ("LocalLawConfig.eps", {**_CAMPAIGN, "eps": "HUGE"}),
    ("EntryLaw.bound", {**_CAMPAIGN, "ensemble": {**_WIGNER, "law": {"kind": "scaled_bernoulli_centered",
                                                                     "bound": "HUGE"}}}),
])
def test_integer_beyond_the_float_range_exits_one_with_a_config_record(tmp_path, capsys, where, payload):
    path = tmp_path / "llaw.json"
    path.write_text(json.dumps(payload).replace('"HUGE"', "9" * 401))  # 401 digits, beyond 1.8e308
    out = tmp_path / "r.json"
    assert cli.main(["verify-local-law", "--config", str(path), "--out", str(out)]) == 1
    assert where in _config_failure(capsys)
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    json.dumps({**_CAMPAIGN, "eps": "HUGE"}).replace('"HUGE"', "9" * 5000),  # past int()'s 4300-digit limit
    json.dumps({**_CAMPAIGN, "ensemble": {**_WIGNER, "n": 10**30}}),  # beyond int64
], ids=["5000-digit-eps", "n-beyond-int64"])
def test_integer_literal_out_of_range_exits_one_with_a_config_record(tmp_path, capsys, payload):
    path = tmp_path / "llaw.json"
    path.write_text(payload)
    out = tmp_path / "r.json"
    assert cli.main(["verify-local-law", "--config", str(path), "--out", str(out)]) == 1
    _config_failure(capsys)
    assert not out.exists()


def test_non_utf8_config_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"trials": "d\u00e9j\u00e0"}'.encode("latin-1"))
    assert cli.main(["verify-local-law", "--config", str(path)]) == 1
    assert "utf-8" in _config_failure(capsys)


def test_failed_eigensolver_exits_two_with_null_context(campaign_path, monkeypatch, capsys):
    def failing_eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    assert cli.main(["verify-stieltjes", "--config", campaign_path, "--eta", "0.5"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "non_convergence", "message": "dense eigensolver failed: Eigenvalues did not converge",
                      "x": None, "eta": None, "residual": None, "iterations": None}


def test_internal_bug_is_not_reported_as_a_config_problem(tmp_path, profile_path, monkeypatch):
    def buggy(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(qve, "extract_density", buggy)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["density", "--profile", profile_path, "--out", str(tmp_path / "rho.csv")])
