"""Every declared range of a JSON record (`errors.within`), walked with extreme values through
from_dict and through the CLI command that reads the record; and campaigns whose derived scale,
interval width or eta cannot give a meaningful report.

Each value must give a valid report, or exit 1 with exactly one strict-JSON record; exit 2 is
allowed only for a solver non-convergence.  Warnings raise here, as under `python -W error`.  A
value outside its declared range is refused with its record's error class, and a scalar with the
one message form `Class.field must lie in (lo, hi], got v`.  No value sizes work: an int field
(they count rows, classes, trials or intervals) gets only its lower bound and the refused
neighbour below it, and an upper bound of 2**32 (WignerSpec.n) only itself, since 2**32 - 1 rows
would make `block_labels` allocate 32 GB.
"""

import contextlib
import dataclasses
import io
import json
import math
import typing
import warnings

import numpy as np
import pytest

from speclaw import cli, ensembles as ens, qve, verify
from speclaw.errors import InvalidSpec, SpecLawError

_BLOCK = {"d": 1, "weights": [1.0], "coeffs": [[1.0]]}
_WIGNER = {"kind": "wigner", "n": 20, "profile": _BLOCK, "law": {"kind": "rademacher"}, "seed": 0}

# each record with declared ranges: the command line that reads it, up to its path, and a valid input
_INPUTS = {
    qve.VarianceProfile: (["density", "--profile"], {"n": 2, "entries": [[1.0, 0.5], [0.5, 1.0]]}),
    qve.BlockProfile: (["density", "--profile"], _BLOCK),
    ens.WignerSpec: (["sample", "--ensemble"], _WIGNER),
    ens.SbmSpec: (["sample", "--ensemble"], {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5]], "seed": 0}),
    verify.LocalLawConfig: (["verify-local-law", "--threads", "1", "--config"],
                            {"ensemble": _WIGNER, "trials": 1, "interval_len_factor": 5.0}),
    verify.ProjectionTestSpec: (["test-projection", "--config"], {"n": 4, "sigma": [1.0] * 4, "subspace_dim": 2,
                                                                  "weights": [1.0, 1.0], "t_grid": [1.0], "trials": 3}),
}
_EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 1e308]


def _declared() -> list:
    """(class, field) of every declared range of the package's records, in module order."""
    return [(cls, f) for module in (qve, ens, verify) for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
            for f in dataclasses.fields(cls) if "range" in f.metadata]


def _counts(cls, f) -> bool:
    return typing.get_type_hints(cls)[f.name] in (int, tuple[int, ...])


def _values(cls, f) -> list:
    lo, hi, _ = f.metadata["range"]
    if _counts(cls, f):
        return [lo, lo - 1] + ([hi] if hi == 2**32 else [])
    near = [float(np.nextafter(b, to)) for b in (lo, hi) for to in (-math.inf, math.inf)]
    return list({repr(v): v for v in [*_EXTREMES, float(lo), float(hi), *near]}.values())  # keeps -0.0 beside 0.0


def _inside(f, value) -> bool:
    lo, hi, ends = f.metadata["range"]
    return (lo < value if ends[0] == "(" else lo <= value) and (value < hi if ends[1] == ")" else value <= hi)


def _with(data: dict, name: str, value) -> dict:
    """`data` with field `name` set to `value`, or each number of it when it is a (nested) list."""

    def fill(item):
        return [fill(v) for v in item] if isinstance(item, list) else value

    return {**data, name: fill(data.get(name))}


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"non-finite constant {constant} in {text!r}")

    return json.loads(text, parse_constant=reject)


def _run(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with every warning raised as an error: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, stderr.getvalue()


def _one_record(stderr: str) -> dict:
    lines = stderr.splitlines()
    assert len(lines) == 1, lines
    return _strict_json(lines[0])


def test_every_record_with_declared_ranges_has_a_probe_input():
    assert {cls for cls, _ in _declared()} == set(_INPUTS)


@pytest.mark.parametrize("cls, f, value", [(cls, f, v) for cls, f in _declared() for v in _values(cls, f)],
                         ids=lambda v: v.__name__ if isinstance(v, type) else getattr(v, "name", repr(v)))
def test_declared_range_value_gives_a_report_or_one_record(tmp_path, cls, f, value):
    command, valid = _INPUTS[cls]
    data = _with(valid, f.name, value)
    lo, hi, ends = f.metadata["range"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cls.from_dict(data)
        refused = None
    except SpecLawError as exc:
        refused = exc
    if not _inside(f, value):
        assert type(refused) is InvalidSpec
        message = f"{cls.__name__}.{f.name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}"
        # a scalar is checked before its record's own checks; an array after its shape and finiteness
        if typing.get_type_hints(cls)[f.name] is not np.ndarray or "must lie in" in str(refused):
            assert str(refused) == message

    path, out = tmp_path / "input.json", tmp_path / "out"
    path.write_text(json.dumps(data))  # nan and inf as NaN and Infinity, which the reader takes
    code, stderr = _run([*command, str(path), "--out", str(out)])
    if code == 0:
        assert stderr == "" and refused is None
        if out.suffix == ".json":
            _strict_json(out.read_text())
        return
    record = _one_record(stderr)
    assert not out.exists()
    if refused is not None:
        assert (code, record) == (1, {"error": "config", "message": str(refused)})
    else:
        assert (code, record["error"]) in ((1, "config"), (2, "non_convergence")), record


@pytest.mark.parametrize("override, message", [
    (["--trials", "0"], "LocalLawConfig.trials must lie in [1, inf), got 0"),
    (["--eps", "nan"], "LocalLawConfig.eps must lie in (0, inf), got nan"),
    (["--delta", "1"], "LocalLawConfig.delta must lie in (0, 1), got 1.0"),
])
def test_command_line_override_out_of_range_exits_one(tmp_path, override, message):
    # an override rebuilds the config through dataclasses.replace, which checks the ranges again
    path, out = tmp_path / "campaign.json", tmp_path / "report.json"
    path.write_text(json.dumps(_INPUTS[verify.LocalLawConfig][1]))
    code, stderr = _run(["verify-local-law", "--config", str(path), *override, "--out", str(out)])
    assert (code, _one_record(stderr)) == (1, {"error": "config", "message": message})
    assert not out.exists()


# ---------------------------------------------------------------------------
# campaigns that would report vacuous numbers

_DENSE60 = {**_WIGNER, "n": 60}


@pytest.mark.parametrize("command, config, message", [
    ("verify-deloc", {"ensemble": {**_DENSE60, "p": 1e-320}, "trials": 2},
     "campaigns need n >= 2 and a finite K^2 log n/(n p_eff), got inf at n=60, K=1.0, p_eff=1e-320"),
    ("verify-deloc", {"ensemble": {**_DENSE60, "law": {"kind": "scaled_bernoulli_centered", "bound": 1e300}},
                      "trials": 2},
     "campaigns need n >= 2 and a finite K^2 log n/(n p_eff), got inf at n=60, K=1e+300, p_eff=1.0"),
    ("verify-local-law", {"ensemble": {**_DENSE60, "n": 50}, "trials": 2, "num_intervals": 1,
                          "interval_len_factor": 1e-320},
     "intervals of length 7.80624e-322 have no width in [-1.89, 1.89] that n=50 times is normal"),
    ("verify-local-law", {"ensemble": _DENSE60, "trials": 2, "eps": 1e-7, "eta": 1e6},
     "eta=1e+06 is too large: its float spacing 1.16e-10 exceeds tol=1e-10"),
], ids=["deloc-p-1e-320", "deloc-bound-1e300", "local-law-subnormal-interval", "local-law-eta-1e6"])
def test_vacuous_campaign_exits_one_with_one_record(tmp_path, command, config, message):
    # at p = 1e-320 or K = 1e300 the scale overflowed to inf and every sup-norm ratio read 0;
    # a subnormal interval gave a subnormal prediction and a deviation of about rho(0); at
    # eta = 1e6 (pi eta eps = 0.31) the prediction's solver stalled and the campaign exited 2
    path, out = tmp_path / "campaign.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    code, stderr = _run([command, "--config", str(path), "--threads", "1", "--out", str(out)])
    assert (code, _one_record(stderr)) == (1, {"error": "config", "message": message})
    assert not out.exists()


def test_campaign_eta_above_one_over_pi_eps_exits_one_before_any_solve(tmp_path, monkeypatch):
    # rho at eta is at most 1/(pi eta), so no bulk can reach eps; the solver used to stall for 50 sweeps
    def solve(*args, **kwargs):
        raise AssertionError("the campaign reached the solver")

    monkeypatch.setattr(qve, "_solve_batch", solve)
    path, out = tmp_path / "campaign.json", tmp_path / "report.json"
    path.write_text(json.dumps({"ensemble": _DENSE60, "trials": 2, "eta": 1e300}))
    code, stderr = _run(["verify-local-law", "--config", str(path), "--threads", "1", "--out", str(out)])
    message = "eta=1e+300 exceeds 1/(pi eps) at eps=0.1: a density at eta is at most 1/(pi eta)"
    assert (code, _one_record(stderr)) == (1, {"error": "config", "message": message})
    assert not out.exists()


@pytest.mark.parametrize("eta, code", [(1e6, 1), (5.2e5, 0)])
def test_density_refuses_an_eta_whose_float_spacing_exceeds_tol(tmp_path, eta, code):
    # from eta = 2**19 on, ulp(eta) > tol and the imaginary part of a defect moves in steps of
    # ulp(eta), so no point could converge: the solver stalled after 51 sweeps and exited 2
    profile, out = tmp_path / "block.json", tmp_path / "rho.csv"
    profile.write_text(json.dumps(_BLOCK))
    result, stderr = _run(["density", "--profile", str(profile), "--eta", repr(eta), "--out", str(out)])
    assert result == code
    if code:
        message = f"eta={eta:g} is too large: its float spacing 1.16e-10 exceeds tol=1e-10"
        assert _one_record(stderr) == {"error": "config", "message": message}
    assert out.exists() == (code == 0)
