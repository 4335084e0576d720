"""The one rule for the float arrays value types store (`errors.frozen_array`):
each is a read-only float64 copy of the caller's array, and a non-finite value
is rejected with a typed error naming Class.field, before it can turn into a
wrong count downstream."""

import json
import re

import numpy as np
import pytest

from speclaw import cli, ensembles as ens, qve, spectra, verify
from speclaw.errors import InvalidSpec


def _projection(**arrays):
    inputs = {"sigma": [1.0, 0.5], "weights": [1.0], "t_grid": [1.0], **arrays}
    return verify.ProjectionTestSpec(n=2, subspace_dim=1, trials=1, **inputs)


# Class.field -> (a constructor from that field's input, the other inputs valid,
# a valid integer input, the array stored for it; None: the input as float64)
FIELDS = {
    "VarianceProfile.entries": (lambda a: qve.VarianceProfile(n=2, entries=a), [[1, 1], [1, 1]], None),
    "BlockProfile.weights": (lambda a: qve.BlockProfile(d=1, weights=a, coeffs=[[1.0]]), [1], None),
    "BlockProfile.coeffs": (lambda a: qve.BlockProfile(d=1, weights=[1.0], coeffs=a), [[1]], None),
    "DensityCurve.grid": (lambda a: qve.DensityCurve(grid=a, values=[0.0, 1.0, 0.0], eta_used=1e-6, profile_hash="h"),
                          [0, 1, 2], None),
    "DensityCurve.values": (lambda a: qve.DensityCurve(grid=[0.0, 1.0, 2.0], values=a, eta_used=1e-6, profile_hash="h"),
                            [0, 1, 0], None),
    "TridiagonalForm.diag": (lambda a: spectra.TridiagonalForm(diag=a, offdiag=[1.0, 1.0]), [1, 2, 3], None),
    "TridiagonalForm.offdiag": (lambda a: spectra.TridiagonalForm(diag=[1.0, 2.0, 3.0], offdiag=a), [1, 1], None),
    "SpectrumSummary.eigenvalues": (lambda a: spectra.SpectrumSummary(eigenvalues=a), [1, 2, 3], None),
    "SpectrumSummary.inf_norms": (lambda a: spectra.SpectrumSummary(eigenvalues=[1.0, 2.0], inf_norms=a), [1, 1], None),
    "SbmSpec.probs": (lambda a: ens.SbmSpec(d=2, sizes=(1, 1), probs=a, seed=0), [[0, 0], [0, 0]], None),
    "ProjectionTestSpec.sigma": (lambda a: _projection(sigma=a), [1, 0], None),
    "ProjectionTestSpec.weights": (lambda a: _projection(weights=a), [1], None),
    "ProjectionTestSpec.t_grid": (lambda a: _projection(t_grid=a), [3, 1, 2], [1.0, 2.0, 3.0]),  # sorted
}


@pytest.mark.parametrize("where", FIELDS)
def test_every_stored_array_is_a_read_only_float64_copy(where):
    build, ints, stored = FIELDS[where]
    name = where.split(".")[1]
    value = getattr(build(ints), name)
    assert value.dtype == np.float64 and not value.flags.writeable
    assert np.array_equal(value, np.asarray(ints, dtype=np.float64) if stored is None else stored)
    caller = np.array(ints, dtype=np.float64)
    obj = build(caller)
    caller += 0.25
    assert np.array_equal(getattr(obj, name), value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", FIELDS)
def test_a_non_finite_value_is_rejected_naming_the_field(where, bad):
    # a NaN eigenvalue used to pass the sorted check, NaN SBM probabilities read
    # as not symmetric, and a density curve took NaN or inf values
    build, ints, _ = FIELDS[where]
    values = np.array(ints, dtype=np.float64)
    values.flat[0] = bad
    with pytest.raises(InvalidSpec, match=re.escape(f"{where} must be finite")):
        build(values)


def _complex(ints):
    values = np.array(ints, dtype=np.complex128)
    values.flat[0] += 1j
    return values


def _boolean(ints):
    # JSON's true among numbers, as json.loads gives it: numpy read it as 1.0
    values = np.array(ints, dtype=object)
    values.flat[0] = True
    return values.tolist()


@pytest.mark.parametrize("bad", [lambda ints: [[1.0], [1.0, 2.0]], lambda ints: "ab", _complex, _boolean],
                         ids=["ragged", "string", "complex", "boolean"])
@pytest.mark.parametrize("where", FIELDS)
def test_a_value_that_is_not_an_array_of_real_numbers_is_rejected_naming_the_field(where, bad):
    # numpy's ValueError escaped for the first two, and a complex array lost its imaginary part
    build, ints, _ = FIELDS[where]
    with pytest.raises(InvalidSpec, match=re.escape(f"{where} must be an array of real numbers")):
        build(bad(ints))


@pytest.mark.parametrize("entries", [[[1.0, 0.5], [0.5, False]], ([1.0, 0.5], (0.5, np.True_))])
def test_a_boolean_at_any_depth_is_rejected(entries):
    with pytest.raises(InvalidSpec, match=re.escape("VarianceProfile.entries must be an array of real numbers")):
        qve.VarianceProfile(n=2, entries=entries)


def test_cli_rejects_a_json_boolean_among_numbers(tmp_path, capsys):
    # test-projection ran with sigma [1.0, 1.0] on this config and exited 0
    config = tmp_path / "projection.json"
    config.write_text(json.dumps({"n": 2, "sigma": [1.0, True], "subspace_dim": 1, "weights": [1.0],
                                  "t_grid": [1.0], "trials": 1}))
    assert cli.main(["test-projection", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "config", "message": "ProjectionTestSpec.sigma must be an array of real numbers"}
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("want_vectors", [False, True])
def test_dense_eigensolver_names_a_non_finite_matrix_as_bad_input(want_vectors):
    # LAPACK fails on a matrix that is NaN throughout; that read as NonConvergence (exit 2)
    with pytest.raises(InvalidSpec, match="matrix entries must be finite") as caught:
        spectra.eigen_full(np.full((3, 3), np.nan), want_vectors=want_vectors)
    assert caught.value.exit_code == 1


@pytest.mark.parametrize("eta", [0.0, -1.0, np.inf, np.nan])
def test_density_curve_needs_a_positive_finite_eta(eta):
    with pytest.raises(InvalidSpec, match="eta_used must be positive and finite"):
        qve.DensityCurve(grid=[0.0, 1.0], values=[0.0, 1.0], eta_used=eta, profile_hash="h")


def test_nan_coupling_fails_the_reduction_instead_of_miscounting():
    # a form with this NaN coupling Sturm-counts [0, 0, 2] at shifts -10, 0.5 and 10: two eigenvalues lost
    a = np.eye(4)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(InvalidSpec, match="TridiagonalForm.offdiag must be finite"):
        spectra.tridiagonalize(a)


@pytest.mark.skipif(spectra._lapack_dsytrd_2stage() is None, reason="no bundled OpenBLAS exports dsytrd_2stage")
def test_inf_entry_fails_the_two_stage_reduction_instead_of_miscounting():
    # the form reduced from this identity plus one infinite coupling Sturm-counts [1, 1, 1299] at shifts -10, 0.5, 10
    n = 1300
    assert n >= spectra._TWO_STAGE_MIN_N
    a = np.eye(n)
    a[0, 1] = a[1, 0] = np.inf
    with pytest.raises(InvalidSpec, match="must be finite"):
        spectra.tridiagonalize(a)


@pytest.mark.parametrize("want_vectors", [False, True])
def test_dense_eigensolver_rejects_nan_eigenvalues(want_vectors):
    # eigvalsh and eigh return [1, nan, nan, 1] here, unsorted, with no LinAlgError
    a = np.eye(4)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(InvalidSpec, match="SpectrumSummary.eigenvalues must be finite"):
        spectra.eigen_full(a, want_vectors=want_vectors)


def test_nan_shift_is_invalid_and_infinite_shifts_count():
    t = spectra.TridiagonalForm(diag=[0.0, 1.0, 2.0], offdiag=[0.0, 0.0])
    assert spectra.eigenvalue_counts_below(t, np.array([-np.inf, np.inf])).tolist() == [0, 3]
    with pytest.raises(InvalidSpec, match="Sturm shift 1 is NaN"):
        spectra.eigenvalue_counts_below(t, np.array([0.5, np.nan]))
