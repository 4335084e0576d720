"""The one JSON codec: every record type round-trips through to_json and read_json; every CSV
writer reads back through csv.reader."""

import csv
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclaw import ensembles as ens
from speclaw import qve, spectra, verify
from speclaw.errors import InvalidSpec, read_json, report_json_bytes

reals = st.floats(min_value=-1e6, max_value=1e6)
positives = st.floats(min_value=1e-6, max_value=1e6)
units = st.floats(min_value=0.0, max_value=1.0)
counts = st.integers(min_value=0, max_value=10**6)
seeds = st.integers(min_value=0, max_value=2**62)


def _symmetric(seed: int, d: int, lo: float, hi: float) -> np.ndarray:
    a = np.random.default_rng(seed).uniform(lo, hi, size=(d, d))
    return (a + a.T) / 2.0


@st.composite
def variance_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return qve.VarianceProfile(n=n, entries=_symmetric(draw(seeds), n, 0.05, 1.0))


@st.composite
def block_profiles(draw):
    sizes = np.array(draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)))
    return qve.BlockProfile(d=sizes.size, weights=sizes / sizes.sum(), coeffs=_symmetric(draw(seeds), sizes.size, 0.05, 1.0))


@st.composite
def entry_laws(draw):
    kind = draw(st.sampled_from(ens.LAW_KINDS))
    bound = draw(st.floats(min_value=1.0, max_value=10.0)) if kind == "scaled_bernoulli_centered" else None
    return ens.EntryLaw(kind, bound)


@st.composite
def wigner_specs(draw):
    profile = draw(variance_profiles() | block_profiles())
    # block weights are at least 1/20, so 20 rows give every class one
    n = profile.n if isinstance(profile, qve.VarianceProfile) else 20
    p = draw(st.just(1.0) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return ens.WignerSpec(n=n, profile=profile, law=draw(entry_laws()), seed=draw(seeds), p=p)


@st.composite
def sbm_specs(draw):
    sizes = tuple(draw(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4)))
    return ens.SbmSpec(d=len(sizes), sizes=sizes, probs=_symmetric(draw(seeds), len(sizes), 0.0, 0.95), seed=draw(seeds))


ensemble_specs = wigner_specs() | sbm_specs()


def _has_local_law_scale(spec) -> bool:
    """Whether a campaign can run on `spec`: n >= 2 and a finite scale K^2 log n/(n p_eff)."""
    try:
        return verify.local_law_scale(spec) > 0
    except InvalidSpec:
        return False


@st.composite
def local_law_configs(draw):
    ensemble = draw(ensemble_specs.filter(_has_local_law_scale))
    eps = draw(positives)
    return verify.LocalLawConfig(
        ensemble=ensemble, eps=eps, delta=draw(st.floats(min_value=1e-6, max_value=0.999)),
        interval_len_factor=draw(positives), num_intervals=draw(st.integers(min_value=1, max_value=9)),
        trials=draw(st.integers(min_value=1, max_value=99)), base_seed=draw(seeds),
        eta=draw(st.floats(min_value=0.0, max_value=0.3 / eps, exclude_min=True)),  # eta <= 1/(pi eps) keeps a bulk possible
    )


@st.composite
def interval_records(draw):
    trials = draw(st.integers(min_value=0, max_value=5))
    return verify.IntervalRecord(
        lo=draw(reals), hi=draw(reals), predicted=draw(reals),
        observed=draw(st.lists(counts, min_size=trials, max_size=trials)),
        deviations=draw(st.lists(positives, min_size=trials, max_size=trials)), pass_fraction=draw(units),
    )


@st.composite
def local_law_reports(draw):
    return verify.LocalLawReport(
        config=draw(local_law_configs()).to_dict(), n=draw(counts), intervals=draw(st.lists(interval_records(), max_size=3)),
        trial_pass=draw(st.lists(st.booleans(), max_size=5)), pass_fraction=draw(units),
        max_deviation=draw(positives), k_bound_flag=draw(st.booleans()),
    )


@st.composite
def stieltjes_records(draw):
    return verify.StieltjesRecord(
        x=draw(reals), eta=draw(positives), predicted=[draw(reals), draw(positives)],
        discrepancies=draw(st.lists(positives, max_size=5)),
    )


@st.composite
def stieltjes_reports(draw):
    return verify.StieltjesReport(
        config=draw(local_law_configs()).to_dict(), eta_floor=draw(positives),
        records=draw(st.lists(stieltjes_records(), max_size=3)), trial_sup=draw(st.lists(positives, max_size=5)),
        max_discrepancy=draw(positives), median_sup=draw(positives),
    )


@st.composite
def deloc_trial_records(draw):
    return verify.DelocTrialRecord(
        trial=draw(counts), bulk_count=draw(counts), max_inf_norm=draw(units), max_ratio=draw(positives)
    )


@st.composite
def deloc_reports(draw):
    return verify.DelocReport(
        config=draw(local_law_configs()).to_dict(), records=draw(st.lists(deloc_trial_records(), max_size=3)),
        ratio_quantiles={"q50": draw(positives), "q90": draw(positives), "q99": draw(positives)},
        max_ratio=draw(positives), k_bound_flag=draw(st.booleans()),
    )


@st.composite
def projection_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    dim = draw(st.integers(min_value=1, max_value=n))
    return verify.ProjectionTestSpec(
        n=n, sigma=draw(st.lists(units, min_size=n, max_size=n)), subspace_dim=dim,
        weights=draw(st.lists(units, min_size=dim, max_size=dim)),
        t_grid=draw(st.lists(positives, min_size=1, max_size=4)),
        trials=draw(st.integers(min_value=1, max_value=500)), seed=draw(seeds),
    )


@st.composite
def projection_reports(draw):
    spec = draw(projection_specs())
    rates = draw(st.lists(units, min_size=spec.t_grid.size, max_size=spec.t_grid.size))
    return verify.ProjectionReport(spec=spec.to_dict(), center=draw(positives), failure_rates=rates)


@st.composite
def interlacing_reports(draw):
    return verify.InterlacingReport(
        trials=draw(counts), n=draw(counts), seed=draw(seeds),
        max_shift_by_rank={1: draw(st.integers(0, 1))} | draw(st.dictionaries(st.integers(2, 5), st.integers(0, 5))),
    )


# (the type a file is read back as, records of one class)
RECORDS = {
    "VarianceProfile": (qve.Profile, variance_profiles()),
    "BlockProfile": (qve.Profile, block_profiles()),
    "EntryLaw": (ens.EntryLaw, entry_laws()),
    "WignerSpec": (ens.EnsembleSpec, wigner_specs()),
    "SbmSpec": (ens.EnsembleSpec, sbm_specs()),
    "LocalLawConfig": (verify.LocalLawConfig, local_law_configs()),
    "IntervalRecord": (verify.IntervalRecord, interval_records()),
    "LocalLawReport": (verify.LocalLawReport, local_law_reports()),
    "StieltjesRecord": (verify.StieltjesRecord, stieltjes_records()),
    "StieltjesReport": (verify.StieltjesReport, stieltjes_reports()),
    "DelocTrialRecord": (verify.DelocTrialRecord, deloc_trial_records()),
    "DelocReport": (verify.DelocReport, deloc_reports()),
    "ProjectionTestSpec": (verify.ProjectionTestSpec, projection_specs()),
    "ProjectionReport": (verify.ProjectionReport, projection_reports()),
    "InterlacingReport": (verify.InterlacingReport, interlacing_reports()),
}


@pytest.mark.parametrize("name", RECORDS)
@given(data=st.data())
@settings(max_examples=25)
def test_every_record_round_trips_byte_for_byte(tmp_path_factory, name, data):
    kind, records = RECORDS[name]
    record = data.draw(records)
    assert type(record).__name__ == name
    path = tmp_path_factory.mktemp("codec") / f"{name}.json"
    record.to_json(path)
    back = read_json(kind, path)
    assert type(back) is type(record)
    assert report_json_bytes(back.to_dict()) == path.read_bytes()


def test_null_bound_loads_as_the_default_bound():
    for kind in ens.LAW_KINDS:
        assert ens.EntryLaw.from_dict({"kind": kind, "bound": None}) == ens.EntryLaw.from_dict({"kind": kind})
    assert ens.EntryLaw.from_dict({"kind": "uniform_bounded", "bound": None}).bound == pytest.approx(math.sqrt(3.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.5])
def test_scaled_bernoulli_needs_a_finite_bound_of_at_least_one(value):
    with pytest.raises(InvalidSpec, match="finite bound >= 1"):
        ens.EntryLaw("scaled_bernoulli_centered", value)


@pytest.mark.parametrize("kind, data, where", [
    (ens.EntryLaw, {"kind": "scaled_bernoulli_centered", "bound": 10**400}, "EntryLaw.bound"),
    # eta at most 1/(pi eps) keeps the config valid at the largest eps
    (verify.LocalLawConfig, {"ensemble": {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5]], "seed": 0},
                             "eps": -(10**400), "eta": 1e-309}, "LocalLawConfig.eps"),
])
def test_integer_beyond_the_float_range_names_its_field(kind, data, where):
    with pytest.raises(InvalidSpec, match=rf"^{where} is an integer too large for a float$"):
        kind.from_dict(data)
    # the largest integer below the float range still passes, as a float
    top = int(np.finfo(np.float64).max)
    field = where.split(".")[1]
    assert getattr(kind.from_dict({**data, field: top}), field) == float(top)


@pytest.mark.parametrize("kind, data, where", [
    (ens.WignerSpec, {"kind": "wigner", "n": 10**30, "profile": {"d": 1, "weights": [1.0], "coeffs": [[1.0]]},
                      "law": {"kind": "rademacher"}, "seed": 0}, "WignerSpec.n"),
    (ens.SbmSpec, {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5]], "seed": -(2**63) - 1}, "SbmSpec.seed"),
])
def test_integer_beyond_int64_names_its_field(kind, data, where):
    with pytest.raises(InvalidSpec, match=rf"^{where} is an integer beyond the int64 range$"):
        kind.from_dict(data)


_BLOCK_WIGNER = {"kind": "wigner", "profile": {"d": 1, "weights": [1.0], "coeffs": [[1.0]]},
                 "law": {"kind": "rademacher"}, "seed": 0}


@pytest.mark.parametrize("kind, data, message", [
    (ens.WignerSpec, {**_BLOCK_WIGNER, "n": 2**32 + 1}, "WignerSpec.n must lie in [1, 4294967296), got 4294967297"),
    (ens.WignerSpec, {**_BLOCK_WIGNER, "n": 2**32}, "WignerSpec.n must lie in [1, 4294967296), got 4294967296"),
    (ens.WignerSpec, {**_BLOCK_WIGNER, "n": 2**32, "p": 0.5}, "WignerSpec.n must lie in [1, 4294967296), got 4294967296"),
    (ens.SbmSpec, {"kind": "sbm", "d": 2, "sizes": [2**31, 2**31], "probs": [[0.5, 0.1], [0.1, 0.5]], "seed": 0},
     "n=4294967296 must be below 2**32: pair counters hold 32-bit indices"),
], ids=["wigner-2**32+1", "wigner-2**32", "sparse-2**32", "sbm-sum-2**32"])
def test_n_past_the_pair_counter_range_is_invalid(kind, data, message):
    # pair counters pack each row and column index into 32 bits
    with pytest.raises(InvalidSpec) as caught:
        kind.from_dict(data)
    assert str(caught.value) == message


def test_sbm_of_the_largest_counted_size_still_loads():
    spec = ens.SbmSpec.from_dict({"kind": "sbm", "d": 2, "sizes": [2**31, 2**31 - 1],
                                  "probs": [[0.5, 0.1], [0.1, 0.5]], "seed": 0})
    assert spec.n == 2**32 - 1


def test_int64_ends_still_pass():
    sbm = {"kind": "sbm", "d": 1, "sizes": [20], "probs": [[0.5]]}
    for seed in (2**63 - 1, -(2**63)):
        assert ens.SbmSpec.from_dict({**sbm, "seed": seed}).seed == seed


def test_integer_literal_past_the_digit_limit_is_invalid_input(tmp_path):
    path = tmp_path / "llaw.json"
    path.write_text('{"eps": ' + "9" * 5000 + "}")
    with pytest.raises(InvalidSpec):  # int()'s digit limit, or, on a Python without one, the float range
        read_json(verify.LocalLawConfig, path)


def test_tagged_records_check_their_tag_and_untagged_ones_keep_their_kind_field():
    spec = ens.SbmSpec(d=1, sizes=(4,), probs=np.array([[0.5]]), seed=0)
    assert spec.to_dict()["kind"] == "sbm"
    with pytest.raises(InvalidSpec, match="kind"):
        ens.SbmSpec.from_dict({**spec.to_dict(), "kind": "wigner"})
    with pytest.raises(InvalidSpec, match="missing field 'kind'"):
        ens.SbmSpec.from_dict({k: v for k, v in spec.to_dict().items() if k != "kind"})
    assert ens.EntryLaw.from_dict({"kind": "rademacher"}).kind == "rademacher"
    assert set(qve.VarianceProfile.constant(2).to_dict()) == {"n", "entries"}


# floats whose shortest repr has every digit, or sits at the ends of the range
_AWKWARD = [0.1, 1 / 3, -2.0 / 7.0, 5e-324, 1.7976931348623157e308, -0.0, 1e22]


def _density_csv(path):
    grid = np.array([-1.0, -1 / 3, 0.1, 0.7])
    curve = qve.DensityCurve(grid=grid, values=np.array(_AWKWARD[:4]) ** 2, eta_used=1e-6, profile_hash="0")
    qve.density_to_csv(curve, path)
    return ["x", "rho"], [[x, v] for x, v in zip(curve.grid, curve.values)]


def _spectrum_csv(path, vectors):
    a = np.random.default_rng(3).standard_normal((4, 4))
    a = a + a.T
    norms = spectra.eigen_full(a, want_vectors=True).inf_norms if vectors else None
    summary = spectra.SpectrumSummary(np.sort(_AWKWARD[:4]), norms)
    spectra.spectrum_to_csv(summary, path)
    if vectors:  # the sup-norms of eigh's unit eigenvectors, bit for bit
        assert np.array_equal(summary.inf_norms, np.abs(np.linalg.eigh(a)[1]).max(axis=0))
        assert np.all((summary.inf_norms >= 0.5) & (summary.inf_norms <= 1.0))
    norms = summary.inf_norms if vectors else [None] * 4
    rows = [[i, lam, nrm] for i, (lam, nrm) in enumerate(zip(summary.eigenvalues, norms))]
    return ["index", "eigenvalue", "inf_norm"], rows


def _local_law_csv(path):
    rec = verify.IntervalRecord(lo=-1 / 3, hi=0.1, predicted=_AWKWARD[1], observed=[3, 0],
                                deviations=_AWKWARD[4:6], pass_fraction=0.5)
    report = verify.LocalLawReport(config={}, n=9, intervals=[rec, rec], trial_pass=[True, False], pass_fraction=0.5,
                                   max_deviation=_AWKWARD[4], k_bound_flag=True)
    report.to_csv(path)
    rows = [[r.lo, r.hi, t, obs, r.predicted, dev] for r in report.intervals
            for t, (obs, dev) in enumerate(zip(r.observed, r.deviations))]
    return ["interval_lo", "interval_hi", "trial", "observed", "predicted", "deviation"], rows


def _deloc_csv(path):
    records = [verify.DelocTrialRecord(trial=t, bulk_count=7 * t, max_inf_norm=a, max_ratio=b)
               for t, (a, b) in enumerate(zip(_AWKWARD, _AWKWARD[::-1]))]
    verify.DelocReport(config={}, records=records, ratio_quantiles={}, max_ratio=1.0, k_bound_flag=False).to_csv(path)
    rows = [[r.trial, r.bulk_count, r.max_inf_norm, r.max_ratio] for r in records]
    return ["trial", "bulk_count", "max_inf_norm", "max_ratio"], rows


@pytest.mark.parametrize("writer", [_density_csv, functools.partial(_spectrum_csv, vectors=True),
                                    functools.partial(_spectrum_csv, vectors=False), _local_law_csv, _deloc_csv],
                         ids=["density", "spectrum-vectors", "spectrum", "local-law", "deloc"])
def test_csv_writers_read_back_their_header_and_exact_values(tmp_path, writer):
    path = tmp_path / "table.csv"
    header, rows = writer(path)
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert path.read_bytes().endswith(b"\r\n")
    assert table[0] == header
    parsed = [[None if cell == "" else int(cell) if type(v) is int else float(cell) for cell, v in zip(line, row)]
              for line, row in zip(table[1:], rows)]
    assert len(table) == len(rows) + 1 and all(len(line) == len(header) for line in table)
    assert parsed == rows
    assert all(math.copysign(1.0, a) == math.copysign(1.0, b) for line, row in zip(parsed, rows)
               for a, b in zip(line, row) if isinstance(b, float))
