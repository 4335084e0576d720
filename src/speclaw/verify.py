"""Monte Carlo campaigns confronting sampled spectra with the predictions.

The local-law, Stieltjes and delocalization campaigns run one pipeline,
`_campaign`: under one campaign map (the worker pool, BLAS pinned to one
thread) it predicts the density, finds its bulk, lets the campaign plan
what every trial needs, and maps the trials over seeded normalized samples.
Each campaign adds only its plan, its trial and its aggregation.

Each campaign is a deterministic function of (config, base_seed): trial i
samples with seed base_seed + i, and aggregation is order-independent.  Every
config and report dataclass is a JSON record (`errors.record`): a report
serializes to JSON (some also to CSV) and re-parses into the type that
produced it, and a config that is not a JSON object of the declared fields
and types raises InvalidSpec naming the field.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .ensembles import (
    EnsembleSpec,
    SparseSpec,
    WignerSpec,
    effective_profile,
    ensemble_parameters,
    fill_symmetric,
    normalized_sample,
    with_seed,
)
from .errors import AssertionFailure, EmptyBulk, InvalidSpec, frozen_array, read_json, record, write_csv
from .qve import (
    DEFAULT_ETA,
    BulkInterval,
    DensityCurve,
    SpectralPoint,
    VarianceProfile,
    default_grid,
    detect_bulk,
    extract_density,
    integrate_density,
    stieltjes_batch,
)
from .spectra import (
    bundled_openblas,
    count_in_interval,
    eigen_full,
    eigenvalue_counts_below,
    normalized_deloc_ratios,
    stieltjes_empirical,
    tridiagonalize,
)

_QUANTILES = (0.5, 0.9, 0.99)
# a report's k_bound_flag: the eta floor K^2 log n/(n p_eff) above this strains the bounded-entry hypothesis
_K_BOUND_FLOOR = 0.1
# interlacing_test cycles its rank-d updates through d = 2.._MAX_RANK
_MAX_RANK = 5


@record()
@dataclass(frozen=True)
class LocalLawConfig:
    """One eigenvalue-counting campaign over a seeded ensemble.

    Intervals have length interval_len_factor * K^2 log(n)/(n p_eff) with
    p_eff = 1 dense, the keep probability for sparse ensembles, and max p_kl
    for block models.  delta is the deviation tolerance a trial must meet on
    every interval to pass.
    """

    ensemble: EnsembleSpec
    eps: float = 0.1
    delta: float = 0.05
    interval_len_factor: float = 50.0
    num_intervals: int = 3
    trials: int = 20
    base_seed: int = 0
    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise InvalidSpec(f"delta must lie in (0, 1), got {self.delta}")
        if not self.eps > 0:
            raise InvalidSpec("eps must be positive")
        if self.trials < 1 or self.num_intervals < 1:
            raise InvalidSpec("need at least one trial and one interval")
        if not self.interval_len_factor > 0:
            raise InvalidSpec("interval_len_factor must be positive")
        if ensemble_parameters(self.ensemble)[0] < 2:
            raise InvalidSpec("campaigns need n >= 2: their lengths and scales carry log n")


def factor_for_length(length: float, ensemble: EnsembleSpec) -> float:
    """interval_len_factor that makes the campaign intervals exactly `length` wide."""
    n, k, p_eff = ensemble_parameters(ensemble)
    if n < 2:
        raise InvalidSpec(f"campaigns need n >= 2: their lengths carry log n, got n={n}")
    return length * n * p_eff / (k * k * math.log(n))


def load_local_law_config(path) -> LocalLawConfig:
    return read_json(LocalLawConfig, path)


def place_intervals(bulk: BulkInterval, length: float, num: int) -> list[tuple[float, float]]:
    """Evenly spaced midpoints inside the bulk, inset one interval length from
    its edges; when the inset range is empty the intervals sit flush inside
    the bulk instead."""
    mlo, mhi = bulk.lo + length, bulk.hi - length
    if mlo > mhi:
        mlo, mhi = bulk.lo + length / 2.0, bulk.hi - length / 2.0
    if mlo > mhi:
        raise EmptyBulk(f"no interval of length {length:g} fits inside [{bulk.lo:g}, {bulk.hi:g}]")
    mids = np.linspace(mlo, mhi, num) if num > 1 else np.array([(mlo + mhi) / 2.0])
    return [(float(m - length / 2.0), float(m + length / 2.0)) for m in mids]


def _report_config(cfg: LocalLawConfig, curve: DensityCurve) -> dict:
    """cfg.to_dict() for a report's `config`, a full VarianceProfile cited as {"n", "fingerprint"}.

    The fingerprint is the curve's profile_hash: the curve was solved from that
    very profile, so a campaign hashes it once.  Block profiles and SBM specs
    stay inline; the config file keeps the entries.
    """

    def encode(value):
        if isinstance(value, VarianceProfile):
            return {"n": value.n, "fingerprint": curve.profile_hash}
        if isinstance(value, (LocalLawConfig, WignerSpec, SparseSpec)):
            head = {} if value.tag is None else {"kind": value.tag}
            return head | {f.name: encode(getattr(value, f.name)) for f in fields(value)}
        return value.to_dict() if hasattr(value, "to_dict") else value

    return encode(cfg)


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS; empty for any other BLAS."""
    return tuple((getattr(dll, f"scipy_openblas_get_num_threads{suffix}"),
                  getattr(dll, f"scipy_openblas_set_num_threads{suffix}")) for dll, suffix in bundled_openblas())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def _campaign_map(threads: int | None):
    """A map for one campaign: the builtin map, or a pool's map when threads > 1.

    threads=None, the default of every campaign, means the usable CPU count;
    a count below 1 raises InvalidSpec.
    The campaign hands it its prediction blocks, its quadrature intervals and
    its trials; each caller lists the results, in input order.

    Every BLAS/LAPACK call runs single-threaded at any worker count while the
    campaign holds the map: the parallelism comes from the pool, and a report
    does not depend on the BLAS thread count.  The pin is process-global, and
    the previous counts come back afterwards, also when the campaign raises.
    It covers the OpenBLAS bundled with numpy and scipy wheels; with any other
    BLAS it is a no-op and that library keeps its own threading.
    """
    threads = _usable_cpus() if threads is None else threads
    if threads < 1:
        raise InvalidSpec(f"need at least 1 worker thread, got {threads}")
    controls = _openblas_thread_controls()
    saved = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=threads) if threads > 1 else contextlib.nullcontext() as pool:
            yield map if pool is None else pool.map
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def _campaign(cfg: LocalLawConfig, threads: int | None, plan, trial) -> tuple[dict, object, list]:
    """Predict, find the bulk, plan, then map the trials, all under one campaign map.

    Raises EmptyBulk when the predicted density has no bulk.  Trial i maps to
    trial(normalized sample of seed base_seed + i, plan(curve, bulks, widest, mapper)).
    Returns the report's config citation, the plan and the trial results in trial order.
    """
    with _campaign_map(threads) as mapper:
        curve = extract_density(effective_profile(cfg.ensemble), default_grid(), eta=cfg.eta, mapper=mapper)
        bulks = detect_bulk(curve, cfg.eps)
        if not bulks:
            raise EmptyBulk(f"predicted density never reaches eps={cfg.eps:g}")
        planned = plan(curve, bulks, max(bulks, key=lambda b: b.width), mapper)
        results = list(mapper(lambda i: trial(normalized_sample(with_seed(cfg.ensemble, cfg.base_seed + i)), planned),
                              range(cfg.trials)))
    return _report_config(cfg, curve), planned, results


# ---------------------------------------------------------------------------
# local law


@record()
@dataclass(frozen=True)
class IntervalRecord:
    lo: float
    hi: float
    predicted: float
    observed: list[int]
    deviations: list[float]
    pass_fraction: float


@record()
@dataclass(frozen=True)
class LocalLawReport:
    config: dict
    n: int
    intervals: list[IntervalRecord]
    trial_pass: list[bool]
    pass_fraction: float
    max_deviation: float
    k_bound_flag: bool

    def to_csv(self, path) -> None:
        write_csv(path, ["interval_lo", "interval_hi", "trial", "observed", "predicted", "deviation"],
                  ([rec.lo, rec.hi, t, obs, rec.predicted, dev] for rec in self.intervals
                   for t, (obs, dev) in enumerate(zip(rec.observed, rec.deviations))))


def verify_local_law(cfg: LocalLawConfig, threads: int | None = None) -> LocalLawReport:
    """Count eigenvalues on bulk intervals across trials and compare with n * integral(rho).

    The intervals sit in the widest bulk and their predictions are integrated
    once per campaign; each trial tridiagonalizes its sample and Sturm-counts
    every interval in one sweep.
    """
    n, k, p_eff = ensemble_parameters(cfg.ensemble)

    def plan(curve, bulks, widest, mapper):
        length = cfg.interval_len_factor * k * k * math.log(n) / (n * p_eff)
        intervals = place_intervals(widest, length, cfg.num_intervals)
        return intervals, [n * q for q in mapper(lambda iv: integrate_density(curve, *iv), intervals)]

    def trial(matrix, planned):  # one Sturm sweep; integrate_density has checked lo <= hi
        # the trial owns its sample, which is exactly symmetric, so the reduction may overwrite it
        below = eigenvalue_counts_below(tridiagonalize(matrix, overwrite_a=True), np.ravel(planned[0]))
        return below[1::2] - below[::2]

    config, (intervals, predicted), rows = _campaign(cfg, threads, plan, trial)
    observed = np.array(rows)  # trials x intervals
    lo, hi = np.array(intervals).T
    deviations = np.abs(observed - predicted) / (n * (hi - lo))
    interval_pass, trial_dev_max = (deviations <= cfg.delta).mean(axis=0), deviations.max(axis=1)
    trial_pass = (trial_dev_max <= cfg.delta).tolist()
    records = [
        IntervalRecord(lo=lo_j, hi=hi_j, predicted=predicted[j], observed=observed[:, j].tolist(),
                       deviations=deviations[:, j].tolist(), pass_fraction=float(interval_pass[j]))
        for j, (lo_j, hi_j) in enumerate(intervals)
    ]
    return LocalLawReport(config=config, n=n, intervals=records, trial_pass=trial_pass,
                          pass_fraction=float(np.mean(trial_pass)), max_deviation=float(trial_dev_max.max()),
                          k_bound_flag=stieltjes_eta_floor(cfg.ensemble) > _K_BOUND_FLOOR)


# ---------------------------------------------------------------------------
# Stieltjes-transform closeness


@record()
@dataclass(frozen=True)
class StieltjesRecord:
    x: float
    eta: float
    predicted: list[float]  # [re, im]
    discrepancies: list[float]


@record()
@dataclass(frozen=True)
class StieltjesReport:
    config: dict
    eta_floor: float
    records: list[StieltjesRecord]
    trial_sup: list[float]
    max_discrepancy: float
    median_sup: float


def stieltjes_eta_floor(ensemble: EnsembleSpec) -> float:
    """Smallest meaningful regularization, K^2 log n/(n p_eff)."""
    n, k, p_eff = ensemble_parameters(ensemble)
    return k * k * math.log(n) / (n * p_eff)


def verify_stieltjes_closeness(cfg: LocalLawConfig, eta_grid, threads: int | None = None) -> StieltjesReport:
    """|s_n(z) - m(z)| over a grid of bulk points z = x + i*eta, per trial."""
    etas = sorted(float(e) for e in np.atleast_1d(eta_grid))
    if not etas:
        raise InvalidSpec("eta grid is empty")
    if not all(0.0 < eta < math.inf for eta in etas):  # nan sorts anywhere, so check every eta
        raise InvalidSpec(f"eta must be positive and finite, got {etas}")
    floor = stieltjes_eta_floor(cfg.ensemble)
    if etas[0] < floor:
        raise InvalidSpec(f"eta={etas[0]:g} is below the configured floor {floor:g}")

    def plan(curve, bulks, widest, mapper):
        xs = np.linspace(widest.lo, widest.hi, cfg.num_intervals + 2)[1:-1]
        per_eta = list(mapper(lambda eta: stieltjes_batch(curve.source, xs, eta), etas))  # one batch per eta
        # (point, predicted m) pairs, x-major
        return [(SpectralPoint(float(x), eta), complex(m[j])) for j, x in enumerate(xs)
                for eta, m in zip(etas, per_eta)]

    def trial(matrix, planned):
        summary = eigen_full(matrix)
        return [abs(stieltjes_empirical(summary, pt) - m) for pt, m in planned]

    config, planned, rows = _campaign(cfg, threads, plan, trial)
    records = [StieltjesRecord(x=pt.re, eta=pt.im, predicted=[m.real, m.imag], discrepancies=[row[j] for row in rows])
               for j, (pt, m) in enumerate(planned)]
    trial_sup = [float(max(row)) for row in rows]
    return StieltjesReport(config=config, eta_floor=floor, records=records, trial_sup=trial_sup,
                           max_discrepancy=float(max(trial_sup)), median_sup=float(np.median(trial_sup)))


# ---------------------------------------------------------------------------
# delocalization


@record()
@dataclass(frozen=True)
class DelocTrialRecord:
    trial: int
    bulk_count: int
    max_inf_norm: float
    max_ratio: float


@record()
@dataclass(frozen=True)
class DelocReport:
    config: dict
    records: list[DelocTrialRecord]
    ratio_quantiles: dict
    max_ratio: float
    k_bound_flag: bool

    def to_csv(self, path) -> None:
        write_csv(path, ["trial", "bulk_count", "max_inf_norm", "max_ratio"],
                  ([r.trial, r.bulk_count, r.max_inf_norm, r.max_ratio] for r in self.records))


def verify_delocalization(cfg: LocalLawConfig, threads: int | None = None) -> DelocReport:
    """Sup-norms of bulk eigenvectors, normalized by K sqrt(log n)/sqrt(n p_eff).

    Raises EmptyBulk when no trial has an eigenvalue in the predicted bulk.
    """
    n, k_bound, p_eff = ensemble_parameters(cfg.ensemble)

    def trial(matrix, bulks):
        return normalized_deloc_ratios(eigen_full(matrix, want_vectors=True), bulks, n, k_bound, p_eff)

    config, _, results = _campaign(cfg, threads, lambda curve, bulks, widest, mapper: bulks, trial)
    norms = [ratios * k_bound * math.sqrt(math.log(n)) / math.sqrt(n * p_eff) for ratios in results]
    records = [DelocTrialRecord(trial=i, bulk_count=r.size, max_inf_norm=float(m.max(initial=0.0)),
                                max_ratio=float(r.max(initial=0.0))) for i, (r, m) in enumerate(zip(results, norms))]
    pooled = np.concatenate(results)
    if pooled.size == 0:
        raise EmptyBulk(f"no trial has an eigenvalue in the predicted bulk at eps={cfg.eps:g}")
    return DelocReport(config=config, records=records,
                       ratio_quantiles={f"q{int(100 * q)}": float(np.quantile(pooled, q)) for q in _QUANTILES},
                       max_ratio=float(pooled.max()), k_bound_flag=stieltjes_eta_floor(cfg.ensemble) > _K_BOUND_FLOOR)


# ---------------------------------------------------------------------------
# projection concentration


@record()
@dataclass(frozen=True)
class ProjectionTestSpec:
    """Concentration test of weighted projections of a bounded random vector.

    The orthonormal basis comes from a seeded Haar-orthogonal matrix restricted
    to subspace_dim columns; X has independent entries with variances `sigma`
    (each in [0, 1]) and absolute bound 1.
    """

    n: int
    sigma: np.ndarray
    subspace_dim: int
    weights: np.ndarray
    t_grid: np.ndarray
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec(f"need n >= 1, got n={self.n}")
        sigma, weights, t_grid = (frozen_array(self, name) for name in ("sigma", "weights", "t_grid"))
        if sigma.shape != (self.n,) or sigma.min() < 0 or sigma.max() > 1:
            raise InvalidSpec("sigma must hold n variances in [0, 1]")
        if not (1 <= self.subspace_dim <= self.n):
            raise InvalidSpec("subspace_dim must lie in [1, n]")
        if weights.shape != (self.subspace_dim,) or weights.min() < 0 or weights.max() > 1:
            raise InvalidSpec("weights must hold subspace_dim values in [0, 1]")
        if t_grid.ndim != 1 or t_grid.size < 1 or t_grid.min() <= 0:
            raise InvalidSpec("t_grid must hold positive thresholds")
        if self.trials < 1:
            raise InvalidSpec("need at least one trial")
        object.__setattr__(self, "t_grid", np.sort(t_grid))
        frozen_array(self, "t_grid")


@record()
@dataclass(frozen=True)
class ProjectionReport:
    spec: dict
    center: float
    rows: list[dict]  # {"t": float, "failure_rate": float}

    def rates(self) -> list[float]:
        return [row["failure_rate"] for row in self.rows]


def haar_basis(n: int, d: int, seed: int) -> np.ndarray:
    """First d columns of a seeded Haar-distributed orthogonal matrix."""
    counters = rng.pair_counters(np.arange(n)[:, None], np.arange(n)[None, :])
    gauss = rng.normals(rng.stream_key(seed, rng.TAG_GAUSS), counters)
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))[None, :]
    return q[:, :d]


def projection_concentration_test(spec: ProjectionTestSpec) -> ProjectionReport:
    """Empirical failure rate of the projection-concentration event per threshold.

    The statistic is |sum_j r_j |u_j^T X|^2 - sum_j r_j tr(u_j u_j^T Sigma)|;
    a trial fails at threshold t when it reaches 2 t sqrt(center) + t^2.  The
    emitted table is non-increasing in t by construction (events are nested).
    """
    u = haar_basis(spec.n, spec.subspace_dim, spec.seed)
    tr_terms = (u * u).T @ spec.sigma
    center = float(spec.weights @ tr_terms)

    counters = rng.pair_counters(np.arange(spec.n)[:, None], np.arange(spec.trials)[None, :])
    signs = rng.rademacher(rng.stream_key(spec.seed, rng.TAG_AUX), counters)
    x = np.sqrt(spec.sigma)[:, None] * signs

    proj = u.T @ x
    stat = spec.weights @ (proj * proj)
    dev = np.abs(stat - center)

    rows = []
    for t in spec.t_grid:
        threshold = 2.0 * t * math.sqrt(center) + t * t
        rows.append({"t": float(t), "failure_rate": float(np.mean(dev >= threshold))})
    rates = [row["failure_rate"] for row in rows]
    if any(a < b for a, b in zip(rates, rates[1:])):
        raise AssertionFailure(
            "failure rates must be non-increasing in t",
            counterexample={"t_grid": [row["t"] for row in rows], "failure_rates": rates},
        )
    return ProjectionReport(spec=spec.to_dict(), center=center, rows=rows)


# ---------------------------------------------------------------------------
# interlacing


@record()
@dataclass(frozen=True)
class InterlacingReport:
    trials: int
    n: int
    seed: int
    max_shift_rank1: int
    max_shift_by_rank: dict[int, int]
    passed: bool


def interlacing_test(trials: int, n: int, seed: int) -> InterlacingReport:
    """Check that rank-r symmetric updates move interval counts by at most r.

    Each trial draws a random symmetric matrix A, a random interval and two
    updates: a rank-1 update vv^T and a rank-d one, d cycling 2.._MAX_RANK.
    The interval count of A is taken once; each update of rank r must move it
    by at most r.  Raises AssertionFailure with the counterexample (trial,
    seed, lo, hi, rank, shift) on the first violation.
    """
    if not 2 <= n < 2**32:  # pair counters hold 32-bit indices
        raise InvalidSpec(f"need 2 <= n < 2**32, got n={n}")
    if trials < 1:
        raise InvalidSpec(f"need at least 1 trial, got {trials}")
    max_by_rank = {1: 0}
    span = 2.5 * math.sqrt(n)
    for t in range(trials):
        key_a = rng.stream_key(seed + t, rng.TAG_VALUES)
        key_v = rng.stream_key(seed + t, rng.TAG_AUX)
        a = fill_symmetric(n, lambda rows, cols, counters: 2.0 * rng.uniforms(key_a, counters) - 1.0)
        rows, cols = np.repeat(np.arange(_MAX_RANK), n), np.tile(np.arange(n), _MAX_RANK)
        vs = (2.0 * rng.uniforms(key_v, rng.pair_counters(rows, cols)) - 1.0).reshape(_MAX_RANK, n)
        endpoints = span * (2.0 * rng.uniforms(key_v, np.array([2**40 + 2 * t, 2**40 + 2 * t + 1])) - 1.0)
        lo, hi = float(endpoints.min()), float(endpoints.max())
        base = count_in_interval(tridiagonalize(a), lo, hi)
        for rank in (1, 2 + t % (_MAX_RANK - 1)):
            shift = abs(count_in_interval(tridiagonalize(a + vs[:rank].T @ vs[:rank]), lo, hi) - base)
            max_by_rank[rank] = max(max_by_rank.get(rank, 0), shift)
            if shift > rank:
                raise AssertionFailure(
                    f"rank-{rank} update moved the count on [{lo:g}, {hi:g}) by {shift}",
                    counterexample={"trial": t, "seed": seed, "lo": lo, "hi": hi, "rank": rank, "shift": shift},
                )
    max_rank1 = max_by_rank.pop(1)
    return InterlacingReport(trials=trials, n=n, seed=seed, max_shift_rank1=max_rank1,
                             max_shift_by_rank=dict(sorted(max_by_rank.items())), passed=True)
