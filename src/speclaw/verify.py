"""Monte Carlo campaigns confronting sampled spectra with the predictions.

The local-law, Stieltjes and delocalization campaigns run one pipeline,
`_campaign`: under one campaign map (the worker pool, BLAS pinned to one
thread) it predicts the density, finds its bulk, lets the campaign plan
its predictions, and maps the trials over seeded normalized samples.  A
trial takes only its sample (a tridiagonal form or a spectrum comes back),
and the campaign confronts the results with its plan after the map, e.g.
the local law Sturm-counts every trial's form in one sweep.  Each campaign
adds only its plan, its trial and its aggregation.

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
    WignerSpec,
    effective_profile,
    ensemble_parameters,
    fill_symmetric,
    normalized_sample,
    with_seed,
)
from .errors import (AssertionFailure, EmptyBulk, InvalidSpec, frozen_array, read_json, real_array, record, spectral_points, within,
                     write_csv)
from .qve import (DEFAULT_ETA, BulkInterval, DensityCurve, VarianceProfile, complex_points, default_grid, detect_bulk,
                  extract_density, integrate_density, linear_grid, stieltjes_batch)
from .spectra import (
    bulk_indices,
    bundled_openblas,
    eigen_full,
    eigenvalue_counts_below,
    eigvec_inf_norms,
    normalized_deloc_ratios,
    stieltjes_empirical,
    tridiagonalize,
)

_QUANTILES = (0.5, 0.9, 0.99)
# a report's k_bound_flag: a local_law_scale above this strains the bounded-entry hypothesis
_K_BOUND_FLOOR = 0.1
# interlacing_test cycles its rank-d updates through d = 2.._MAX_RANK
_MAX_RANK = 5


@record()
@dataclass(frozen=True)
class LocalLawConfig:
    """One eigenvalue-counting campaign over a seeded ensemble: intervals of length interval_len_factor *
    local_law_scale(ensemble), and a trial passes when it deviates by at most delta on every interval."""

    ensemble: EnsembleSpec
    eps: float = within(0, math.inf, "()", default=0.1)
    delta: float = within(0, 1, "()", default=0.05)
    interval_len_factor: float = within(0, math.inf, "()", default=50.0)
    num_intervals: int = within(1, math.inf, default=3)
    trials: int = within(1, math.inf, default=20)
    base_seed: int = 0
    eta: float = within(0, math.inf, "()", default=DEFAULT_ETA)

    def __post_init__(self):
        local_law_scale(self.ensemble)
        if math.pi * self.eta * self.eps > 1.0:  # Im m(x + i eta) <= 1/eta for a probability measure
            raise InvalidSpec(f"eta={self.eta:g} exceeds 1/(pi eps) at eps={self.eps:g}: a density at eta is at most 1/(pi eta)")


def local_law_scale(ensemble: EnsembleSpec) -> float:
    """eta_0 = K^2 log n/(n p_eff), p_eff the p of a Wigner-type ensemble or a block model's max p_kl: the interval
    unit, the Stieltjes eta floor and the k_bound_flag's argument; sqrt(eta_0) normalizes the sup-norms.
    Raises InvalidSpec unless it is positive and finite (log n is 0 at n = 1)."""
    n, k, p_eff = ensemble_parameters(ensemble)
    scale = k * k * math.log(n) / (n * p_eff) if p_eff > 0 else math.inf
    if not 0 < scale < math.inf:
        raise InvalidSpec(f"campaigns need n >= 2 and a finite K^2 log n/(n p_eff), got {scale} at n={n}, K={k}, p_eff={p_eff}")
    return scale


def factor_for_length(length: float, ensemble: EnsembleSpec) -> float:
    """interval_len_factor that makes the campaign intervals `length` wide, up to rounding."""
    return length / local_law_scale(ensemble)


def load_local_law_config(path) -> LocalLawConfig:
    return read_json(LocalLawConfig, path)


def place_intervals(bulk: BulkInterval, length: float, num: int, n: int = 1) -> list[tuple[float, float]]:
    """Evenly spaced midpoints inside the bulk, inset one interval length from its edges; when the inset range
    is empty the intervals sit flush inside the bulk instead.  A bulk [-b, b] gives exact mirror pairs of
    intervals.  Raises InvalidSpec unless n times each width, which deviations divide by, is a normal float."""
    mlo, mhi = bulk.lo + length, bulk.hi - length
    if mlo > mhi:
        mlo, mhi = bulk.lo + length / 2.0, bulk.hi - length / 2.0
    if mlo > mhi:
        raise EmptyBulk(f"no interval of length {length:g} fits inside [{bulk.lo:g}, {bulk.hi:g}]")
    mids = linear_grid(mlo, mhi, num) if num > 1 else np.array([(mlo + mhi) / 2.0])
    intervals = [(float(m - length / 2.0), float(m + length / 2.0)) for m in mids]
    if any(not n * (hi - lo) >= np.finfo(np.float64).tiny for lo, hi in intervals):  # deviations divide by it
        raise InvalidSpec(f"intervals of length {length:g} have no width in [{bulk.lo:g}, {bulk.hi:g}] that n={n} times is normal")
    return intervals


def interval_masses(curve: DensityCurve, intervals, mapper=map) -> list[float]:
    """integrate_density over each interval through `mapper`.  The density is even, so (lo, hi) with
    lo + hi < 0 reads the mass of (-hi, -lo) where the curve spans it: three intervals in a bulk
    [-b, b] of the antisymmetric default grid make two quadrature tasks."""
    folded = [(-hi, -lo) if lo + hi < 0 and -lo <= curve.grid[-1] else (lo, hi) for lo, hi in intervals]
    distinct = list(dict.fromkeys(folded))
    masses = dict(zip(distinct, mapper(lambda iv: integrate_density(curve, *iv), distinct)))
    return [masses[iv] for iv in folded]


def _report_config(cfg: LocalLawConfig, curve: DensityCurve) -> dict:
    """cfg.to_dict() for a report's `config`, a full VarianceProfile cited as {"n", "fingerprint"}.

    The fingerprint is the curve's profile_hash: the curve was solved from that
    very profile, so a campaign hashes it once.  Block profiles and SBM specs
    stay inline; the config file keeps the entries.
    """

    def encode(value):
        if isinstance(value, VarianceProfile):
            return {"n": value.n, "fingerprint": curve.profile_hash}
        if isinstance(value, (LocalLawConfig, WignerSpec)):
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
    trial(normalized sample of seed base_seed + i) and sees nothing else; the
    caller confronts the results with plan(curve, bulks, widest, mapper).
    Returns the report's config citation, the plan and the trial results in trial order.
    """
    with _campaign_map(threads) as mapper:
        curve = extract_density(effective_profile(cfg.ensemble), default_grid(), eta=cfg.eta, mapper=mapper)
        bulks = detect_bulk(curve, cfg.eps)
        if not bulks:
            raise EmptyBulk(f"predicted density never reaches eps={cfg.eps:g}")
        planned = plan(curve, bulks, max(bulks, key=lambda b: b.width), mapper)
        results = list(mapper(lambda i: trial(normalized_sample(with_seed(cfg.ensemble, cfg.base_seed + i))),
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
    once per campaign, a mirror pair once (`interval_masses`); each trial
    tridiagonalizes its sample, and one Sturm sweep over the stacked forms then
    counts every interval of every trial.
    """
    n, scale = cfg.ensemble.n, local_law_scale(cfg.ensemble)

    def plan(curve, bulks, widest, mapper):
        intervals = place_intervals(widest, cfg.interval_len_factor * scale, cfg.num_intervals, n)
        return intervals, [n * q for q in interval_masses(curve, intervals, mapper)]

    # the trial owns its sample, so the reduction may overwrite it
    config, (intervals, predicted), forms = _campaign(cfg, threads, plan,
                                                      lambda matrix: tridiagonalize(matrix, overwrite_a=True))
    below = eigenvalue_counts_below(forms, np.ravel(intervals))  # integrate_density has checked lo <= hi
    observed = below[:, 1::2] - below[:, ::2]  # trials x intervals
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
                          k_bound_flag=scale > _K_BOUND_FLOOR)


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


def verify_stieltjes_closeness(cfg: LocalLawConfig, eta_grid, threads: int | None = None) -> StieltjesReport:
    """|s_n(z) - m(z)| over a grid of bulk points z = x + i*eta, per trial; eta_grid: reals >= local_law_scale."""
    etas = real_array(eta_grid, "eta grid")
    if etas.ndim != 1:
        raise InvalidSpec(f"eta grid must be a 1-d array, got shape {etas.shape}")
    if etas.size == 0:
        raise InvalidSpec("eta grid is empty")
    spectral_points(complex_points(0.0, etas))  # every eta, before the prediction
    etas = np.sort(etas)
    floor = local_law_scale(cfg.ensemble)
    if etas[0] < floor:
        raise InvalidSpec(f"eta={etas[0]:g} is below the configured floor {floor:g}")

    def plan(curve, bulks, widest, mapper):
        xs = linear_grid(widest.lo, widest.hi, cfg.num_intervals + 2)[1:-1]  # a bulk [-b, b] gives mirror pairs
        zs = complex_points(xs[:, None], etas).ravel()  # x-major, solved as one batch, a mirror pair once
        return zs, stieltjes_batch(curve.source, zs, mapper)

    config, (zs, m), summaries = _campaign(cfg, threads, plan, eigen_full)
    gap = np.array([stieltjes_empirical(summary, zs) for summary in summaries]) - m  # trials x points
    discrepancies = np.hypot(gap.real, gap.imag)  # abs() of each complex, bit for bit, which np.abs is not
    records = [StieltjesRecord(x=z.real, eta=z.imag, predicted=[mz.real, mz.imag], discrepancies=column)
               for z, mz, column in zip(zs.tolist(), m.tolist(), discrepancies.T.tolist())]
    trial_sup = discrepancies.max(axis=1).tolist()
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
    """Sup-norms of bulk eigenvectors, normalized by sqrt(local_law_scale) = K sqrt(log n)/sqrt(n p_eff).

    Raises EmptyBulk when no trial has an eigenvalue in the predicted bulk.
    """
    scale = local_law_scale(cfg.ensemble)
    config, bulks, summaries = _campaign(cfg, threads, lambda curve, bulks, widest, mapper: bulks,
                                         lambda matrix: eigen_full(matrix, want_vectors=True))
    norms = [eigvec_inf_norms(summary)[bulk_indices(summary, bulks)] for summary in summaries]
    results = [normalized_deloc_ratios(m, scale) for m in norms]
    records = [DelocTrialRecord(trial=i, bulk_count=r.size, max_inf_norm=float(m.max(initial=0.0)),
                                max_ratio=float(r.max(initial=0.0))) for i, (r, m) in enumerate(zip(results, norms))]
    pooled = np.concatenate(results)
    if pooled.size == 0:
        raise EmptyBulk(f"no trial has an eigenvalue in the predicted bulk at eps={cfg.eps:g}")
    return DelocReport(config=config, records=records,
                       ratio_quantiles={f"q{int(100 * q)}": float(np.quantile(pooled, q)) for q in _QUANTILES},
                       max_ratio=float(pooled.max()), k_bound_flag=scale > _K_BOUND_FLOOR)


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

    n: int = within(1, math.inf)
    sigma: np.ndarray = within(0, 1, "[]")
    subspace_dim: int
    weights: np.ndarray = within(0, 1, "[]")
    t_grid: np.ndarray = within(0, math.inf, "()")
    trials: int = within(1, math.inf)
    seed: int = 0

    def __post_init__(self):
        sigma, weights, t_grid = (frozen_array(self, name) for name in ("sigma", "weights", "t_grid"))
        if sigma.shape != (self.n,):
            raise InvalidSpec("sigma must hold n variances")
        if not (1 <= self.subspace_dim <= self.n):
            raise InvalidSpec("subspace_dim must lie in [1, n]")
        if weights.shape != (self.subspace_dim,):
            raise InvalidSpec("weights must hold subspace_dim values")
        if t_grid.ndim != 1 or t_grid.size < 1:
            raise InvalidSpec("t_grid must hold at least one threshold")
        object.__setattr__(self, "t_grid", np.sort(t_grid))
        frozen_array(self, "t_grid")


@record()
@dataclass(frozen=True)
class ProjectionReport:
    spec: dict
    center: float
    failure_rates: list[float]  # one per threshold of the spec's sorted t_grid


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
    rates are non-increasing along the sorted t_grid by construction (events are nested).
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

    t = spec.t_grid
    with np.errstate(over="ignore"):  # a threshold past the float range is never reached
        thresholds = 2.0 * t * math.sqrt(center) + t * t
    rates = (dev >= thresholds[:, None]).mean(axis=1).tolist()  # the failing fraction of trials per threshold
    if any(a < b for a, b in zip(rates, rates[1:])):
        raise AssertionFailure("failure rates must be non-increasing in t",
                               counterexample={"t_grid": t.tolist(), "failure_rates": rates})
    return ProjectionReport(spec=spec.to_dict(), center=center, failure_rates=rates)


# ---------------------------------------------------------------------------
# interlacing


@record()
@dataclass(frozen=True)
class InterlacingReport:
    trials: int
    n: int
    seed: int
    max_shift_by_rank: dict[int, int]  # rank 1 and each rank d drawn


def interlacing_test(trials: int, n: int, seed: int) -> InterlacingReport:
    """Check that rank-r symmetric updates move interval counts by at most r.

    Each trial draws a random symmetric matrix A, a random interval and two
    updates: a rank-1 update vv^T and a rank-d one, d cycling 2.._MAX_RANK.
    One Sturm sweep counts A and both updates on [lo, hi); each update of
    rank r must move the count of A by at most r.  Raises AssertionFailure
    with the counterexample (trial, seed, lo, hi, rank, shift) on the first
    violation.
    """
    if not 2 <= n < 2**32:  # pair counters hold 32-bit indices
        raise InvalidSpec(f"need 2 <= n < 2**32, got n={n}")
    if trials < 1:
        raise InvalidSpec(f"need at least 1 trial, got {trials}")
    max_by_rank = {1: 0}
    span = 2.5 * math.sqrt(n)
    vector_counters = rng.pair_counters(np.repeat(np.arange(_MAX_RANK), n), np.tile(np.arange(n), _MAX_RANK))
    for t in range(trials):
        key_a = rng.stream_key(seed + t, rng.TAG_VALUES)
        key_v = rng.stream_key(seed + t, rng.TAG_AUX)
        a = fill_symmetric(n, lambda rows, cols, counters: 2.0 * rng.uniforms(key_a, counters) - 1.0)
        vs = (2.0 * rng.uniforms(key_v, vector_counters) - 1.0).reshape(_MAX_RANK, n)
        endpoints = span * (2.0 * rng.uniforms(key_v, np.array([2**40 + 2 * t, 2**40 + 2 * t + 1])) - 1.0)
        lo, hi = float(endpoints.min()), float(endpoints.max())
        ranks = (1, 2 + t % (_MAX_RANK - 1))
        forms = [tridiagonalize(a)] + [tridiagonalize(a + vs[:r].T @ vs[:r]) for r in ranks]
        below = eigenvalue_counts_below(forms, np.array([lo, hi]))  # one sweep: base, rank-1, rank-d
        base, *counts = (below[:, 1] - below[:, 0]).tolist()
        for rank, count in zip(ranks, counts):
            shift = abs(count - base)
            max_by_rank[rank] = max(max_by_rank.get(rank, 0), shift)
            if shift > rank:
                raise AssertionFailure(
                    f"rank-{rank} update moved the count on [{lo:g}, {hi:g}) by {shift}",
                    counterexample={"trial": t, "seed": seed, "lo": lo, "hi": hi, "rank": rank, "shift": shift},
                )
    return InterlacingReport(trials=trials, n=n, seed=seed, max_shift_by_rank=max_by_rank)  # ranks 1, 2, 3, ... in order
