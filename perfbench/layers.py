"""Which speclaw functions the traced run wraps, and the per-layer metrics.

Every wrapped function belongs to one metric bucket; a bucket's value is the
summed self time of its spans.  Functions wrapped for counters only record no
span, so their time stays in the caller's self time.  The two spectral paths
(tridiagonalize + Sturm counts for local-law campaigns, eigen_full +
sup-norm ratios for delocalization) share the buckets `spectra.decompose_s`
and `spectra.count_s`, and `qve.prediction_s` adds the quadrature (absent
from delocalization) to the density solve, so that every time metric is
measured on every workload; the `*_calls` counters say which path ran.
"""

from __future__ import annotations

from collections import Counter

from tracer import Tracer, overlap_excess, self_times

# (module, attribute, span bucket); a class name in the attribute patches a method
SPANS = [
    ("cli", "main", "cli.self_s"),
    ("verify", "load_local_law_config", "cli.load_config_s"),
    ("verify", "verify_local_law", "verify.self_s"),
    ("verify", "verify_delocalization", "verify.self_s"),
    ("verify", "LocalLawReport.to_json", "verify.report_write_s"),
    ("verify", "DelocReport.to_json", "verify.report_write_s"),
    ("qve", "extract_density", "qve.density_s"),
    ("qve", "density_batch", "qve.density_s"),
    ("qve", "integrate_density", "qve.quadrature_s"),
    ("qve", "profile_fingerprint", "qve.fingerprint_s"),
    ("qve", "reduce_profile", "qve.reduce_s"),
    ("ensembles", "sample", "ensembles.sample_s"),
    ("ensembles", "sample_wigner", "ensembles.sample_s"),
    ("ensembles", "sample_sparse", "ensembles.sample_s"),
    ("ensembles", "sample_sbm", "ensembles.sample_s"),
    ("ensembles", "normalized_sample", "ensembles.normalize_s"),
    ("ensembles", "center_and_scale_sbm", "ensembles.normalize_s"),
    ("rng", "stream_key", "rng.s"),
    ("rng", "pair_counters", "rng.s"),
    ("rng", "hash_u64", "rng.s"),
    ("rng", "uniforms", "rng.s"),
    ("rng", "rademacher", "rng.s"),
    ("rng", "normals", "rng.s"),
    ("spectra", "tridiagonalize", "spectra.tridiagonalize_s"),
    ("spectra", "eigen_full", "spectra.eigen_s"),
    ("spectra", "count_in_interval", "spectra.sturm_s"),
    ("spectra", "eigenvalue_counts_below", "spectra.sturm_s"),
    ("spectra", "normalized_deloc_ratios", "spectra.deloc_ratio_s"),
    ("spectra", "bulk_indices", "spectra.deloc_ratio_s"),
    ("spectra", "eigvec_inf_norms", "spectra.deloc_ratio_s"),
]

# spans that make up one Monte Carlo trial, direct children of the campaign span
TRIAL_SPANS = {"ensembles.normalize_s", "spectra.tridiagonalize_s", "spectra.sturm_s",
               "spectra.eigen_s", "spectra.deloc_ratio_s"}


def _count_points(tr: Tracer, args, kwargs) -> None:
    tr.count("qve.points", args[1].size)


def _count_scalar(tr: Tracer, sol) -> None:
    tr.count("qve.scalar_solves")
    tr.count("qve.scalar_iterations", sol.iterations)


def _count_draws(tr: Tracer, args, kwargs) -> None:
    tr.count("rng.draws", getattr(args[1], "size", 1))


def _count_shifts(tr: Tracer, args, kwargs) -> None:
    tr.count("spectra.sturm_shifts", getattr(args[1], "size", 1))


def _count_sample(tr: Tracer, matrix) -> None:
    tr.count("ensembles.samples")
    tr.count("ensembles.matrix_bytes", matrix.n * matrix.n * 8)


def _count_tridiagonal(tr: Tracer, form) -> None:
    tr.count("spectra.tridiagonalize_calls")
    tr.count("spectra.tridiagonalize_flops", 4.0 * form.n ** 3 / 3.0)


def _count_eigen(tr: Tracer, summary) -> None:
    tr.count("spectra.eigen_calls")


CALLBACKS = {
    "solve_qve": (None, _count_scalar),
    "_solve_batch": (_count_points, None),
    "hash_u64": (_count_draws, None),
    "eigenvalue_counts_below": (_count_shifts, None),
    "sample_wigner": (None, _count_sample),
    "sample_sbm": (None, _count_sample),
    "tridiagonalize": (None, _count_tridiagonal),
    "eigen_full": (None, _count_eigen),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS, plus the counter-only hooks."""
    import speclaw
    from speclaw import cli, ensembles, qve, rng, spectra, verify

    modules = {"cli": cli, "verify": verify, "qve": qve, "ensembles": ensembles,
               "rng": rng, "spectra": spectra}
    namespaces = (speclaw, *modules.values())
    for mod, attr, bucket in SPANS:
        owner = modules[mod]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        on_call, on_return = CALLBACKS.get(attr, (None, None))
        tracer.patch(owner, attr, bucket, namespaces, on_call, on_return)
    # counter-only: scalar fallbacks and the batch solver's abscissas
    for attr in ("solve_qve", "_solve_batch"):
        on_call, on_return = CALLBACKS[attr]
        tracer.patch(qve, attr, None, namespaces, on_call, on_return)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced campaign."""
    spans, c = tracer.spans, tracer.counters
    b: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        b[s.name] += t

    campaign = [i for i, s in enumerate(spans) if s.name == "verify.self_s"]
    trial = [s for s in spans if s.parent in campaign and s.name in TRIAL_SPANS]
    trial_sum = sum(s.end - s.start for s in trial)
    trial_wall = max(s.end for s in trial) - min(s.start for s in trial)
    tri_s = b["spectra.tridiagonalize_s"]
    draws = c["rng.draws"]
    return {
        "cli.load_config_s": b["cli.load_config_s"],
        "cli.self_s": b["cli.self_s"],
        "verify.self_s": b["verify.self_s"],
        "verify.trials": sum(1 for s in trial if s.name == "ensembles.normalize_s"),
        "verify.report_write_s": b["verify.report_write_s"],
        "verify.trial_overlap": trial_sum / trial_wall,
        "qve.density_s": b["qve.density_s"],
        "qve.prediction_s": b["qve.density_s"] + b["qve.quadrature_s"],
        "qve.fingerprint_s": b["qve.fingerprint_s"],
        "qve.reduce_s": b["qve.reduce_s"],
        "qve.scalar_solves": c["qve.scalar_solves"],
        "qve.scalar_iterations": c["qve.scalar_iterations"],
        "qve.points": c["qve.points"],
        "ensembles.sample_s": b["ensembles.sample_s"],
        "ensembles.normalize_s": b["ensembles.normalize_s"],
        "ensembles.samples": c["ensembles.samples"],
        "ensembles.matrix_bytes": c["ensembles.matrix_bytes"],
        "rng.s": b["rng.s"],
        "rng.draws": draws,
        "rng.ns_per_draw": 1e9 * b["rng.s"] / draws if draws else 0.0,
        "spectra.decompose_s": tri_s + b["spectra.eigen_s"],
        "spectra.count_s": b["spectra.sturm_s"] + b["spectra.deloc_ratio_s"],
        "spectra.tridiagonalize_calls": c["spectra.tridiagonalize_calls"],
        "spectra.tridiagonalize_gflops": c["spectra.tridiagonalize_flops"] / tri_s / 1e9 if tri_s else 0.0,
        "spectra.eigen_calls": c["spectra.eigen_calls"],
        "spectra.sturm_shifts": c["spectra.sturm_shifts"],
    }


UNITS = {
    "cli.load_config_s": "s", "cli.self_s": "s",
    "verify.self_s": "s", "verify.trials": "count", "verify.report_write_s": "s",
    "verify.trial_overlap": "ratio", "verify.worker_speedup": "ratio",
    "qve.density_s": "s", "qve.prediction_s": "s", "qve.fingerprint_s": "s", "qve.reduce_s": "s",
    "qve.scalar_solves": "count", "qve.scalar_iterations": "count", "qve.points": "count",
    "ensembles.sample_s": "s", "ensembles.normalize_s": "s", "ensembles.samples": "count",
    "ensembles.matrix_bytes": "bytes",
    "rng.s": "s", "rng.draws": "count", "rng.ns_per_draw": "ns",
    "spectra.decompose_s": "s", "spectra.count_s": "s", "spectra.tridiagonalize_calls": "count",
    "spectra.tridiagonalize_gflops": "GFLOP/s", "spectra.eigen_calls": "count",
    "spectra.sturm_shifts": "count",
    "trace_overhead_s": "s", "peak_rss_mb": "MiB",
}


def unaccounted_s(tracer: Tracer, wall_s: float) -> float:
    """Traced wall minus (summed self times - overlap of parallel children).

    The untraced remainder of the call is the root span's self time, so for a
    consistent span tree this is only the cost of the root wrapper itself.
    """
    return wall_s - (sum(self_times(tracer.spans)) - overlap_excess(tracer.spans))
