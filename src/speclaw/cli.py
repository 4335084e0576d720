"""Experiment runner: one binary, one subcommand per pipeline stage.

Every command runs inside one worker context, `workers`: BLAS pinned to one
thread and one pool of worker threads, so no output depends on the worker or
BLAS thread count.  The five report commands (three campaigns, test-projection,
test-interlacing) share one branch: the verify function, --out, --csv if any,
the summary line.

Exit codes: 0 success, 1 config/IO/validation problems, 2 numerical
non-convergence, 3 a verification assertion failed.  A failure prints the
JSON record of its SpecLawError (errors.py holds the contract) on stderr;
an unreadable input file counts as a config problem.  Any other exception
is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ensembles, qve, spectra, verify
from .errors import InvalidSpec, SpecLawError, read_json, write_json

EXIT_OK = 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1 with usage text
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(InvalidSpec.exit_code)


def _grid_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or not (lo < hi and hi - lo < np.inf):  # a finite span has finite ends
        raise argparse.ArgumentTypeError(f"grid needs finite lo < hi, a finite hi - lo and count >= 2, got {text!r}")
    try:
        return qve.linear_grid(lo, hi, count)  # -3:3:601 is the default grid
    except InvalidSpec as exc:  # a count numpy cannot allocate; parse_args runs outside main's try
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _eta_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _campaign_config(args) -> verify.LocalLawConfig:
    """The --config campaign with the command-line overrides applied (--delta: verify-local-law only)."""
    overrides = {"trials": args.trials, "base_seed": args.seed, "eps": args.eps, "delta": getattr(args, "delta", None)}
    return dataclasses.replace(verify.load_local_law_config(args.config),
                               **{k: v for k, v in overrides.items() if v is not None})


# report command -> (name of its verify function, its arguments from the parsed
# command line and the worker map, its summary line); the function is looked up
# on `verify` at call time, where a tracer may wrap it
_REPORTS = {
    "verify-local-law": ("verify_local_law", lambda a, m: (_campaign_config(a), m),
                         lambda r: f"pass_fraction={r.pass_fraction:.4f} max_deviation={r.max_deviation:.6g}"),
    "verify-stieltjes": ("verify_stieltjes_closeness", lambda a, m: (_campaign_config(a), a.eta, m),
                         lambda r: f"max_discrepancy={r.max_discrepancy:.6g} median_sup={r.median_sup:.6g}"),
    "verify-deloc": ("verify_delocalization", lambda a, m: (_campaign_config(a), m),
                     lambda r: f"max_ratio={r.max_ratio:.6g} q99={r.ratio_quantiles['q99']:.6g}"),
    "test-projection": ("projection_concentration_test", lambda a, m: (read_json(verify.ProjectionTestSpec, a.config),),
                        lambda r: f"failure_rate_first={r.failure_rates[0]:.4f} failure_rate_last={r.failure_rates[-1]:.4f}"),
    "test-interlacing": ("interlacing_test", lambda a, m: (a.trials, a.n, a.seed),  # serial: small n holds the GIL
                         lambda r: f"violations=0 trials={r.trials} max_rank1_shift={r.max_shift_by_rank[1]}"),
}


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS; empty for any other BLAS."""
    return tuple((getattr(dll, f"scipy_openblas_get_num_threads{suffix}"),
                  getattr(dll, f"scipy_openblas_set_num_threads{suffix}")) for dll, suffix in spectra.bundled_openblas())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def workers(threads: int | None = None):
    """The worker context of one command: BLAS pinned to one thread, and a map.

    Yields the builtin map, or a pool's map when threads > 1; threads=None
    means the usable CPU count, and a count below 1 raises InvalidSpec.  A
    campaign hands the map its prediction blocks, its quadrature intervals and
    its trials, `density` its prediction blocks; each lists the results in
    input order.

    Every BLAS/LAPACK call runs single-threaded at any worker count while the
    context is open: the parallelism comes from the pool, and no output depends
    on the BLAS thread count.  The pin is process-global, and the previous
    counts come back afterwards, also when the command raises.  It covers the
    OpenBLAS bundled with numpy and scipy wheels; with any other BLAS it is a
    no-op and that library keeps its own threading.  `run` opens it around
    every command; a Python caller opens it to get the CLI's determinism.
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


def build_parser() -> _Parser:
    parser = _Parser(prog="speclaw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qve-solve", help="solve the vector equation at one spectral point")
    p.add_argument("--profile", required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=qve.DEFAULT_TOL)
    p.add_argument("--out", default=None)

    p = sub.add_parser("density", help="tabulate the predicted spectral density")
    p.add_argument("--profile", required=True)
    p.add_argument("--grid", type=_grid_spec, default=qve.default_grid())
    p.add_argument("--eta", type=float, default=qve.DEFAULT_ETA)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draw one matrix from an ensemble spec")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("bin", "mm"), default="bin")
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", help="eigendecompose one normalized sample")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--vectors", action="store_true")
    p.add_argument("--out", required=True)

    for name in ("verify-local-law", "verify-stieltjes", "verify-deloc"):
        p = sub.add_parser(name, help=f"run the {name.removeprefix('verify-')} campaign")
        p.add_argument("--config", required=True)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        if name == "verify-local-law":  # the only campaign that reads delta
            p.add_argument("--delta", type=float, default=None)
        p.add_argument("--threads", type=int, default=None, help="trial workers (default: the usable CPU count)")
        p.add_argument("--out", default=None)
        if name == "verify-stieltjes":
            p.add_argument("--eta", type=_eta_list, required=True, help="comma-separated eta grid")
        else:  # the stieltjes report has no CSV form
            p.add_argument("--csv", default=None)

    p = sub.add_parser("test-projection", help="projection-concentration failure rates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("test-interlacing", help="interval-count stability under low-rank updates")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation inside one worker context (campaigns: --threads); returns the exit status."""
    with workers(getattr(args, "threads", None)) as mapper:
        return _execute(args, mapper)


def _execute(args: argparse.Namespace, mapper) -> int:
    command = args.command

    if command == "qve-solve":
        profile = read_json(qve.Profile, args.profile)
        sol = qve.solve_qve(profile, complex(args.x, args.eta), args.tol)
        payload = {"x": args.x, "eta": args.eta, "m": [sol.m.real, sol.m.imag], "g": [[v.real, v.imag] for v in sol.g],
                   "residual": sol.residual, "iterations": sol.iterations}
        if args.out:
            write_json(payload, args.out)
        print(f"m={sol.m.real:.12g}{sol.m.imag:+.12g}i residual={sol.residual:.3g}")
        return EXIT_OK

    if command == "density":
        profile = read_json(qve.Profile, args.profile)
        curve = qve.extract_density(profile, args.grid, eta=args.eta, mapper=mapper)
        qve.density_to_csv(curve, args.out)
        print(f"rows={curve.grid.size} mass={curve.mass():.6f} out={args.out}")
        return EXIT_OK

    if command == "sample":
        spec = read_json(ensembles.EnsembleSpec, args.ensemble)
        spec = spec if args.seed is None else ensembles.with_seed(spec, args.seed)
        matrix = ensembles.sample(spec)
        (ensembles.save_matrix_market if args.format == "mm" else ensembles.save_matrix_binary)(matrix, args.out)
        print(f"n={len(matrix)} nnz={np.count_nonzero(matrix)} out={args.out}")
        return EXIT_OK

    if command == "spectrum":
        spec = read_json(ensembles.EnsembleSpec, args.ensemble)
        spec = spec if args.seed is None else ensembles.with_seed(spec, args.seed)
        summary = spectra.eigen_full(ensembles.normalized_sample(spec), want_vectors=args.vectors)
        spectra.spectrum_to_csv(summary, args.out)
        lam = summary.eigenvalues
        print(f"n={summary.n} lambda_min={lam[0]:.6g} lambda_max={lam[-1]:.6g} out={args.out}")
        return EXIT_OK

    name, inputs, summary = _REPORTS[command]  # argparse admits no other command
    report = getattr(verify, name)(*inputs(args, mapper))
    if args.out:
        report.to_json(args.out)
    if getattr(args, "csv", None):
        report.to_csv(args.csv)
    print(summary(report))
    return EXIT_OK


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-3:3:600" for flags; fold them into --flag=value
    merged = []
    for tok in argv:
        if merged and merged[-1] in ("--grid", "--x") and tok.startswith("-"):
            merged[-1] = f"{merged[-1]}={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return run(args)
    except SpecLawError as exc:
        failure = exc
    except OSError as exc:  # reading an input file
        failure = InvalidSpec(str(exc))
    print(json.dumps(failure.record(), sort_keys=True, allow_nan=False), file=sys.stderr)
    return failure.exit_code


if __name__ == "__main__":
    sys.exit(main())
