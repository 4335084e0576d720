#!/usr/bin/env python3
"""Time the QVE prediction of a profile-local-law campaign on two source trees.

    python scripts/bench_qve_prediction.py --baseline OLD_CHECKOUT/src --out BENCH_qve_prediction.json

The input is perfbench's profile-local-law campaign at seed 1 (a seeded
irreducible n = 200 profile, 601-point grid, eta = 1e-6).  Fresh interpreters
importing speclaw from the baseline tree and from this checkout's src/
alternate --rounds times.  Each makes one warm-up prediction, then times
`extract_density` and the campaign's three `integrate_density` calls
--repeats times; the JSON records the median and best of each side's samples.
It also records the map evaluations of every eta stage of the density solve
(replayed stage by stage through `qve._solve_batch` with warm starts, which is
what the solver does internally), the abscissas and map evaluations of the
quadrature, the predicted counts, and the machine: core count, Python, numpy,
scipy and their BLAS builds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def measure(repeats: int) -> dict:
    """One side's samples, run inside a child interpreter."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import scipy
    import workloads
    from speclaw import qve, verify

    cfg = workloads.build_config("profile-local-law", 1)
    profile = verify.effective_profile(cfg.ensemble)
    grid = qve.default_grid()

    def quadrature(curve):
        widest = max(qve.detect_bulk(curve, cfg.eps), key=lambda b: b.width)
        intervals = verify.place_intervals(widest, cfg.interval_length(), cfg.num_intervals)
        return intervals, [profile.n * qve.integrate_density(curve, lo, hi) for lo, hi in intervals]

    quadrature(qve.extract_density(profile, grid, eta=cfg.eta))  # warm-up
    density_s, quadrature_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        curve = qve.extract_density(profile, grid, eta=cfg.eta)
        t1 = time.perf_counter()
        quadrature(curve)
        density_s.append(t1 - t0)
        quadrature_s.append(time.perf_counter() - t1)

    solve, calls = qve._solve_batch, []

    def counting_solve(prof, xs, *args, **kwargs):
        out = solve(prof, xs, *args, **kwargs)
        calls.append((xs.size, int(out[2].sum())))
        return out

    qve._solve_batch = counting_solve
    try:
        intervals, predicted = quadrature(curve)
    finally:
        qve._solve_batch = solve

    stages, g = [], None
    # a baseline tree older than the tol argument takes a SolverOptions in its place
    tol = qve.SolverOptions() if hasattr(qve, "SolverOptions") else qve.DEFAULT_TOL
    for eta in qve._eta_schedule(cfg.eta):
        if g is None:
            g = np.repeat((-1.0 / (grid + 1j * eta))[None, :], profile.dim, axis=0)
        g, _, iterations = solve(profile, grid, float(eta), tol, initial=g)
        stages.append({"eta": float(eta), "map_evaluations": int(iterations.sum()), "max_per_point": int(iterations.max())})

    def blas(config: dict) -> str:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "density_s": density_s,
        "quadrature_s": quadrature_s,
        "map_evaluations_per_stage": stages,
        "quadrature": {"solver_calls": len(calls), "points": sum(p for p, _ in calls),
                       "map_evaluations": sum(e for _, e in calls)},
        "intervals": intervals,
        "predicted": predicted,
        "environment": {
            "cores": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts")),
        },
    }


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "best": min(samples), "samples": len(samples)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="src/ directory of the tree to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_qve_prediction.json"))
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    sides = {"parent": str(Path(args.baseline).resolve()), "change": str(ROOT / "src")}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in sorted(sides, reverse=r % 2 == 1):
            env = dict(os.environ, PYTHONPATH=sides[side])
            out = subprocess.run([sys.executable, __file__, "--baseline", args.baseline, "--measure", str(args.repeats)],
                                 env=env, check=True, capture_output=True, text=True).stdout
            runs[side].append(json.loads(out))
    report = {"command": f"scripts/bench_qve_prediction.py --rounds {args.rounds} --repeats {args.repeats}",
              "workload": "perfbench profile-local-law, seed 1: irreducible n = 200 profile, 601-point grid, eta 1e-6",
              "sides": "parent = the --baseline tree, change = this checkout",
              "rounds": args.rounds, "repeats_per_round": args.repeats,
              "environment": runs["change"][0]["environment"]}
    for side, results in runs.items():
        first = results[0]
        report[side] = {
            "extract_density_s": summary([t for res in results for t in res["density_s"]]),
            "three_integrate_density_s": summary([t for res in results for t in res["quadrature_s"]]),
            "map_evaluations_per_stage": first["map_evaluations_per_stage"],
            "quadrature": first["quadrature"],
            "intervals": first["intervals"],
            "predicted": first["predicted"],
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({side: {k: report[side][k]["median"] for k in ("extract_density_s", "three_integrate_density_s")}
                      for side in sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
