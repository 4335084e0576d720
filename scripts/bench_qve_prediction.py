#!/usr/bin/env python3
"""Time the QVE prediction of a local-law campaign on two source trees.

    python scripts/bench_qve_prediction.py --baseline OLD_CHECKOUT/src --out BENCH_x_continuation.json

The campaign prediction is what `verify_local_law` computes before its
trials: `extract_density` on the default 601-point grid at eta = 1e-6, then
`integrate_density` on three intervals of length 0.3 placed in the widest
bulk at eps = 0.1.  The profiles:

- `d1`: the d = 1 block of a constant profile (perfbench's dense-local-law);
- `d2`: the two-class block of perfbench's sbm-deloc SBM;
- `n200`, `n1000`: seeded irreducible n x n profiles (entries uniform in
  [0.3, 1], symmetrized, `numpy.random.default_rng(1)`); n = 200 is
  perfbench's profile-local-law profile at seed 1;
- `n2000`: the same at n = 2000, once per round and at 2 workers only,
  against the 2.5 s target of an irreducible n = 2000 campaign prediction.

Fresh interpreters importing speclaw from the baseline tree and from this
checkout's src/ alternate --rounds times.  Each makes one warm-up prediction
at n = 200, then times the prediction --repeats times per profile and per
worker count (1 and 2), ten times as often for the block profiles, whose
predictions take milliseconds.  A tree with `verify._campaign_map` predicts
the way its campaigns do: inside the campaign's map, which pins the bundled
OpenBLAS to one thread and, at 2 workers, solves the density's column blocks
and the three integrals on a thread pool.  An older tree predicts serially at
its default BLAS thread count before any pool opens, as its campaigns did, so
its two worker counts time the same path.  The JSON records the median and
best of each side's samples, the predicted counts n * integral and the map
evaluations of one prediction (both compared between the sides), and the
machine: core count, Python, numpy, scipy and their BLAS builds.  Map
evaluations are summed over the `_solve_batch` calls of each phase: the
density's eta-descents (`coarse`, every grid point on a tree without
continuation in x), its warm-started columns (`fine`) and the quadrature.
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
WORKERS = (1, 2)
EPS, LENGTH, INTERVALS = 0.1, 0.3, 3
TARGET_N2000_S = 2.5


def measure(repeats: int) -> dict:
    """One side's samples, run inside a child interpreter."""
    import contextlib

    import numpy as np
    import scipy
    from speclaw import ensembles as ens
    from speclaw import qve, verify

    grid = qve.default_grid()
    solve, evaluations = qve._solve_batch, []

    def counting_solve(*args, **kwargs):
        g, residual, iterations = solve(*args, **kwargs)
        evaluations.append((kwargs.get("initial") is None, int(iterations.sum())))
        return g, residual, iterations

    qve._solve_batch = counting_solve

    def irreducible(n: int):
        a = np.random.default_rng(1).uniform(0.3, 1.0, size=(n, n))
        return qve.VarianceProfile(n=n, entries=(a + a.T) / 2.0)

    def campaign_map(workers: int):
        if hasattr(verify, "_campaign_map"):
            return verify._campaign_map(workers)
        return contextlib.nullcontext(map)

    def prediction(prof, n: int, workers: int) -> tuple[float, float, list[float], dict]:
        """(density seconds, quadrature seconds, predicted counts, map evaluations per phase) of one prediction."""
        evaluations.clear()
        t0 = time.perf_counter()
        with campaign_map(workers) as mapper:
            kwargs = {"mapper": mapper} if hasattr(verify, "_campaign_map") else {}
            curve = qve.extract_density(prof, grid, eta=qve.DEFAULT_ETA, **kwargs)
            t1 = time.perf_counter()
            density_calls = len(evaluations)
            widest = max(qve.detect_bulk(curve, EPS), key=lambda b: b.width)
            intervals = verify.place_intervals(widest, LENGTH, INTERVALS)
            predicted = [n * q for q in mapper(lambda iv: qve.integrate_density(curve, *iv), intervals)]
        phases = {"coarse": sum(e for cold, e in evaluations[:density_calls] if cold),
                  "fine": sum(e for cold, e in evaluations[:density_calls] if not cold),
                  "quadrature": sum(e for _, e in evaluations[density_calls:])}
        return t1 - t0, time.perf_counter() - t1, predicted, phases

    sbm = ens.SbmSpec(d=2, sizes=(1000, 1000), probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0)
    # name: (profile, n, worker counts, repeats)
    cases = {
        "d1": (qve.BlockProfile(d=1, weights=np.ones(1), coeffs=np.ones((1, 1))), 2000, WORKERS, 10 * repeats),
        "d2": (ens.effective_profile(sbm), sbm.n, WORKERS, 10 * repeats),
        "n200": (irreducible(200), 200, WORKERS, repeats),
        "n1000": (irreducible(1000), 1000, WORKERS, repeats),
        "n2000": (irreducible(2000), 2000, (2,), 1),
    }
    prediction(cases["n200"][0], 200, 1)  # warm-up
    samples: dict = {}
    for name, (prof, n, workers_list, reps) in cases.items():
        for workers in workers_list:
            runs = [prediction(prof, n, workers) for _ in range(reps)]
            samples[f"{name}_workers{workers}"] = {
                "density_s": [r[0] for r in runs],
                "quadrature_s": [r[1] for r in runs],
                "predicted": runs[0][2],
                "map_evaluations": runs[0][3],
            }

    def blas(config: dict) -> str:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "samples": samples,
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
    parser.add_argument("--out", default=str(ROOT / "BENCH_x_continuation.json"))
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
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
              "workload": "campaign prediction: extract_density on the 601-point grid at eta 1e-6 plus three "
                          "integrate_density calls; block profiles d = 1 and d = 2, seeded irreducible profiles "
                          "at n = 200 and n = 1000, and once per round at n = 2000 with 2 workers",
              "sides": "parent = the --baseline tree, change = this checkout",
              "rounds": args.rounds, "repeats_per_round": args.repeats,
              "environment": runs["change"][0]["environment"]}
    keys = list(runs["change"][0]["samples"])
    for side, results in runs.items():
        report[side] = {}
        for key in keys:
            per_run = [res["samples"][key] for res in results]
            density = [t for s in per_run for t in s["density_s"]]
            quadrature = [t for s in per_run for t in s["quadrature_s"]]
            report[side][key] = {
                "prediction_s": summary([a + b for a, b in zip(density, quadrature)]),
                "extract_density_s": summary(density),
                "three_integrate_density_s": summary(quadrature),
                "predicted": per_run[0]["predicted"],
                "map_evaluations": per_run[0]["map_evaluations"],
            }
    report["predicted_max_rel_diff"] = {
        key: max(abs(a - b) / abs(b) for a, b in zip(report["change"][key]["predicted"],
                                                     report["parent"][key]["predicted"]))
        for key in keys}
    report["equal_map_evaluations"] = {
        key: report["change"][key]["map_evaluations"] == report["parent"][key]["map_evaluations"] for key in keys}
    n2000 = report["change"]["n2000_workers2"]["prediction_s"]["median"]
    report["n2000_workers2_target_s"] = TARGET_N2000_S
    report["n2000_workers2_meets_target"] = n2000 <= TARGET_N2000_S
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({side: {k: report[side][k]["prediction_s"]["median"] for k in keys} for side in sides}))
    return 0 if max(report["predicted_max_rel_diff"].values()) <= 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
