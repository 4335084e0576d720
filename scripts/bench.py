#!/usr/bin/env python3
"""A/B benchmark of this checkout against another one, one case per run.

    python scripts/bench.py CASE --baseline OTHER_CHECKOUT --out BENCH_name.json [--rounds R] [--repeats K]

Each round starts one fresh interpreter per side, the parent side importing
speclaw from OTHER_CHECKOUT/src and the change side from this checkout's
src/, and swaps which side runs first from one round to the next.  The
interpreter runs the case, which times its work and returns the outputs the
two sides must agree on.  The case's result goes under its name in --out,
whose other keys are kept:

- `seconds`: for every timed key, each side's median, quartiles, best and
  samples, and how many of the pairs (same round, same repeat) the change won;
- `agreement`: outputs that must be equal on both sides and in every round
  (config and report hashes, observed counts, map evaluations), and the
  largest relative difference of the predicted counts, which must stay within
  PREDICTED_RTOL; the script exits 1 when one of them fails;
- `info`: per-side facts from the first round, recorded but not compared;
- `environment`: core count, Python, numpy, scipy, their BLAS builds and the
  configuration string of each bundled OpenBLAS, read through this checkout.

The cases, their default rounds and repeats in parentheses:

- cold-start (10, 3): `import speclaw.cli` and perfbench's `child.py setup`
  of each workload at seed 1, each the median of --repeats processes, then one
  `verify-deloc --threads 2` process on the sbm-deloc config;
- prediction (2, 3): the QVE prediction of a local-law campaign, inside the
  campaign map, for block and irreducible profiles at 1 and 2 workers;
- reduction (2, 5): the dense local-law campaign at n = 2000 and 4000, then
  the one-stage and two-stage tridiagonal reductions at one BLAS thread;
- irreducible-campaign (3, -): an irreducible n = 2000, 20-trial
  `verify-local-law --threads 2` process, end to end.
"""

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PREDICTED_RTOL = 1e-12
TRIALS = 20
WORKLOADS = ("dense-local-law", "profile-local-law", "sbm-deloc")
MODULES = ("import json, sys, speclaw.cli; "
           "print(json.dumps([len(sys.modules), sum(m.split('.')[0] == 'scipy' for m in sys.modules)]))")
CHILD = ("import json, sys; sys.path.insert(0, {scripts!r}); import bench; "
         "print(json.dumps(bench.CASES[sys.argv[1]][0](bench.Path(sys.argv[2]), int(sys.argv[3]))))")


def timed(cmd: list[str], env: dict | None = None) -> tuple[float, str]:
    """Wall time and standard output of one child process run from the repository root."""
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return time.perf_counter() - start, out


def launch(case: str, src: str, work: Path, repeats: int) -> dict:
    """One side's round: a fresh interpreter importing speclaw from src runs the case."""
    code = CHILD.format(scripts=str(Path(__file__).resolve().parent))
    _, out = timed([sys.executable, "-c", code, case, str(work), str(repeats)], dict(os.environ, PYTHONPATH=src))
    return json.loads(out.splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def irreducible(n: int):
    """The seeded irreducible profile: entries uniform in [0.3, 1], symmetrized."""
    import numpy as np
    from speclaw import qve

    a = np.random.default_rng(1).uniform(0.3, 1.0, size=(n, n))
    return qve.VarianceProfile(n=n, entries=(a + a.T) / 2.0)


# ---------------------------------------------------------------------------
# cases: each runs inside one side's interpreter and returns {"seconds": {key:
# [samples]}, "equal": {...}, "close": {key: [predicted counts]}, "info": {...}}


def cold_start(work: Path, repeats: int) -> dict:
    """What a fresh speclaw process pays before its work: `import speclaw.cli`, and perfbench's
    `child.py setup --seed 1` of each workload (interpreter start, imports, spec and profile, config
    written), each the median of --repeats processes; then one `verify-deloc --threads 2` process on
    the sbm-deloc config, end to end."""
    python = sys.executable
    seconds = {"import speclaw.cli": [statistics.median(timed([python, "-c", "import speclaw.cli"])[0]
                                                        for _ in range(repeats))]}
    equal = {}
    for workload in WORKLOADS:
        config = work / f"{workload}.json"
        cmd = [python, "perfbench/child.py", "setup", "--workload", workload, "--seed", "1", "--config", str(config)]
        seconds[f"setup {workload}"] = [statistics.median(timed(cmd)[0] for _ in range(repeats))]
        equal[f"config {workload}"] = sha256(config)
    report = work / "deloc-report.json"
    seconds["verify-deloc"] = [timed([python, "-m", "speclaw.cli", "verify-deloc", "--config",
                                      str(work / "sbm-deloc.json"), "--threads", "2", "--out", str(report)])[0]]
    equal["report sbm-deloc"] = sha256(report)
    modules = dict(zip(("loaded", "scipy"), json.loads(timed([python, "-c", MODULES])[1])))
    return {"seconds": seconds, "equal": equal, "info": {"import speclaw.cli modules": modules}}


def prediction(work: Path, repeats: int) -> dict:
    """The campaign prediction, `extract_density` on the default 601-point grid at eta 1e-6, then the
    masses of three intervals of length 0.3 in the widest bulk at eps 0.1 as the local-law plan takes
    them (`verify.interval_masses`, one `integrate_density` per mirror pair), inside the campaign map
    (one BLAS thread; at 2 workers a thread pool), after one warm-up at n = 200.  Profiles: the d = 1
    constant block (dense-local-law) and the two-class block of sbm-deloc, 10 * --repeats times each;
    seeded irreducible profiles at n = 200 (profile-local-law) and n = 1000, --repeats times each, at 1
    and 2 workers; and once at n = 2000 with 2 workers.  Map evaluations are summed over the
    `_solve_batch` calls of the density's cold columns (coarse), its warm-started columns (fine) and
    the quadrature."""
    import numpy as np
    from speclaw import ensembles as ens
    from speclaw import qve, verify

    solve, evaluations = qve._solve_batch, []

    def counting_solve(*args, **kwargs):
        g, residual, iterations = solve(*args, **kwargs)
        evaluations.append((kwargs.get("initial") is None, int(iterations.sum())))
        return g, residual, iterations

    qve._solve_batch = counting_solve
    # the campaign plan's quadrature; a checkout from before it maps every interval
    masses = getattr(verify, "interval_masses", lambda curve, intervals, mapper: list(
        mapper(lambda iv: qve.integrate_density(curve, *iv), intervals)))

    def predict(prof, n: int, workers: int) -> tuple[float, float, list[float], dict]:
        evaluations.clear()
        t0 = time.perf_counter()
        with verify._campaign_map(workers) as mapper:
            curve = qve.extract_density(prof, qve.default_grid(), eta=qve.DEFAULT_ETA, mapper=mapper)
            t1 = time.perf_counter()
            density = len(evaluations)
            widest = max(qve.detect_bulk(curve, 0.1), key=lambda b: b.width)
            intervals = verify.place_intervals(widest, 0.3, 3)
            predicted = [n * q for q in masses(curve, intervals, mapper)]
        phases = {"coarse": sum(e for cold, e in evaluations[:density] if cold),
                  "fine": sum(e for cold, e in evaluations[:density] if not cold),
                  "quadrature": sum(e for _, e in evaluations[density:])}
        return t1 - t0, time.perf_counter() - t1, predicted, phases

    sbm = ens.SbmSpec(d=2, sizes=(1000, 1000), probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0)
    profiles = {  # name: (profile, n, worker counts, repeats)
        "d1": (qve.BlockProfile(d=1, weights=np.ones(1), coeffs=np.ones((1, 1))), 2000, (1, 2), 10 * repeats),
        "d2": (ens.effective_profile(sbm), sbm.n, (1, 2), 10 * repeats),
        "n200": (irreducible(200), 200, (1, 2), repeats),
        "n1000": (irreducible(1000), 1000, (1, 2), repeats),
        "n2000": (irreducible(2000), 2000, (2,), 1),
    }
    predict(profiles["n200"][0], 200, 1)  # warm-up
    result = {"seconds": {}, "equal": {}, "close": {}}
    for name, (prof, n, workers_list, reps) in profiles.items():
        for workers in workers_list:
            runs = [predict(prof, n, workers) for _ in range(reps)]
            key = f"{name} workers{workers}"
            result["seconds"] |= {f"{key} prediction": [a + b for a, b, _, _ in runs],
                                  f"{key} extract_density": [r[0] for r in runs],
                                  f"{key} three intervals": [r[1] for r in runs]}
            result["close"][f"{key} predicted"] = runs[0][2]
            result["equal"][f"{key} map evaluations"] = runs[0][3]
    return result


def reduction(work: Path, repeats: int) -> dict:
    """The acceptance suite's dense local-law campaign (constant profile, Rademacher entries, eps 0.1,
    delta 0.05, three intervals of length 0.2, 20 trials from base seed 1000, two workers) at n = 2000
    and n = 4000, one `verify_local_law` call each, its report hashed; then LAPACK dsytrd and
    dsytrd_2stage of the bundled OpenBLAS on one seeded symmetric matrix per size, inside a one-worker
    campaign map (one BLAS thread), alternating, --repeats times each.  Each kernel runs as
    `spectra.tridiagonalize(b, overwrite_a=True)` with `spectra._TWO_STAGE_MIN_N` set to force it, on
    its own copy b of the matrix, made before the timer starts."""
    import numpy as np
    from speclaw import ensembles, qve, spectra, verify
    from speclaw.errors import report_json_bytes

    result = {"seconds": {}, "equal": {}, "info": {}}
    for n in (2000, 4000):
        spec = ensembles.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n),
                                    law=ensembles.EntryLaw("rademacher"), seed=0)
        cfg = verify.LocalLawConfig(ensemble=spec, eps=0.1, delta=0.05,
                                    interval_len_factor=verify.factor_for_length(0.2, spec),
                                    num_intervals=3, trials=TRIALS, base_seed=1000)
        t0 = time.perf_counter()
        report = verify.verify_local_law(cfg, threads=2)
        result["seconds"][f"campaign n{n}"] = [time.perf_counter() - t0]
        result["equal"][f"report n{n}"] = hashlib.sha256(report_json_bytes(report.to_dict())).hexdigest()
        result["info"][f"pass_fraction n{n}"] = report.pass_fraction
    kernels = {"dsytrd": float("inf"), "dsytrd_2stage": 0}  # the _TWO_STAGE_MIN_N that forces each
    with verify._campaign_map(1):
        for n in (200, 500, 800, 1000, 1200, 1500, 2000, 4000):
            a = np.random.default_rng(n).standard_normal((n, n))
            a = (a + a.T) / np.sqrt(2.0 * n)
            for r in range(repeats):
                for name in sorted(kernels, reverse=r % 2 == 1):
                    b = a.copy()
                    spectra._TWO_STAGE_MIN_N = kernels[name]
                    t0 = time.perf_counter()
                    spectra.tridiagonalize(b, overwrite_a=True)
                    result["seconds"].setdefault(f"{name} n{n}", []).append(time.perf_counter() - t0)
    return result


def irreducible_campaign(work: Path, repeats: int) -> dict:
    """perfbench's profile-local-law scaled to n = 2000: a Wigner matrix with uniform_bounded entries
    over the seeded irreducible profile, eps 0.1, three intervals of length 0.3, delta 0.1, 20 trials
    from base seed 1000.  Its config, about 120 MB of JSON listing the profile's entries, is written once
    per side through that side's library; each round times one `python -m speclaw.cli verify-local-law
    --threads 2` process on it: interpreter start, config load, prediction, trials and report."""
    config = work / "irreducible.json"
    if not config.exists():
        from speclaw import ensembles as ens
        from speclaw import verify

        spec = ens.WignerSpec(n=2000, profile=irreducible(2000), law=ens.EntryLaw("uniform_bounded"), seed=0)
        verify.LocalLawConfig(ensemble=spec, eps=0.1, delta=0.1,
                              interval_len_factor=verify.factor_for_length(0.3, spec),
                              num_intervals=3, trials=TRIALS, base_seed=1000).to_json(config)
    report = work / "report.json"
    wall, _ = timed([sys.executable, "-m", "speclaw.cli", "verify-local-law", "--config", str(config),
                     "--threads", "2", "--out", str(report)])
    intervals = json.loads(report.read_text())["intervals"]
    return {"seconds": {"verify-local-law": [wall]},
            "equal": {"config": sha256(config), "observed": [rec["observed"] for rec in intervals]},
            "close": {"predicted": [rec["predicted"] for rec in intervals]}}


# name: (case, default rounds, default repeats)
CASES = {
    "cold-start": (cold_start, 10, 3),
    "prediction": (prediction, 2, 3),
    "reduction": (reduction, 2, 5),
    "irreducible-campaign": (irreducible_campaign, 3, 1),
}


# ---------------------------------------------------------------------------
# harness


def environment() -> dict:
    import numpy as np
    import scipy
    from speclaw import spectra

    def blas(config: dict) -> str:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    configs = []
    for dll, suffix in spectra.bundled_openblas():
        get_config = getattr(dll, f"scipy_openblas_get_config{suffix}", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            configs.append(get_config().decode())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "bundled_openblas": configs,
    }


def stats(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "best": min(samples), "samples": samples}


def summary(parent: list[float], change: list[float]) -> dict:
    """Both sides' statistics, and how many pairs of the i-th samples the change ran faster."""
    return {"parent": stats(parent), "change": stats(change), "pairs": len(parent),
            "change_wins": sum(c < p for p, c in zip(parent, change, strict=True))}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Each compared output of the first round of either side, and whether it agrees over every run."""
    result = {}
    for kind in ("equal", "close"):
        for key, ref in runs["parent"][0].get(kind, {}).items():
            values = [run[kind][key] for side in SIDES for run in runs[side]]
            entry = {side: runs[side][0][kind][key] for side in SIDES}
            if kind == "equal":
                entry["agree"] = all(value == ref for value in values)
            else:
                entry["max_rel_diff"] = max(abs(a - b) / abs(b)
                                            for value in values for a, b in zip(value, ref, strict=True))
                entry["agree"] = entry["max_rel_diff"] <= PREDICTED_RTOL
            result[key] = entry
    return result


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("case", choices=CASES)
    parser.add_argument("--baseline", required=True, help="root of the checkout to compare against")
    parser.add_argument("--out", required=True, help="JSON file the case's result is merged into")
    parser.add_argument("--rounds", type=positive, help="rounds, each one run per side (default: per case)")
    parser.add_argument("--repeats", type=positive, help="timings per run, where the case repeats (default: per case)")
    args = parser.parse_args()
    case, rounds, repeats = CASES[args.case]
    rounds, repeats = args.rounds or rounds, args.repeats or repeats
    sys.path.insert(0, str(ROOT / "src"))  # the environment comes from this checkout

    sources = {"parent": str(Path(args.baseline).resolve() / "src"), "change": str(ROOT / "src")}
    if not (Path(sources["parent"]) / "speclaw").is_dir():
        parser.error(f"--baseline {args.baseline} has no src/speclaw")
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(rounds):
            for side in SIDES[::-1] if r % 2 else SIDES:
                work = Path(tmp) / side
                work.mkdir(exist_ok=True)
                runs[side].append(launch(args.case, sources[side], work, repeats))
                print(r, side, {key: round(statistics.median(t), 3) for key, t in runs[side][-1]["seconds"].items()},
                      file=sys.stderr, flush=True)

    seconds = {key: summary(*([t for run in runs[side] for t in run["seconds"][key]] for side in SIDES))
               for key in runs["change"][0]["seconds"]}
    result = {
        "command": f"scripts/bench.py {args.case} --rounds {rounds} --repeats {repeats}",
        "workload": " ".join(case.__doc__.split()),
        "sides": "parent = the --baseline checkout, change = this checkout",
        "environment": environment(),
        "seconds": seconds,
        "agreement": compare(runs),
        "info": {side: runs[side][0].get("info", {}) for side in SIDES},
    }
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    out.write_text(json.dumps(bench | {args.case: result}, indent=2) + "\n")
    print(json.dumps({key: {side: round(s[side]["median"], 4) for side in SIDES} | {"change_wins": s["change_wins"]}
                      for key, s in seconds.items()}))
    return 0 if all(entry["agree"] for entry in result["agreement"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
