#!/usr/bin/env python3
"""Time the two tridiagonal reductions, and the dense campaign on two source trees.

    python scripts/bench_reduction.py --baseline OLD_CHECKOUT/src --out BENCH_two_stage_reduction.json

Kernels: `spectra._reduce_one_stage` (LAPACK dsytrd) and
`spectra._reduce_two_stage` (dsytrd_2stage of the bundled OpenBLAS), called
directly on the same seeded symmetric matrix (standard normal entries,
symmetrized, scaled by 1/sqrt(n)) at each size in SIZES, inside a one-worker
campaign map, which pins the bundled OpenBLAS to one thread as every campaign
does.  The two kernels alternate, --repeats times each; the JSON records the
median and best of each, which is what `spectra._TWO_STAGE_MIN_N` rests on.

Campaigns: the acceptance suite's dense local-law campaign (constant profile,
Rademacher entries, eps 0.1, delta 0.05, three intervals of length 0.2, base
seed 1000, two workers) at n = 2000 and n = 4000, --trials trials each.
Fresh interpreters importing speclaw from the baseline tree and from this
checkout's src/ alternate --rounds times; each times one `verify_local_law`
call and hashes its report, and the hashes must agree between the sides.

The JSON also records the machine: core count, Python, numpy, scipy, their
BLAS builds and the configuration string of each bundled OpenBLAS.
"""

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (200, 500, 800, 1000, 1200, 1500, 2000, 4000)
CAMPAIGN_SIZES = (2000, 4000)


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "best": min(samples), "samples": len(samples)}


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


def time_kernels(repeats: int) -> dict:
    import numpy as np
    from speclaw import spectra, verify

    kernels = {"dsytrd": spectra._reduce_one_stage, "dsytrd_2stage": spectra._reduce_two_stage}
    result = {}
    with verify._campaign_map(1):
        for n in SIZES:
            a = np.random.default_rng(n).standard_normal((n, n))
            a = (a + a.T) / np.sqrt(2.0 * n)
            samples = {name: [] for name in kernels}
            for r in range(repeats):
                for name in sorted(kernels, reverse=r % 2 == 1):
                    t0 = time.perf_counter()
                    kernels[name](a)
                    samples[name].append(time.perf_counter() - t0)
            result[f"n{n}"] = {name: summary(s) for name, s in samples.items()}
            print(n, {name: round(min(s), 4) for name, s in samples.items()}, file=sys.stderr, flush=True)
    return result


def time_campaign(n: int, trials: int) -> dict:
    from speclaw import ensembles, qve, verify
    from speclaw.errors import report_json_bytes

    spec = ensembles.WignerSpec(n=n, profile=qve.VarianceProfile.constant(n),
                                law=ensembles.EntryLaw("rademacher"), seed=0)
    cfg = verify.LocalLawConfig(ensemble=spec, eps=0.1, delta=0.05,
                                interval_len_factor=verify.factor_for_length(0.2, spec),
                                num_intervals=3, trials=trials, base_seed=1000)
    t0 = time.perf_counter()
    report = verify.verify_local_law(cfg, threads=2)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "sha256": hashlib.sha256(report_json_bytes(report.to_dict())).hexdigest(),
            "pass_fraction": report.pass_fraction}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="src/ directory of the tree to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_two_stage_reduction.json"))
    parser.add_argument("--repeats", type=int, default=5, help="timings per kernel and size")
    parser.add_argument("--rounds", type=int, default=2, help="campaign runs per side and size")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--campaign", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.campaign:
        print(json.dumps(time_campaign(args.campaign, args.trials)))
        return 0
    sys.path.insert(0, str(ROOT / "src"))  # the kernels and the environment come from this checkout

    report = {"command": f"scripts/bench_reduction.py --repeats {args.repeats} --rounds {args.rounds} "
                         f"--trials {args.trials}",
              "environment": environment(),
              "kernels_one_blas_thread_s": time_kernels(args.repeats)}

    sides = {"parent": str(Path(args.baseline).resolve()), "change": str(ROOT / "src")}
    campaigns: dict = {}
    for n in CAMPAIGN_SIZES:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in sorted(sides, reverse=r % 2 == 1):
                env = dict(os.environ, PYTHONPATH=sides[side])
                out = subprocess.run([sys.executable, __file__, "--baseline", args.baseline, "--campaign", str(n),
                                      "--trials", str(args.trials)],
                                     env=env, check=True, capture_output=True, text=True).stdout
                runs[side].append(json.loads(out))
                print(n, side, runs[side][-1], file=sys.stderr, flush=True)
        campaigns[f"n{n}"] = {side: {"wall_s": summary([run["wall_s"] for run in results]),
                                     "pass_fraction": results[0]["pass_fraction"],
                                     "sha256": sorted({run["sha256"] for run in results})}
                              for side, results in runs.items()}
        campaigns[f"n{n}"]["identical_reports"] = (
            len({run["sha256"] for results in runs.values() for run in results}) == 1)
    report["dense_campaign"] = {
        "workload": f"dense local-law campaign, constant profile, Rademacher, {args.trials} trials, "
                    "three intervals of length 0.2, two workers",
        "sides": "parent = the --baseline tree, change = this checkout",
        **campaigns,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({key: {side: val[side]["wall_s"]["median"] for side in sides}
                      for key, val in campaigns.items()}))
    return 0 if all(val["identical_reports"] for val in campaigns.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
