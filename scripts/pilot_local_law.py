#!/usr/bin/env python3
"""Calibration pilot for the desk-scale verification campaigns.

Runs the dense, sparse, and block-model eigenvalue-counting campaigns plus
the delocalization sweeps at the sizes the acceptance suite uses, and records
deviation/ratio statistics to scripts/pilot_results.json.  The recorded
numbers justify the tolerances frozen in tests/test_acceptance.py (deviation
tolerance 0.05 dense / 0.1 sparse and SBM, the +-30% delocalization stability
band, and the 5x localized-control separation).

Usage: python scripts/pilot_local_law.py [--quick] [--out PATH]
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from speclaw import ensembles as ens
from speclaw import cli, qve, verify


def dense_spec(n: int, p: float = 1.0) -> ens.WignerSpec:
    """The constant-profile Rademacher ensemble, each entry kept with probability p."""
    return ens.WignerSpec(
        n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=0, p=p
    )


def summarize(report: verify.LocalLawReport) -> dict:
    devs = np.array([rec.deviations for rec in report.intervals])
    return {
        "pass_fraction": report.pass_fraction,
        "max_deviation": report.max_deviation,
        "median_trial_max_deviation": float(np.median(devs.max(axis=0))),
        "intervals": [[rec.lo, rec.hi] for rec in report.intervals],
        "predicted": [rec.predicted for rec in report.intervals],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="n=500, 5 trials (smoke run)")
    parser.add_argument("--out", default=str(Path(__file__).parent / "pilot_results.json"))
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    # one worker context for every campaign, as the CLI opens one per command
    with cli.workers(args.threads) as mapper:
        n = 500 if args.quick else 2000
        trials = 5 if args.quick else 20
        results: dict = {"n": n, "trials": trials}
        t_start = time.time()

        # dense campaign, intervals of length 0.2
        spec = dense_spec(n)
        cfg = verify.LocalLawConfig(
            ensemble=spec,
            eps=0.1,
            delta=0.05,
            interval_len_factor=verify.factor_for_length(0.2, spec),
            num_intervals=3,
            trials=trials,
            base_seed=1000,
        )
        t0 = time.time()
        report = verify.verify_local_law(cfg, mapper=mapper)
        results["dense"] = summarize(report) | {"delta": 0.05, "length": 0.2, "seconds": time.time() - t0}
        print(f"dense n={n}: pass={report.pass_fraction:.2f} max_dev={report.max_deviation:.4f}")

        # sparse campaigns: length fixed at the 1/p-scaled value for p=0.1
        length = 0.2 / 0.1
        results["sparse"] = {}
        for p in (0.1, 0.05, 0.02):
            sparse = dense_spec(n, p)
            cfg = verify.LocalLawConfig(
                ensemble=sparse,
                eps=0.1,
                delta=0.1,
                interval_len_factor=verify.factor_for_length(length, sparse),
                num_intervals=3,
                trials=trials,
                base_seed=2000,
            )
            t0 = time.time()
            report = verify.verify_local_law(cfg, mapper=mapper)
            results["sparse"][str(p)] = summarize(report) | {
                "delta": 0.1, "length": length, "seconds": time.time() - t0
            }
            print(f"sparse p={p}: pass={report.pass_fraction:.2f} max_dev={report.max_deviation:.4f} "
                  f"median_trial_max={results['sparse'][str(p)]['median_trial_max_deviation']:.4f}")

        # block model, two equal communities
        half = n // 2
        sbm = ens.SbmSpec(
            d=2, sizes=(half, half), probs=np.array([[0.1, 0.02], [0.02, 0.1]]), seed=0
        )
        cfg = verify.LocalLawConfig(
            ensemble=sbm,
            eps=0.1,
            delta=0.1,
            interval_len_factor=verify.factor_for_length(0.4, sbm),
            num_intervals=3,
            trials=trials,
            base_seed=3000,
        )
        t0 = time.time()
        report = verify.verify_local_law(cfg, mapper=mapper)
        results["sbm"] = summarize(report) | {"delta": 0.1, "length": 0.4, "seconds": time.time() - t0}
        print(f"sbm: pass={report.pass_fraction:.2f} max_dev={report.max_deviation:.4f}")

        # delocalization stability: dense and sparse at two sizes
        results["deloc"] = {}
        sizes = (250, 500) if args.quick else (1000, 2000)
        for label, make in (
            ("dense", lambda m: dense_spec(m)),
            ("sparse", lambda m: dense_spec(m, 0.1)),
        ):
            for m in sizes:
                cfg = verify.LocalLawConfig(
                    ensemble=make(m), eps=0.1, trials=trials, base_seed=4000,
                    interval_len_factor=verify.factor_for_length(0.2, make(m)),
                )
                t0 = time.time()
                deloc = verify.verify_delocalization(cfg, mapper=mapper)
                key = f"{label}_{m}"
                results["deloc"][key] = {
                    "max_ratio": deloc.max_ratio,
                    "quantiles": deloc.ratio_quantiles,
                    "seconds": time.time() - t0,
                }
                control = math.sqrt(m / math.log(m))
                print(f"deloc {key}: max_ratio={deloc.max_ratio:.3f} control={control:.2f} "
                      f"separation={control / deloc.max_ratio:.2f}x")

    results["total_seconds"] = time.time() - t_start
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({results['total_seconds']:.0f}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
