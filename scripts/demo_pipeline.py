#!/usr/bin/env python3
"""End-to-end demo: build configs, run every CLI stage, print the summaries.

Writes its inputs and artifacts under a scratch directory (default ./demo_out)
so the file formats are easy to inspect.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from speclaw import cli, ensembles as ens, qve, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    n = args.n

    profile_path = work / "profile.json"
    qve.save_profile(qve.VarianceProfile.constant(n), profile_path)

    wigner = ens.WignerSpec(
        n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=0
    )
    wigner_path = work / "wigner.json"
    ens.save_ensemble(wigner, wigner_path)

    sbm = ens.SbmSpec(
        d=2, sizes=(n // 2, n // 2), probs=np.array([[0.2, 0.05], [0.05, 0.2]]), seed=0
    )
    sbm_path = work / "sbm.json"
    ens.save_ensemble(sbm, sbm_path)

    campaign = verify.LocalLawConfig(
        ensemble=wigner,
        trials=args.trials,
        interval_len_factor=verify.factor_for_length(0.4, wigner),
    )
    campaign_path = work / "local_law.json"
    with open(campaign_path, "w", encoding="utf-8") as fh:
        json.dump(campaign.to_dict(), fh, indent=2, sort_keys=True)

    projection = verify.ProjectionTestSpec(
        n=n, sigma=np.ones(n), subspace_dim=n // 4, weights=np.ones(n // 4),
        t_grid=np.arange(1.0, 6.0), trials=200, seed=0,
    )
    projection_path = work / "projection.json"
    with open(projection_path, "w", encoding="utf-8") as fh:
        json.dump(projection.to_dict(), fh, indent=2, sort_keys=True)

    stages = [
        ["density", "--profile", str(profile_path), "--grid", "-3:3:301", "--out", str(work / "rho.csv")],
        ["qve-solve", "--profile", str(profile_path), "--x", "0.5", "--eta", "1e-6", "--out", str(work / "solution.json")],
        ["sample", "--ensemble", str(sbm_path), "--format", "mm", "--out", str(work / "adjacency.mtx")],
        ["spectrum", "--ensemble", str(wigner_path), "--vectors", "--out", str(work / "spectrum.csv")],
        ["verify-local-law", "--config", str(campaign_path), "--out", str(work / "local_law_report.json")],
        ["verify-stieltjes", "--config", str(campaign_path), "--eta", "0.1,0.5", "--out", str(work / "stieltjes_report.json")],
        ["verify-deloc", "--config", str(campaign_path), "--out", str(work / "deloc_report.json")],
        ["test-projection", "--config", str(projection_path), "--out", str(work / "projection_report.json")],
        ["test-interlacing", "--trials", "100", "--n", "30", "--seed", "0", "--out", str(work / "interlacing_report.json")],
    ]
    for stage in stages:
        print(f"$ speclaw {' '.join(stage)}")
        code = cli.main(stage)
        if code != 0:
            print(f"stage failed with exit {code}", file=sys.stderr)
            return code
    # every JSON report re-parses into the dataclass that wrote it, byte for byte
    for cls, name in ((verify.LocalLawReport, "local_law_report"), (verify.StieltjesReport, "stieltjes_report"),
                      (verify.DelocReport, "deloc_report"), (verify.ProjectionReport, "projection_report"),
                      (verify.InterlacingReport, "interlacing_report")):
        raw = (work / f"{name}.json").read_bytes()
        if verify.report_json_bytes(cls.from_dict(json.loads(raw)).to_dict()) != raw:
            print(f"{name}.json does not round-trip through {cls.__name__}", file=sys.stderr)
            return 1
    print(f"artifacts in {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
