#!/usr/bin/env python3
"""End-to-end demo: build configs, run every CLI stage, print the summaries.

Writes its inputs and artifacts under a scratch directory (default ./demo_out)
so the file formats are easy to inspect.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from speclaw import cli, ensembles as ens, qve, verify
from speclaw.errors import read_json, report_json_bytes


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
    qve.VarianceProfile.constant(n).to_json(profile_path)

    wigner = ens.WignerSpec(
        n=n, profile=qve.VarianceProfile.constant(n), law=ens.EntryLaw("rademacher"), seed=0
    )
    wigner_path = work / "wigner.json"
    wigner.to_json(wigner_path)

    sparse = dataclasses.replace(wigner, p=0.3)  # each entry kept with probability 0.3
    sparse_path = work / "sparse.json"
    sparse.to_json(sparse_path)

    sbm = ens.SbmSpec(
        d=2, sizes=(n // 2, n // 2), probs=np.array([[0.2, 0.05], [0.05, 0.2]]), seed=0
    )
    sbm_path = work / "sbm.json"
    sbm.to_json(sbm_path)

    campaign = verify.LocalLawConfig(
        ensemble=wigner,
        trials=args.trials,
        interval_len_factor=verify.factor_for_length(0.4, wigner),
    )
    campaign_path = work / "local_law.json"
    campaign.to_json(campaign_path)

    projection = verify.ProjectionTestSpec(
        n=n, sigma=np.ones(n), subspace_dim=n // 4, weights=np.ones(n // 4),
        t_grid=np.arange(1.0, 6.0), trials=200, seed=0,
    )
    projection_path = work / "projection.json"
    projection.to_json(projection_path)

    stages = [
        ["density", "--profile", str(profile_path), "--grid", "-3:3:301", "--out", str(work / "rho.csv")],
        ["qve-solve", "--profile", str(profile_path), "--x", "0.5", "--eta", "1e-6", "--out", str(work / "solution.json")],
        ["sample", "--ensemble", str(sbm_path), "--format", "mm", "--out", str(work / "adjacency.mtx")],
        ["sample", "--ensemble", str(sparse_path), "--format", "bin", "--out", str(work / "sparse.bin")],
        ["spectrum", "--ensemble", str(wigner_path), "--vectors", "--out", str(work / "spectrum.csv")],
        ["spectrum", "--ensemble", str(sparse_path), "--out", str(work / "sparse_spectrum.csv")],
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
    # every JSON input and report re-reads into the record that wrote it, byte for byte
    for kind, name in ((qve.Profile, "profile"), (ens.EnsembleSpec, "wigner"), (ens.EnsembleSpec, "sparse"),
                       (ens.EnsembleSpec, "sbm"),
                       (verify.LocalLawConfig, "local_law"), (verify.ProjectionTestSpec, "projection"),
                       (verify.LocalLawReport, "local_law_report"), (verify.StieltjesReport, "stieltjes_report"),
                       (verify.DelocReport, "deloc_report"), (verify.ProjectionReport, "projection_report"),
                       (verify.InterlacingReport, "interlacing_report")):
        path = work / f"{name}.json"
        if report_json_bytes(read_json(kind, path).to_dict()) != path.read_bytes():
            print(f"{name}.json does not round-trip through read_json", file=sys.stderr)
            return 1
    print(f"artifacts in {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
