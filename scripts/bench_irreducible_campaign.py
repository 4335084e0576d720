#!/usr/bin/env python3
"""Time an irreducible n = 2000, 20-trial local-law campaign end to end on two source trees.

    python scripts/bench_irreducible_campaign.py --baseline OLD_CHECKOUT/src --out BENCH_x_continuation.json

The campaign is perfbench's profile-local-law scaled to n = 2000: a Wigner
matrix with uniform_bounded entries over a seeded irreducible profile
(entries uniform in [0.3, 1], symmetrized, `numpy.random.default_rng(1)`),
eps 0.1, three intervals of length 0.3, delta 0.1, 20 trials from base seed
1000.  Its config, about 80 MB of JSON since it lists the profile's n x n
entries, is written once through this checkout's library.  Then fresh
`python -m speclaw.cli verify-local-law --threads 2` processes importing
speclaw from the baseline tree and from this checkout's src/ alternate
--rounds times, swapping which runs first.  Each time is the child's wall
time seen from here: interpreter start, config load, prediction, trials and
report.  The result goes under "irreducible_n2000_campaign" in --out, whose
other keys are kept: each side's samples with their median, the rounds the
change won, whether the sides' observed counts agree, the largest relative
difference of their predicted counts, and the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_reduction import environment

ROOT = Path(__file__).resolve().parents[1]
N, TRIALS, THREADS = 2000, 20, 2


def write_config(path: Path) -> None:
    import numpy as np
    from speclaw import ensembles as ens
    from speclaw import qve, verify

    a = np.random.default_rng(1).uniform(0.3, 1.0, size=(N, N))
    spec = ens.WignerSpec(n=N, profile=qve.VarianceProfile(n=N, entries=(a + a.T) / 2.0),
                          law=ens.EntryLaw("uniform_bounded"), seed=0)
    verify.LocalLawConfig(ensemble=spec, eps=0.1, delta=0.1, interval_len_factor=verify.factor_for_length(0.3, spec),
                          num_intervals=3, trials=TRIALS, base_seed=1000).to_json(path)


def campaign(src: str, config: Path, report: Path) -> tuple[float, dict]:
    """Wall time and report of one CLI campaign importing speclaw from src."""
    cmd = [sys.executable, "-m", "speclaw.cli", "verify-local-law", "--config", str(config),
           "--threads", str(THREADS), "--out", str(report)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True)
    return time.perf_counter() - start, json.loads(report.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="src/ directory of the tree to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_x_continuation.json"))
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))  # the config and the environment come from this checkout

    sides = {"parent": str(Path(args.baseline).resolve()), "change": str(ROOT / "src")}
    times: dict[str, list[float]] = {side: [] for side in sides}
    reports: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "campaign.json"
        write_config(config)
        for r in range(args.rounds):
            for side in sorted(sides, reverse=r % 2 == 1):
                wall, reports[side] = campaign(sides[side], config, Path(tmp) / f"{side}.json")
                times[side].append(wall)

    def predicted(side: str) -> list[float]:
        return [rec["predicted"] for rec in reports[side]["intervals"]]

    result = {
        "command": f"scripts/bench_irreducible_campaign.py --rounds {args.rounds}",
        "workload": f"verify-local-law --threads {THREADS}, irreducible n = {N} Wigner profile, {TRIALS} trials, "
                    "three intervals of length 0.3, wall time of the whole CLI process",
        **{side: {"wall_s": {"median": statistics.median(t), "samples": t}} for side, t in times.items()},
        "rounds_change_won": sum(c < p for c, p in zip(times["change"], times["parent"])),
        "equal_observed_counts": [rec["observed"] for rec in reports["change"]["intervals"]]
                                 == [rec["observed"] for rec in reports["parent"]["intervals"]],
        "predicted_max_rel_diff": max(abs(c - p) / abs(p) for c, p in zip(predicted("change"), predicted("parent"))),
        "environment": environment(),
    }
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench["irreducible_n2000_campaign"] = result
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({side: result[side]["wall_s"]["median"] for side in sides}))
    return 0 if result["equal_observed_counts"] else 1


if __name__ == "__main__":
    sys.exit(main())
