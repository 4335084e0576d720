#!/usr/bin/env python3
"""Time what a fresh speclaw process pays before its work, on two source trees.

    python scripts/bench_cold_start.py --baseline OLD_CHECKOUT/src --out BENCH_cold_start.json

Three measurements, each in fresh interpreters that import speclaw from the
baseline tree or from this checkout's src/:

- `import speclaw.cli`: `python -c "import speclaw.cli"`, median of 3 runs;
- setup: `perfbench/child.py setup --workload W --seed S` of this checkout
  (interpreter start, imports, spec and profile, config written) for each of
  the three perfbench workloads, median of 3 runs, as `perfbench/run.py` takes
  its setup_s;
- `verify-deloc`: one `python -m speclaw.cli verify-deloc --threads 2`
  process on the sbm-deloc config, end to end.

The two sides alternate --rounds times, swapping which runs first.  Every
time is the wall time of the child process seen from here.  The JSON records
each side's samples with their median and quartiles, how many rounds the
change won, the modules each side's `import speclaw.cli` loads (scipy's
apart), whether both sides wrote the same configs and reports, and the
machine: core count, Python, numpy, scipy, their BLAS builds and the
configuration string of each bundled OpenBLAS.
"""

import argparse
import hashlib
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
WORKLOADS = ("dense-local-law", "profile-local-law", "sbm-deloc")
SETUPS = 3  # as perfbench/run.py
MODULES = ("import json, sys, speclaw.cli; "
           "print(json.dumps([len(sys.modules), sum(m.split('.')[0] == 'scipy' for m in sys.modules)]))")


def run(cmd: list[str], src: str) -> tuple[float, str]:
    """Wall time and standard output of one child process importing speclaw from src."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout
    return time.perf_counter() - start, out


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "samples": samples}


def one_round(src: str, seed: int, work: Path) -> tuple[dict, dict]:
    """(times, sha256 of each config and report) of one side's round."""
    python = sys.executable
    times = {"import speclaw.cli": statistics.median(run([python, "-c", "import speclaw.cli"], src)[0]
                                                    for _ in range(SETUPS))}
    digests = {}
    for workload in WORKLOADS:
        config = work / f"{workload}.json"
        walls = [run([python, "perfbench/child.py", "setup", "--workload", workload, "--seed", str(seed),
                      "--config", str(config)], src)[0] for _ in range(SETUPS)]
        times[f"setup {workload}"] = statistics.median(walls)
        digests[f"config {workload}"] = hashlib.sha256(config.read_bytes()).hexdigest()
    report = work / "deloc-report.json"
    times["verify-deloc"], _ = run([python, "-m", "speclaw.cli", "verify-deloc", "--config",
                                    str(work / "sbm-deloc.json"), "--threads", "2", "--out", str(report)], src)
    digests["report sbm-deloc"] = hashlib.sha256(report.read_bytes()).hexdigest()
    return times, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="src/ directory of the tree to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cold_start.json"))
    parser.add_argument("--rounds", type=int, default=10, help="alternating parent/change pairs")
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))  # the environment comes from this checkout

    sides = {"parent": str(Path(args.baseline).resolve()), "change": str(ROOT / "src")}
    times: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    digests: dict[str, set] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.rounds):
            for side in sorted(sides, reverse=r % 2 == 1):
                work = Path(tmp) / side
                work.mkdir(exist_ok=True)
                round_times, round_digests = one_round(sides[side], args.seed, work)
                for name, wall in round_times.items():
                    times[side].setdefault(name, []).append(wall)
                for name, digest in round_digests.items():
                    digests.setdefault(name, set()).add(digest)
                print(r, side, {name: round(wall, 3) for name, wall in round_times.items()},
                      file=sys.stderr, flush=True)

    measurements = {}
    for name in times["change"]:
        parent, change = times["parent"][name], times["change"][name]
        measurements[name] = {"parent": summary(parent), "change": summary(change),
                              "change_wins": sum(c < p for p, c in zip(parent, change))}
    report = {
        "command": f"scripts/bench_cold_start.py --rounds {args.rounds} --seed {args.seed}",
        "environment": environment(),
        "sides": "parent = the --baseline tree, change = this checkout",
        "rounds": args.rounds,
        "wall_s": measurements,
        "import_speclaw_cli_modules": {side: dict(zip(("loaded", "scipy"), json.loads(
            run([sys.executable, "-c", MODULES], src)[1]))) for side, src in sides.items()},
        "identical_configs_and_reports": all(len(d) == 1 for d in digests.values()),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({name: {side: round(m[side]["median"], 3) for side in sides} | {"wins": m["change_wins"]}
                      for name, m in measurements.items()}))
    return 0 if report["identical_configs_and_reports"] else 1


if __name__ == "__main__":
    sys.exit(main())
