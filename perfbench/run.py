"""Campaign benchmark for speclaw.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the benchmark imports speclaw from
./src and writes its scratch files under ./.perfbench_work.  Workloads are
defined in workloads.py.  For one workload and seed it

1. sets up the campaign SETUPS times in fresh interpreters (imports, spec and
   profile, config written through LocalLawConfig.to_dict()) and keeps the
   median time as setup_s;
2. in another fresh process, makes closed-loop `speclaw.cli.main` calls within
   a window of --seconds (at least one call) and takes their median wall time;
   with --trace 1 it instead makes one untraced and two traced calls and
   reports per-layer metrics (see layers.py);
3. checks the report against the workload's oracles.

Standard output ends with an environment record line and, last, one JSON line
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 when the
run completed, whether or not the checks passed; it is 2 when the checkout
holds no speclaw sources, and 1 when a step could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
SETUPS = 3
BUDGET_S = 170.0  # every run ends well within 180 s, or fails


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(config: dict) -> dict:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": workloads.THREADS,
        "seed": seed,
        "git_commit": commit,
    }


class Runner:
    """Starts the child processes of one run, each bounded by the run's deadline."""

    def __init__(self, root: Path):
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.root = root
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, *args: str) -> float:
        """Run child.py with args; returns its wall time, raises on failure."""
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        elapsed = time.perf_counter() - start
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args[:1])} exited with {proc.returncode}")
        return elapsed


def run(args, root: Path) -> dict:
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root)
    common = ["--workload", args.workload]

    setup_walls, configs = [], []
    for k in range(SETUPS if args.trace == 0 else 1):
        config = work / f"config-{k}.json"
        setup_walls.append(runner.child("setup", *common, "--seed", str(args.seed), "--config", str(config)))
        configs.append(config)
    first = configs[0].read_bytes()
    errors = [f"setup {k} wrote a different config" for k, c in enumerate(configs) if c.read_bytes() != first]
    for extra in configs[1:]:
        extra.unlink()

    runner.child("measure", *common, "--config", str(configs[0]), "--workdir", str(work),
                 "--seconds", str(args.seconds), "--trace", str(args.trace))
    result = json.loads((work / "result.json").read_text())

    config = workloads.build_config(args.workload, args.seed)
    report_path = work / "report.json"
    if all(s == 0 for s in result["statuses"]) and report_path.exists():
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        errors += workloads.check(args.workload, args.seed, report, config, result["curve"])
    if len(set(result["digests"])) != 1:
        errors.append("reports differ between calls (worker count or repetition)")
    for threads, gap in result.get("unaccounted_s", {}).items():
        if abs(gap) > 1e-3 + 1e-4 * max(result["traced_walls"].values()):
            errors.append(f"traced spans at {threads} workers leave {gap:.6f} s unaccounted")
    configs[0].unlink()
    report_path.unlink(missing_ok=True)

    statuses = result["statuses"]
    attempted = len(statuses)
    failed = attempted if errors else sum(1 for s in statuses if s != 0)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "report_bytes": {"value": result["report_bytes"], "unit": "bytes"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    detail = {"setup_walls": setup_walls, "errors": errors,
              **{k: result[k] for k in ("walls", "cpu_s", "steal_s", "peak_rss_mib", "traced_walls",
                                        "unaccounted_s", "spans") if k in result}}
    return {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "speclaw" / "__init__.py").is_file():
        print(f"no speclaw sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        out = run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    record = {"environment": environment(root, args.seed), "detail": out.pop("detail")}
    (root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "run.json").write_text(
        json.dumps({**record, **out}, indent=1))
    print(json.dumps(record))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
