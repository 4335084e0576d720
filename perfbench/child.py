"""Worker process of the benchmark: writes a workload's config, or times campaigns.

    child.py setup   --workload W --seed S --config PATH
    child.py measure --workload W --config PATH --workdir DIR --seconds T --trace 0|1

`setup` is what a user pays once per campaign: interpreter start, imports,
building the spec and profile, and writing the config through
LocalLawConfig.to_dict().  `measure` makes closed-loop `speclaw.cli.main`
calls (each starts after the previous one returns) for `--seconds`: at least
one call, and another only while it should end within that window.  With
`--trace 1` it makes one untraced call, then one traced call with the default
worker count and one traced call with a single worker, and reports the
per-layer metrics of the first traced call; its peak RSS is taken after the
untraced call, in a process that did nothing before it but import speclaw.
Results go to DIR/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer


def setup(args) -> None:
    cfg = workloads.build_config(args.workload, args.seed)
    with open(args.config, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, sort_keys=True)


class CurveCapture:
    """Keeps the density curve the campaign computes, for the checks afterwards."""

    def __init__(self, verify, qve):
        self.curve = None

        # looked up per call, so that a traced qve.extract_density is the one called
        def capture(*args, **kwargs):
            self.curve = qve.extract_density(*args, **kwargs)
            return self.curve

        verify.extract_density = capture

    def as_dict(self) -> dict:
        c = self.curve
        return {"grid": c.grid.tolist(), "values": c.values.tolist(), "eta_used": c.eta_used}


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this VM's CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Calls:
    """Wall time, exit status and report digest of each call, plus the CPU time
    it used and the steal the host imposed during it (to explain outliers)."""

    def __init__(self, cli):
        self.cli = cli
        self.walls, self.statuses, self.digests, self.cpu_s, self.steal_s = [], [], [], [], []

    def run(self, argv: list[str], report: Path) -> float:
        sink = io.StringIO()
        steal0, cpu0 = steal_s(), time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                status = self.cli.main(argv)
        except Exception:  # a crash is a failed call, recorded with its traceback
            traceback.print_exc()
            status = -1
        wall = time.perf_counter() - start
        cpu, steal1 = time.process_time() - cpu0, steal_s()
        self.walls.append(wall)
        self.statuses.append(status)
        self.digests.append(digest(report))
        self.cpu_s.append(cpu)
        self.steal_s.append(None if steal0 is None or steal1 is None else steal1 - steal0)
        return wall


def digest(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def measure(args) -> None:
    from speclaw import cli, qve, verify

    work = Path(args.workdir)
    report = work / "report.json"
    capture = CurveCapture(verify, qve)
    calls = Calls(cli)
    start = time.perf_counter()
    # another call only if it should end within the window, judged by the median so far
    while not calls.walls or (args.trace == 0 and
                              time.perf_counter() - start + statistics.median(calls.walls) <= args.seconds):
        calls.run(workloads.argv(args.workload, args.config, report), report)
    result = {
        "walls": list(calls.walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_bytes": report.stat().st_size if report.exists() else 0,
        "curve": capture.as_dict() if capture.curve is not None else None,
    }
    if args.trace:
        traced = {}
        for threads in (workloads.THREADS, 1):
            tracer = Tracer()
            layers.install(tracer)
            out = work / f"report-traced-{threads}.json"
            try:
                wall = calls.run(workloads.argv(args.workload, args.config, out, threads), out)
            finally:
                tracer.uninstall()
            traced[threads] = (wall, tracer)
            out.unlink(missing_ok=True)
        wall_n, tracer = traced[workloads.THREADS]
        metrics = layers.per_layer(tracer)
        metrics["verify.worker_speedup"] = traced[1][0] / wall_n
        metrics["trace_overhead_s"] = wall_n - result["walls"][0]
        metrics["peak_rss_mb"] = result["peak_rss_mib"]
        result["per_layer"] = metrics
        result["traced_walls"] = {t: w for t, (w, _) in traced.items()}
        result["unaccounted_s"] = {t: layers.unaccounted_s(tr, w) for t, (w, tr) in traced.items()}
        result["spans"] = len(tracer.spans)
    result.update(statuses=calls.statuses, digests=calls.digests, cpu_s=calls.cpu_s, steal_s=calls.steal_s)
    (work / "result.json").write_text(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
