"""Record the default-seed reference reports that workloads.check compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each workload's campaign once at the default seed through
`speclaw.cli.main` and writes perfbench/reference.json (each report without
its input config).  Re-record only for a documented change of the report
format; a solver change must still match the recorded numbers to 1e-8.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from speclaw import cli

    reference = {}
    Path(".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_work") as tmp:
        for name in workloads.WORKLOADS:
            config, report = Path(tmp, "config.json"), Path(tmp, "report.json")
            cfg = workloads.build_config(name, workloads.DEFAULT_SEED)
            config.write_text(json.dumps(cfg.to_dict(), sort_keys=True))
            if cli.main(workloads.argv(name, config, report)) != 0:
                return 1
            reference[name] = workloads.reference_view(json.loads(report.read_text()))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
