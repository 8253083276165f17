"""Fresh-interpreter helper of run.py; prints one JSON object.

    python3 perfbench/child.py setup WORK_DIR ROOT   set-up time only
    python3 perfbench/child.py rss WORK_DIR ROOT     set-up time, one pass, peak RSS

WORK_DIR holds the configs and manifest written by run.py; ROOT is the
checkout whose `src/concentra` is measured.
"""
from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

import harness


def main(argv: list[str]) -> int:
    mode, work_dir, root = argv[0], Path(argv[1]), Path(argv[2])
    if mode not in ("setup", "rss"):
        raise SystemExit(f"unknown mode {mode!r}")
    harness.pin_environment()
    workload = harness.read_workload(work_dir)
    setup_s, cli = harness.timed_setup(root, workload.model_docs())
    doc: dict = {"setup_s": setup_s}
    if mode == "rss":
        outcomes = harness.run_pass(cli, workload, work_dir, work_dir / "rss")
        doc["outcomes"] = [asdict(o) for o in outcomes]
        # ru_maxrss is in KiB on Linux.
        doc["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
