"""Runs one pass of a workload in process through `concentra.cli.main` and
applies the correctness gate to every command.

Shared by the timing run (`run.py`) and the fresh-interpreter children
(`child.py`), so both execute exactly the same code path.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import Command, Workload, artifact_digests, gate

# numpy/BLAS threads per process.  One thread keeps the closed loop on a
# single core, so a run does not contend with itself on a small machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout does not hold the program's sources."""


def pin_environment() -> None:
    """Fix the thread count and the suite's job count before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CONCENTRA_JOBS", None)


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "concentra" / "cli.py").is_file():
        raise SetupError(f"no program sources at {src / 'concentra'}")
    return src


def timed_setup(root: Path, model_docs: list[dict]):
    """Import the CLI from the checkout's sources and build every model.

    Returns (seconds, cli module).  Only meaningful as a set-up time in a
    fresh interpreter, where nothing of concentra, numpy or scipy is loaded.
    """
    src = str(source_dir(root))
    start = time.perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    import concentra.cli as cli

    for doc in model_docs:
        cli.build_model(doc)
    return time.perf_counter() - start, cli


@dataclass
class Outcome:
    label: str
    seconds: float
    failure: str | None
    digests: dict[str, str]


def run_command(cli, command: Command, work_dir: Path, out_dir: Path) -> Outcome:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    config_path = work_dir / f"{command.label}.json" if command.config is not None else None
    argv = command.argv(config_path, out_dir)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = cli.main(argv)
    except (Exception, SystemExit):
        # A traceback or an argparse exit is a failed command, not a crashed benchmark.
        exit_code = -1
        sink.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    failure = gate(command, exit_code, out_dir)
    if failure is not None:
        print(f"[perfbench] {command.label} failed: {failure}\n{sink.getvalue()}", file=sys.stderr)
    return Outcome(command.label, seconds, failure, artifact_digests(command, out_dir))


def run_pass(cli, workload: Workload, work_dir: Path, pass_dir: Path) -> list[Outcome]:
    """Every command of the workload, one after another (a closed loop)."""
    return [run_command(cli, c, work_dir, pass_dir / c.label) for c in workload.commands]


def write_workload(workload: Workload, work_dir: Path) -> None:
    """Write each command's config and a manifest a child process can reload."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for command in workload.commands:
        if command.config is not None:
            (work_dir / f"{command.label}.json").write_text(json.dumps(command.config))
    (work_dir / "workload.json").write_text(json.dumps(asdict(workload)))


def read_workload(work_dir: Path) -> Workload:
    doc = json.loads((work_dir / "workload.json").read_text())
    commands = [
        Command(c["label"], c["verb"], c["config"], tuple(c["artifacts"]), tuple(c["extra"]))
        for c in doc["commands"]
    ]
    return Workload(doc["name"], doc["why"], commands, doc["sizes"])
