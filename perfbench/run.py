"""Benchmark of the concentra CLI: one client, a closed loop of commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout holding `src/concentra` and
`BENCHMARK.json`.  The seed generates every config (see workloads.py); the
program sees only the JSON files.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:

  wall_s        median wall time of one pass over the workload's commands,
                in process after import, over passes repeated for S seconds;
  setup_s       median over three fresh interpreters (this one, and two
                children) of `import concentra.cli` plus `build_model` of the
                workload's models;
  peak_rss_mib  ru_maxrss of a child that imports and runs one pass.

With --trace 1 they are the per-layer ones: untraced and traced passes
alternate for S seconds and each per-layer figure is the median over traced
passes (self time `.s`, `.calls`, counts read from return values; `out_mib`
is computed from array shapes), `trace.overhead_s` is the traced minus the
untraced median wall time, and a last pass under tracemalloc gives the
`.peak_mib` figures.

A command fails when it exits non-zero, when its artifacts show a violated
check (see workloads.gate), or when its artifacts differ byte-wise from the
first pass of this seed; `failed / attempted` is the share of failed commands.
A record of the run (context, samples, artifact sha256, failures, spans) is
written under perfbench/_runs/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import harness
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


class Tally:
    """Attempted and failed commands; the first pass of a seed fixes the digests."""

    def __init__(self):
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, outcomes: list[harness.Outcome], where: str) -> None:
        for o in outcomes:
            self.attempted += 1
            failure = o.failure
            reference = self.reference.setdefault(o.label, o.digests)
            if failure is None and o.digests != reference:
                failure = "artifacts differ from the first run of this seed"
            if failure is not None:
                self.failures.append({"where": where, "command": o.label, "failure": failure})


def run_child(mode: str, work_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(work_dir), str(ROOT)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_pass(cli, workload, work_dir: Path, tally: Tally, where: str) -> float:
    outcomes = harness.run_pass(cli, workload, work_dir, work_dir / "pass")
    tally.add(outcomes, where)
    return sum(o.seconds for o in outcomes)


def end_to_end(workload, work_dir: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup_here, cli = harness.timed_setup(ROOT, workload.model_docs())
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        walls.append(one_pass(cli, workload, work_dir, tally, f"pass {len(walls)}"))
    rss = run_child("rss", work_dir)
    tally.add([harness.Outcome(**o) for o in rss["outcomes"]], "peak-rss child")
    setup = [setup_here, rss["setup_s"], run_child("setup", work_dir)["setup_s"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss["peak_rss_mib"],
    }
    return metrics, {"wall_s": walls, "setup_s": setup}


def per_layer(workload, work_dir: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    _, cli = harness.timed_setup(ROOT, workload.model_docs())
    tracer = tracing.SpanTracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_pass(cli, workload, work_dir, tally, f"untraced pass {len(untraced)}"))
        with tracer.active(run=len(traced)):
            traced.append(one_pass(cli, workload, work_dir, tally, f"traced pass {len(traced)}"))
    summaries = [tracer.summary(run) for run in range(len(traced))]
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    peaks = tracing.PeakTracker()
    with peaks.active():
        one_pass(cli, workload, work_dir, tally, "tracemalloc pass")
    metrics.update(peaks.peaks)
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "spans": tracer.spans}


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    src = harness.source_dir(ROOT)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(workload, seed: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "sizes": workload.sizes,
        "commands": [
            "concentra " + " ".join(c.argv(Path(f"{c.label}.json") if c.config else None, Path("OUT")))
            for c in workload.commands
        ],
        "loop": "closed, one client, commands in sequence",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "blas_threads": harness.BLAS_THREADS,
            "platform": platform.platform(),
        },
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "computed": ["diffops.h_tensor_field.out_mib", "lsi.glauber_quadratic_form.out_mib"],
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(workload_name: str, seed: int, seconds: float, trace: int, tiny: bool = False,
        runs_dir: Path = HERE / "_runs") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    harness.pin_environment()
    harness.source_dir(ROOT)
    declared = declared_metrics(trace)
    workload = workloads.WORKLOADS[workload_name](seed, tiny=tiny)
    work_dir = HERE / "_work" / f"{workload_name}-seed{seed}-{os.getpid()}"
    harness.write_workload(workload, work_dir)
    tally = Tally()
    try:
        measure = per_layer if trace else end_to_end
        values, samples = measure(workload, work_dir, seconds, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{trace}"
    spans = samples.pop("spans", None)
    record = {
        "context": run_context(workload, seed, trace),
        "result": result,
        "ops_failed_frac": len(tally.failures) / tally.attempted,
        "all_values": values,
        "samples": samples,
        "artifact_sha256": tally.reference,
        "failures": tally.failures,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        with open(runs_dir / f"{stem}-spans.jsonl", "w") as handle:
            handle.write(json.dumps("id parent name start end run counts".split()) + "\n")
            for row in spans:
                handle.write(json.dumps(row) + "\n")
    for label, digests in tally.reference.items():
        for name, digest in digests.items():
            print(f"sha256 {workload_name}/{label}/{name} {digest}")
    for failure in tally.failures:
        print(f"FAILED {failure['where']}: {failure['command']}: {failure['failure']}")
    print(f"{workload_name} seed={seed} trace={trace} ops_failed_frac={len(tally.failures)}/{tally.attempted}"
          f" record={runs_dir / (stem + '.json')}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
