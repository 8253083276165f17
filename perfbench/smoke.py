"""Self-check of the benchmark at tiny sizes, in about a minute.

    python3 perfbench/smoke.py

1. Every workload, with tracing off and on, emits exactly the metrics that
   BENCHMARK.json declares, with their units, and no command fails.
2. Tampered artifacts raise the failed share: a changed byte (artifacts no
   longer repeat), dominated=false, all_passed=false and a non-finite LSI ratio.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import harness
import run
import workloads

SCRATCH = run.HERE / "_work" / "smoke"


def check_metrics() -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run(name, seed=0, seconds=0.2, trace=trace, tiny=True,
                             runs_dir=SCRATCH / "runs")
            declared = {m["name"]: m["unit"] for m in run.declared_metrics(trace)}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared, (name, trace, set(emitted) ^ set(declared))
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), key
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok metrics {name} trace={trace} attempted={result['attempted']}")


def regate(command: workloads.Command, out_dir) -> harness.Outcome:
    return harness.Outcome(command.label, 0.0, workloads.gate(command, 0, out_dir),
                           workloads.artifact_digests(command, out_dir))


def check_tampering() -> None:
    workload = workloads.exact_tail(0, tiny=True)
    lsi = workloads.suite_lsi(0, tiny=True)
    workload.commands += lsi.commands
    work_dir = SCRATCH / "tamper"
    harness.write_workload(workload, work_dir)
    _, cli = harness.timed_setup(run.ROOT, workload.model_docs())
    tally = run.Tally()
    outcomes = harness.run_pass(cli, workload, work_dir, work_dir / "pass")
    tally.add(outcomes, "first pass")
    assert not tally.failures, tally.failures
    by_label = {c.label: c for c in workload.commands}

    def tamper(label: str, artifact: str, edit) -> None:
        path = work_dir / "pass" / label / artifact
        path.write_text(edit(path.read_text()))
        before = len(tally.failures)
        tally.add([regate(by_label[label], path.parent)], f"tampered {artifact}")
        assert len(tally.failures) == before + 1, f"tampering {label}/{artifact} went unnoticed"
        print(f"ok tampered {label}/{artifact}: {tally.failures[-1]['failure']}")

    tamper("1-rademacher-quadform", "tail_curve.csv", lambda text: text + "\n")
    tamper("2-ising-quadform", "domination.json",
           lambda text: json.dumps({**json.loads(text), "dominated": False}))
    tamper("2-lsi", "lsi_report.json",
           lambda text: json.dumps({**json.loads(text), "best_ratio": float("nan")}))
    suite = workloads.Command("1-suite", "suite", None, ("suite_report.json",))
    suite_dir = work_dir / "pass" / "1-suite"
    suite_dir.mkdir(parents=True)
    (suite_dir / "suite_report.json").write_text(json.dumps({"all_passed": False, "checks": []}))
    assert workloads.gate(suite, 0, suite_dir) == "suite_report.json has all_passed=false"
    assert tally.attempted == len(workload.commands) + 3
    print(f"ok failed share {len(tally.failures)}/{tally.attempted}")


def check_without_sources() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exact-tail", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok without sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_metrics()
        check_tampering()
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
