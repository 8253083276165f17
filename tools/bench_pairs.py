"""Alternated parent/change runs of the benchmark, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --label NAME

Both revisions are exported with `git archive` into a temporary directory,
and each tree is byte-compiled (`python -m compileall -q src perfbench`, run
inside it) before its first timed run, so that neither side's `setup_s`
includes compiling the sources.
It runs PAIRS pairs, and pair p uses seed FIRST_SEED + p on both sides.  For
each workload of BENCHMARK.json it runs `perfbench/run.py --trace 0` for the
run length that BENCHMARK.json fixes, once per side, with the parent first in
even pairs and the change first in odd ones.  Each run's result line is appended to
`runs.jsonl` in that directory as it finishes, and the directory is kept, so
an interrupted session leaves its runs behind.  The summary goes to
BENCH_<label>.json at the repository root.  For every workload and end-to-end
metric the summary gives each side's runs, median and quartiles, the change's
wins over its pair partner (ties count for neither), the ratio of the two
medians, and `pair_ratio`: each pair's change/parent ratio (pairs whose parent
reads 0 left out) with their median and quartiles, so that a noisy pair spread
shows in the record.
It also records, for every workload and seed, whether each artifact's sha256
(the `sha256 <workload>/<label>/<name> <digest>` lines of run.py) is the same
on both sides; an artifact that only one side wrote counts as differing.
Before the pairs, each side also runs COLD_RUNS fresh
`python -m concentra suite --seed 0` processes, alternated with the other
side's, and `cold_suite` records their wall times with interpreter start
included, their median, and the sha256 of each run's suite_report.json and
stdout: the tier-1 command in a cold process, beside the in-process passes.
The machine block also holds a short calibration, timed before the runs: a
Python loop and a 256x256 matmul, to compare machines; it is never gated.
Standard library only (the calibration imports numpy in a child process);
run it from a quiet machine, one run at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs that can back a gain claim
FIRST_SEED = 1
COLD_RUNS = 5  # cold `concentra suite --seed 0` processes per side
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def export(rev: str, dest: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--prefix", f"{dest.name}/", sha], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest.parent)], input=archive.stdout, check=True)
    return sha


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True,
                   capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"returncode": proc.returncode, "result": result, "artifacts": artifact_digests(lines)}


def cold_suite(trees: dict[str, Path], out: Path) -> dict:
    """Per side, COLD_RUNS fresh `python -m concentra suite --seed 0`
    processes on that tree's sources with one BLAS thread, the sides
    alternated (the parent first in even rounds): each run's wall time from
    start to exit, the median over the runs that exited 0, how many did not,
    and the distinct sha256 of suite_report.json and of stdout over the runs."""
    env = {k: v for k, v in os.environ.items() if k != "CONCENTRA_JOBS"} | BLAS_ENV
    sides = {side: {"runs": [], "exited_nonzero": 0, "suite_report_sha256": set(), "stdout_sha256": set()}
             for side in SIDES}
    for round_ in range(COLD_RUNS):
        for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
            out_dir = out / side
            report = out_dir / "suite_report.json"
            report.unlink(missing_ok=True)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "concentra", "suite", "--seed", "0", "--out", str(out_dir)],
                cwd=trees[side], env=env | {"PYTHONPATH": str(trees[side] / "src")},
                capture_output=True, text=True, check=False,
            )
            seconds = time.perf_counter() - start
            record = sides[side]
            if proc.returncode != 0:
                record["exited_nonzero"] += 1
                continue
            record["runs"].append(seconds)
            record["stdout_sha256"].add(hashlib.sha256(proc.stdout.encode()).hexdigest())
            record["suite_report_sha256"].add(hashlib.sha256(report.read_bytes()).hexdigest()
                                              if report.exists() else None)
    for record in sides.values():
        record["median"] = statistics.median(record["runs"]) if record["runs"] else None
        for key in ("suite_report_sha256", "stdout_sha256"):
            record[key] = sorted(record[key], key=str)
    return sides


def artifact_digests(lines: list[str]) -> dict[str, str]:
    """{"<label>/<name>": digest} from run.py's `sha256 <workload>/<label>/<name> <digest>` lines."""
    digests = {}
    for line in lines:
        words = line.split()
        if len(words) == 3 and words[0] == "sha256":
            digests[words[1].split("/", 1)[1]] = words[2]
    return digests


def artifacts_agree(mine: list[dict]) -> dict[str, dict[str, bool]]:
    """For each seed both sides ran to completion, whether each artifact's
    digest is the same on both sides."""
    by = {(r["seed"], r["side"]): r.get("artifacts", {}) for r in mine if r["returncode"] == 0}
    out = {}
    for seed in sorted({seed for seed, _ in by}):
        if all((seed, s) in by for s in SIDES):
            parent, change = (by[seed, s] for s in SIDES)
            out[str(seed)] = {name: parent.get(name) == change.get(name) for name in sorted({*parent, *change})}
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r for r in mine}
        row = {
            "runs_exited_nonzero": {s: sum(r["returncode"] != 0 for r in mine if r["side"] == s) for s in SIDES},
            "attempted": {s: sum(by[p, s]["result"].get("attempted", 0) for p in pairs if (p, s) in by) for s in SIDES},
            "failed": {s: sum(by[p, s]["result"].get("failed", 0) for p in pairs if (p, s) in by) for s in SIDES},
            "artifact_sha256_agrees": artifacts_agree(mine),
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            complete = [p for p in pairs
                        if all((p, s) in by and name in by[p, s]["result"].get("metrics", {}) for s in SIDES)]
            if not complete:
                continue
            value = {s: [by[p, s]["result"]["metrics"][name]["value"] for p in complete] for s in SIDES}
            wins = sum((c < q) if lower else (c > q) for q, c in zip(value["parent"], value["change"]))
            ties = sum(c == q for q, c in zip(value["parent"], value["change"]))
            parent, change = spread(value["parent"]), spread(value["change"])
            ratios = [c / q for q, c in zip(value["parent"], value["change"]) if q]
            row["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": parent, "change": change, "pairs": len(complete), "change_wins": wins, "ties": ties,
                "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
                "pair_ratio": spread(ratios) if ratios else None,
            }
        out[workload] = row
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


# A fixed workload for a fresh interpreter: a pure-Python loop and a 256x256
# matmul, each timed as the best of REPEATS.
CALIBRATION = """
import json, time
import numpy as np
REPEATS = 20
def best(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)
a = np.random.default_rng(0).standard_normal((256, 256))
print(json.dumps({"python_loop_s": best(lambda: sum(i * i for i in range(100_000))),
                  "matmul_256_s": best(lambda: a @ a)}))
"""


def calibration() -> dict:
    """Seconds of CALIBRATION's loop and matmul, with one BLAS thread as in the
    benchmark.  Recorded so runs on different machines can be set side by side;
    nothing is gated on it."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], env=dict(os.environ) | BLAS_ENV,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def machine() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "calibration": calibration(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    shas = {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        shas[side] = export(rev, work / side)
        compile_tree(work / side)
    host = machine()
    cold = cold_suite({side: work / side for side in SIDES}, work / "cold")
    log = work / "runs.jsonl"
    print(f"runs go to {log}", flush=True)
    runs = []
    started = time.time()
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                record = {"pair": pair, "seed": seed, "workload": workload, "side": side, "first": order[0]}
                record.update(run_once(work / side, workload, seed, seconds))
                runs.append(record)
                with log.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
    doc = {
        "label": args.label,
        "revisions": {s: {"rev": rev, "sha": shas[s]} for s, rev in zip(SIDES, (args.parent, args.change))},
        "method": "perfbench/run.py --trace 0, alternated pairs; pair p runs seeds[p] on both sides, "
                  "the parent first in even pairs",
        "seeds": [FIRST_SEED + p for p in range(PAIRS)],
        "run_seconds": seconds,
        "wall_clock_s": round(time.time() - started, 1),
        "machine": host,
        "cold_suite": {"command": "python -m concentra suite --seed 0", "runs_per_side": COLD_RUNS, **cold},
        "workloads": summarise(runs, spec),
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote BENCH_{args.label}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
