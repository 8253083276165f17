import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def record(pair, side, wall, rate, failed=0, returncode=0, artifacts=None):
    metrics = {"wall_s": {"value": wall}, "rate": {"value": rate}}
    result = {"attempted": 2, "failed": failed, "metrics": metrics} if returncode == 0 else {}
    return {"pair": pair, "seed": pair + 1, "workload": "w", "side": side, "returncode": returncode,
            "result": result, "artifacts": artifacts or {}}


def test_summary_counts_wins_ties_and_quartiles(bench_pairs):
    runs = [
        record(0, "parent", 2.0, 1.0), record(0, "change", 1.0, 1.0),
        record(1, "change", 2.0, 3.0), record(1, "parent", 2.0, 2.0),
        record(2, "parent", 3.0, 1.0, failed=1), record(2, "change", 1.5, 0.5),
        record(3, "parent", 4.0, 1.0), record(3, "change", 5.0, 2.0),
    ]
    row = bench_pairs.summarise(runs, SPEC)["w"]
    assert row["attempted"] == {"parent": 8, "change": 8}
    assert row["failed"] == {"parent": 1, "change": 0}
    wall = row["metrics"]["wall_s"]
    assert (wall["pairs"], wall["change_wins"], wall["ties"]) == (4, 2, 1)
    assert wall["parent"]["runs"] == [2.0, 2.0, 3.0, 4.0]
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (2.0, 2.5, 3.25)
    assert wall["median_ratio"] == pytest.approx(1.75 / 2.5)
    rate = row["metrics"]["rate"]  # higher is better
    assert (rate["change_wins"], rate["ties"]) == (2, 1)


def test_summary_gives_the_quartiles_of_the_per_pair_ratios(bench_pairs):
    runs = [
        record(0, "parent", 2.0, 1.0), record(0, "change", 1.0, 1.0),
        record(1, "change", 2.0, 3.0), record(1, "parent", 2.0, 0.0),
        record(2, "parent", 3.0, 2.0), record(2, "change", 1.5, 0.5),
        record(3, "parent", 4.0, 1.0), record(3, "change", 5.0, 2.0),
    ]
    metrics = bench_pairs.summarise(runs, SPEC)["w"]["metrics"]
    wall = metrics["wall_s"]["pair_ratio"]
    assert wall["runs"] == [0.5, 1.0, 0.5, 1.25]
    assert (wall["q1"], wall["median"], wall["q3"]) == (0.5, 0.75, 1.0625)
    # a pair whose parent reads 0 has no ratio
    assert metrics["rate"]["pair_ratio"]["runs"] == [1.0, 0.25, 2.0]


def test_a_run_that_exits_nonzero_drops_its_pair(bench_pairs):
    runs = [
        record(0, "parent", 2.0, 1.0), record(0, "change", 1.0, 1.0),
        record(1, "parent", 2.0, 1.0), record(1, "change", 0.0, 0.0, returncode=1),
    ]
    row = bench_pairs.summarise(runs, SPEC)["w"]
    assert row["runs_exited_nonzero"] == {"parent": 0, "change": 1}
    assert row["metrics"]["wall_s"]["pairs"] == 1


def test_artifact_digests_are_read_from_the_sha256_lines(bench_pairs):
    lines = [
        "sha256 w/sample/samples.bin 00ff",
        "sha256 w/sample/tail.json abcd",
        "w seed=1 trace=0 ops_failed_frac=0/4 record=perfbench/_runs/w-seed1-trace0.json",
        '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}',
    ]
    assert bench_pairs.artifact_digests(lines) == {"sample/samples.bin": "00ff", "sample/tail.json": "abcd"}


def test_summary_compares_artifacts_seed_by_seed(bench_pairs):
    same, moved = {"a/x.bin": "11", "a/y.csv": "22"}, {"a/x.bin": "11", "a/y.csv": "23"}
    runs = [
        record(0, "parent", 2.0, 1.0, artifacts=same), record(0, "change", 1.0, 1.0, artifacts=same),
        record(1, "change", 2.0, 3.0, artifacts=moved), record(1, "parent", 2.0, 2.0, artifacts=same),
        record(2, "parent", 2.0, 1.0, artifacts=same), record(2, "change", 1.0, 1.0, artifacts={"a/x.bin": "11"}),
        record(3, "parent", 2.0, 1.0, artifacts=same), record(3, "change", 0.0, 0.0, returncode=1),
    ]
    agrees = bench_pairs.summarise(runs, SPEC)["w"]["artifact_sha256_agrees"]
    assert agrees == {
        "1": {"a/x.bin": True, "a/y.csv": True},
        "2": {"a/x.bin": True, "a/y.csv": False},
        "3": {"a/x.bin": True, "a/y.csv": False},  # written by one side only
    }


def test_machine_block_records_the_calibration(bench_pairs):
    calibration = bench_pairs.machine()["calibration"]
    assert set(calibration) == {"python_loop_s", "matmul_256_s"}
    assert all(0.0 < seconds < 10.0 for seconds in calibration.values())


def test_each_tree_is_compiled_before_its_first_timed_run(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd=None, **kwargs):
        calls.append((list(cmd), cwd))
        if cmd[:2] == ["git", "rev-parse"]:
            return SimpleNamespace(returncode=0, stdout=cmd[2] + "\n")
        if cmd[1:2] == ["-c"]:  # the calibration
            return SimpleNamespace(returncode=0, stdout='{"python_loop_s": 0.1, "matmul_256_s": 0.1}')
        return SimpleNamespace(returncode=0, stdout='{"metrics": {}}\n')

    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 1}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", lambda prefix: str(work))
    assert bench_pairs.main(["--parent", "p0", "--change", "c0", "--label", "t"]) == 0

    def first(pred):
        return next(i for i, call in enumerate(calls) if pred(*call))

    for side, rev in zip(bench_pairs.SIDES, ("p0", "c0")):
        tree = work / side
        exported = first(lambda cmd, cwd: cmd[:2] == ["git", "archive"] and cmd[-1] == rev)
        compiled = first(lambda cmd, cwd: cwd == tree and cmd[1:] == ["-m", "compileall", "-q", "src", "perfbench"])
        timed = first(lambda cmd, cwd: cwd == tree and "perfbench/run.py" in cmd)
        assert exported < compiled < timed
    assert sum(cmd[1:3] == ["-m", "compileall"] for cmd, _ in calls) == 2


def test_cold_suite_alternates_the_sides_and_gives_each_sides_median(bench_pairs, monkeypatch, tmp_path):
    # A fake runner: each run takes the next of its side's durations on a fake
    # clock, and writes a report; the change's third run fails, its fifth
    # writes another report.
    import sys

    durations = {"parent": [1.0, 1.2, 0.9, 1.1, 1.0], "change": [0.8, 0.7, 5.0, 0.9, 0.6]}
    now, calls = [0.0], []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        side = cwd.name
        run = sum(s == side for s, *_ in calls)
        calls.append((side, cmd, env))
        now[0] += durations[side][run]
        out = Path(cmd[cmd.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "suite_report.json").write_text("moved" if (side, run) == ("change", 4) else "same")
        return SimpleNamespace(returncode=1 if (side, run) == ("change", 2) else 0, stdout="all passed\n")

    monkeypatch.setenv("CONCENTRA_JOBS", "4")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    cold = bench_pairs.cold_suite(trees, tmp_path / "cold")

    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    for side, cmd, env in calls:
        assert cmd[:6] == [sys.executable, "-m", "concentra", "suite", "--seed", "0"]
        assert env["PYTHONPATH"] == str(trees[side] / "src") and env["OPENBLAS_NUM_THREADS"] == "1"
        assert "CONCENTRA_JOBS" not in env
    parent, change = cold["parent"], cold["change"]
    assert parent["runs"] == pytest.approx(durations["parent"]) and parent["median"] == pytest.approx(1.0)
    assert (parent["exited_nonzero"], change["exited_nonzero"]) == (0, 1)
    assert change["runs"] == pytest.approx([0.8, 0.7, 0.9, 0.6]) and change["median"] == pytest.approx(0.75)
    assert len(parent["suite_report_sha256"]) == 1 and len(change["suite_report_sha256"]) == 2
    assert parent["stdout_sha256"] == change["stdout_sha256"]
