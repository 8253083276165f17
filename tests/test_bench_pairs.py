import importlib.util
from pathlib import Path

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


def record(pair, side, wall, rate, failed=0, returncode=0):
    metrics = {"wall_s": {"value": wall}, "rate": {"value": rate}}
    result = {"attempted": 2, "failed": failed, "metrics": metrics} if returncode == 0 else {}
    return {"pair": pair, "workload": "w", "side": side, "returncode": returncode, "result": result}


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


def test_a_run_that_exits_nonzero_drops_its_pair(bench_pairs):
    runs = [
        record(0, "parent", 2.0, 1.0), record(0, "change", 1.0, 1.0),
        record(1, "parent", 2.0, 1.0), record(1, "change", 0.0, 0.0, returncode=1),
    ]
    row = bench_pairs.summarise(runs, SPEC)["w"]
    assert row["runs_exited_nonzero"] == {"parent": 0, "change": 1}
    assert row["metrics"]["wall_s"]["pairs"] == 1


def test_machine_block_records_the_calibration(bench_pairs):
    calibration = bench_pairs.machine()["calibration"]
    assert set(calibration) == {"python_loop_s", "matmul_256_s"}
    assert all(0.0 < seconds < 10.0 for seconds in calibration.values())
