import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"
ROUND_PAIRS = runpy.run_path(str(TOOL))["ROUND_PAIRS"]


def test_interleaved_passes_of_this_tree_against_itself():
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "glauber-mc", "--seed", "1",
         "--passes", "2", "--tiny"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "artifacts identical on both sides"
    for side, line in zip("AB", lines[1:3]):
        assert line.startswith(f"{side} {ROOT}: median ") and "over 2 passes" in line
        assert "1-sample" in line and "2-mc-tail" in line
    assert lines[3].startswith("median pair ratio B/A ") and lines[3].endswith(" of 2 pairs")
    assert lines[4].startswith("by round of fresh workers, B faster in ") and lines[4].endswith(" of 2")


def test_pairs_run_in_rounds_of_fresh_workers(tmp_path):
    # Each worker start is logged by a sitecustomize module on the workers' path.
    log = tmp_path / "starts.log"
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        "if '--worker' in sys.argv:\n"
        f"    open({str(log)!r}, 'a').write(sys.argv[sys.argv.index('--worker') + 1] + '\\n')\n"
    )
    fake = tmp_path / "other"
    for part in ("src", "perfbench"):
        (fake / part).parent.mkdir(exist_ok=True)
        (fake / part).symlink_to(ROOT / part)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(fake), "--workload", "glauber-mc", "--seed", "1",
         "--passes", str(2 * ROUND_PAIRS + 1), "--tiny"],
        capture_output=True, text=True, timeout=300, check=False, env=env,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "artifacts identical on both sides"
    assert f"over {2 * ROUND_PAIRS + 1} passes" in lines[1] and f"over {2 * ROUND_PAIRS + 1} passes" in lines[2]
    assert lines[3].endswith(f" of {2 * ROUND_PAIRS + 1} pairs")
    rounds = lines[4].removeprefix("by round of fresh workers, B faster in ").split(", ")
    assert [r.split(" of ")[1] for r in rounds] == [str(ROUND_PAIRS), str(ROUND_PAIRS), "1"]
    assert sum(int(r.split(" of ")[0]) for r in rounds) == int(lines[3].split("B faster in ")[1].split()[0])
    # Three rounds, each with a fresh worker per side.  A round's workers exit
    # before the next round's start, but within a round the two interpreters
    # may log in either order.
    starts = log.read_text().splitlines()
    assert [sorted(starts[i : i + 2]) for i in (0, 2, 4)] == [sorted([str(ROOT), str(fake)])] * 3


def test_a_failed_gate_stops_the_run(tmp_path):
    # A checkout whose CLI exits 1 on every command fails the first pass.
    fake = tmp_path / "checkout"
    (fake / "src" / "concentra").mkdir(parents=True)
    (fake / "src" / "concentra" / "__init__.py").write_text("")
    (fake / "src" / "concentra" / "cli.py").write_text("def build_model(doc):\n    pass\n\n\ndef main(argv):\n    return 1\n")
    (fake / "perfbench").symlink_to(ROOT / "perfbench")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(fake), "--workload", "glauber-mc", "--seed", "1",
         "--passes", "2", "--tiny"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 1
    assert "B: 1-sample failed: " in out.stdout and "median" not in out.stdout


def test_each_round_starts_the_other_side_first(capsys):
    # The tool's loop with workers that only log: starts, untimed passes and pairs in order.
    tool = runpy.run_path(str(TOOL))
    events = []

    class Logged(tool["Side"]):
        def start(self):
            events.append(f"start {self.name}")

        def run_pass(self):
            events.append(self.name)
            return [{"label": "x", "seconds": 2.0 if self.name == "A" else 1.0, "failure": None, "digests": {}}]

        def close(self):
            pass

    tool["main"].__globals__["Side"] = Logged
    assert tool["main"]([str(ROOT), str(ROOT), "--workload", "w", "--seed", "1", "--passes", "12"]) == 0
    pairs = lambda lo, hi: [name for p in range(lo, hi) for name in ("AB" if p % 2 == 0 else "BA")]  # noqa: E731
    assert events == (["start A", "start B", "A", "B"] + pairs(0, ROUND_PAIRS)
                      + ["start B", "start A", "B", "A"] + pairs(ROUND_PAIRS, 12))
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "median pair ratio B/A 0.5000; B faster in 12 of 12 pairs"
    assert out[4] == f"by round of fresh workers, B faster in {ROUND_PAIRS} of {ROUND_PAIRS}, 2 of 2"
