import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


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
