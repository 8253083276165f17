import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_diff.py"
LABELS = ("1-rademacher-quadform", "2-ising-quadform", "3-ustat")


def run(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--workload", "exact-tail", "--seeds", "1-2", "--tiny"],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_this_tree_against_itself_differs_in_no_field():
    out = run(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["no field differs"]


def test_a_perturbed_column_is_named(tmp_path):
    # A checkout whose CLI writes every raw bound of the tail curve 1.5 times too large.
    fake = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", fake / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (fake / "perfbench").symlink_to(ROOT / "perfbench")
    cli = fake / "src" / "concentra" / "cli.py"
    source = cli.read_text()
    row = "bound.evaluate_raw(float(t)), bound.evaluate(float(t))]\n        for t, p, u in"
    assert source.count(row) == 1
    cli.write_text(source.replace(row, row.replace("evaluate_raw(float(t))", "evaluate_raw(float(t)) * 1.5")))
    out = run(ROOT, fake)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [f"{label}/tail_curve.csv:raw_bound" for label in LABELS]
    for line in lines:
        _, count, differ, _, _, change, _, seed = line.split()
        assert int(count) == 2 * 21 and differ == "differ" and float(change) == 0.5 and seed in ("1)", "2)")
