"""Interleaved in-process passes of one benchmark workload on two checkouts.

    python3 tools/interleave.py A B --workload W --seed S --passes N [--tiny]

One worker process per checkout imports that checkout's own
`perfbench/harness.py` and `perfbench/workloads.py`, builds the workload from
the seed, imports the program once and keeps it loaded.  The N pairs of
passes run in rounds of at most ROUND_PAIRS, each round with a fresh worker
per side: A's worker starts first in even rounds and B's in odd ones.  In
each round each side runs one untimed pass; then the two sides run the
round's pairs, alternating, A first in even pairs and B first in odd ones.
A command that fails its gate stops the run (exit status 1).  Printed:
whether the two sides' untimed-pass artifacts are byte-identical in every
round, each side's median pass time and per-command medians, the median of
the pair ratios B/A and the pairs B won over all rounds, and the pairs B won
in each round.

Separate benchmark runs of the same tree can differ by more than the change
being measured; passes that alternate between live workers share the
machine's slow and fast phases.  Two workers of the same sources can also
run at speeds that differ by several percent for their whole lifetime, which
fresh workers every round expose: rounds that disagree on the winner mean
the pooled count is not a gain.  Standard library only; the workers import
whatever their checkout's harness imports.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def worker(root: str, workload_name: str, seed: int, tiny: bool, keep: str | None = None) -> int:
    """Run a pass of the workload for each line read from stdin; answer each
    with one JSON line of its outcomes.  Everything else goes to stderr.
    With `keep`, the configs and the last pass (`<keep>/pass/<label>/`) are
    written there and left behind; otherwise in a temporary directory."""
    protocol, sys.stdout = sys.stdout, sys.stderr
    checkout = Path(root).resolve()
    sys.path.insert(0, str(checkout / "perfbench"))
    import harness
    import workloads

    harness.pin_environment()
    workload = workloads.WORKLOADS[workload_name](seed, tiny=tiny)
    scratch = tempfile.TemporaryDirectory(prefix="interleave-") if keep is None else contextlib.nullcontext(keep)
    with scratch as tmp:
        work_dir = Path(tmp)
        harness.write_workload(workload, work_dir)
        _, cli = harness.timed_setup(checkout, workload.model_docs())
        for _ in sys.stdin:
            outcomes = harness.run_pass(cli, workload, work_dir, work_dir / "pass")
            protocol.write(json.dumps([
                {"label": o.label, "seconds": o.seconds, "failure": o.failure, "digests": o.digests}
                for o in outcomes
            ]) + "\n")
            protocol.flush()
    return 0


# Most pairs of passes one pair of workers runs before both are replaced.
ROUND_PAIRS = 10


class Side:
    """One checkout's worker process; see `worker` for `keep`."""

    def __init__(self, name: str, root: Path, workload: str, seed: int, tiny: bool, keep: Path | None = None):
        self.name, self.root = name, root
        self.command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root), workload,
                        str(seed)] + (["--tiny"] if tiny else []) + ([f"--keep={keep}"] if keep is not None else [])
        self.process: subprocess.Popen | None = None
        self.passes: list[float] = []
        self.commands: dict[str, list[float]] = {}

    def start(self) -> None:
        """Start a fresh worker process, after closing any earlier one."""
        self.close()
        self.process = subprocess.Popen(self.command, cwd=self.root, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def run_pass(self) -> list[dict]:
        self.process.stdin.write("pass\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker of {self.name} ({self.root}) exited with {self.process.wait()}")
        return json.loads(line)

    def record(self, outcomes: list[dict]) -> None:
        self.passes.append(sum(o["seconds"] for o in outcomes))
        for o in outcomes:
            self.commands.setdefault(o["label"], []).append(o["seconds"])

    def close(self) -> None:
        if self.process is not None:
            self.process.stdin.close()
            self.process.wait()
            self.process = None


def failures(side: Side, outcomes: list[dict]) -> list[str]:
    return [f"{side.name}: {o['label']} failed: {o['failure']}" for o in outcomes if o["failure"] is not None]


def summary(a: Side, b: Side) -> list[str]:
    lines = []
    for side in (a, b):
        commands = "  ".join(f"{label} {statistics.median(s):.4f}" for label, s in side.commands.items())
        lines.append(f"{side.name} {side.root}: median {statistics.median(side.passes):.4f} s"
                     f" over {len(side.passes)} passes; per command: {commands}")
    ratios = [tb / ta for ta, tb in zip(a.passes, b.passes)]
    won = [tb < ta for ta, tb in zip(a.passes, b.passes)]
    lines.append(f"median pair ratio B/A {statistics.median(ratios):.4f};"
                 f" B faster in {sum(won)} of {len(ratios)} pairs")
    rounds = [won[lo : lo + ROUND_PAIRS] for lo in range(0, len(won), ROUND_PAIRS)]
    lines.append("by round of fresh workers, B faster in " + ", ".join(f"{sum(r)} of {len(r)}" for r in rounds))
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        root, workload_name, seed = argv[1:4]
        keep = next((a.split("=", 1)[1] for a in argv[4:] if a.startswith("--keep=")), None)
        return worker(root, workload_name, int(seed), "--tiny" in argv[4:], keep)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout (holds perfbench/ and src/)")
    parser.add_argument("b", type=Path, help="second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True, help="pairs of timed passes")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny sizes")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sides = [Side(name, root.resolve(), args.workload, args.seed, args.tiny)
             for name, root in (("A", args.a), ("B", args.b))]
    failed, identical = [], True
    try:
        for lo in range(0, args.passes, ROUND_PAIRS):
            starting = sides if lo // ROUND_PAIRS % 2 == 0 else sides[::-1]
            for side in starting:
                side.start()
            first = {side.name: side.run_pass() for side in starting}  # untimed
            failed = failures(sides[0], first["A"]) + failures(sides[1], first["B"])
            digests = [{o["label"]: o["digests"] for o in first[name]} for name in "AB"]
            identical = identical and digests[0] == digests[1]
            for p in range(lo, min(lo + ROUND_PAIRS, args.passes)):
                if failed:
                    break
                for side in sides if p % 2 == 0 else sides[::-1]:
                    outcomes = side.run_pass()
                    failed = failures(side, outcomes)
                    if failed:
                        break
                    side.record(outcomes)
            if failed:
                break
    finally:
        for side in sides:
            side.close()
    if failed:
        print("\n".join(failed))
        return 1
    print("artifacts identical on both sides" if identical else "artifacts DIFFER between sides")
    print("\n".join(summary(*sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
