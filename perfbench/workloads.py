"""The benchmark's workloads: CLI configs generated from a seed, the commands
that consume them, and the correctness gate on each command's artifacts.

Only the standard library is used here; the program under test sees nothing
but the generated JSON configs.  Every workload is a closed loop of CLI
commands run one after another.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
from pathlib import Path


@dataclass
class Command:
    """One CLI invocation: `concentra <verb> [--config <label>.json] --out DIR <extra>`."""

    label: str
    verb: str
    config: dict | None
    artifacts: tuple[str, ...]
    extra: tuple[str, ...] = ()

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        args = [self.verb]
        if config_path is not None:
            args += ["--config", str(config_path)]
        return args + ["--out", str(out_dir), *self.extra]


@dataclass
class Workload:
    name: str
    why: str
    commands: list[Command]
    sizes: dict = field(default_factory=dict)

    def model_docs(self) -> list[dict]:
        return [c.config["model"] for c in self.commands if c.config and "model" in c.config]


# ---------------------------------------------------------------------------
# Random inputs (stdlib only, reproducible from the seed)
# ---------------------------------------------------------------------------


def _symmetric_matrix(rng: random.Random, n: int) -> list[list[float]]:
    A = [[0.0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        A[i][j] = A[j][i] = rng.uniform(-1.0, 1.0)
    return A


def _symmetric_tensor3(rng: random.Random, n: int) -> list:
    T = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for combo in combinations(range(n), 3):
        value = rng.uniform(-1.0, 1.0)
        for i, j, k in permutations(combo):
            T[i][j][k] = value
    return T


def _ising_ring(rng: random.Random, n: int) -> dict:
    J = [[0.0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        J[i][j] = J[j][i] = rng.uniform(0.1, 0.2)
    return {"kind": "ising", "coupling": J, "field": [rng.uniform(-0.05, 0.05) for _ in range(n)]}


def _abs_sum(nested) -> float:
    if isinstance(nested, list):
        return sum(_abs_sum(x) for x in nested)
    return abs(nested)


def _grid(stop: float, count: int) -> dict:
    return {"start": 0.0, "stop": stop, "count": count}


def _quadform_tail(model: dict, n: int, regime: dict, rng: random.Random, grid: int) -> dict:
    A = _symmetric_matrix(rng, n)
    return {
        "model": model,
        "function": {"kind": "quadform", "matrix": A},
        "bound": {"kind": "general", "regime": regime},
        "t_grid": _grid(2.0 * _abs_sum(A), grid),
    }


# ---------------------------------------------------------------------------
# Workloads.  `tiny` shrinks every size so the smoke check runs in seconds.
# ---------------------------------------------------------------------------

TAIL_ARTIFACTS = ("tail_curve.csv", "domination.json")


def exact_tail(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"exact-tail/{seed}")
    n_rad, n_ising, n_ustat = (6, 5, 5) if tiny else (15, 13, 11)
    grid = 21 if tiny else 201
    rad = _quadform_tail({"kind": "rademacher", "n": n_rad}, n_rad,
                         {"kind": "independent", "d": 2}, rng, grid)
    ising = _quadform_tail(_ising_ring(rng, n_ising), n_ising,
                           {"kind": "dlsi", "sigma2": 2.0, "d": 2}, rng, grid)
    # A symmetric kernel on {-1,+1}^3 depends only on how many arguments are +1.
    by_count = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    kernel = [[[by_count[(a + b + c)] for c in (0, 1)] for b in (0, 1)] for a in (0, 1)]
    B = max(abs(v) for v in by_count)
    ustat = {
        "model": {"kind": "rademacher", "n": n_ustat},
        "function": {"kind": "ustat", "order": 3, "kernel": kernel},
        "bound": {"kind": "ustat", "B": B, "n": n_ustat, "d": 3,
                  "regime": {"kind": "independent", "d": 3}},
        "t_grid": _grid(2.0 * B * math.comb(n_ustat, 3), grid),
    }
    return Workload(
        "exact-tail",
        "exact enumeration: dense difference-tensor field, order-2 SVD norms and a U-statistic table",
        [
            Command("1-rademacher-quadform", "verify-tail", rad, TAIL_ARTIFACTS),
            Command("2-ising-quadform", "verify-tail", ising, TAIL_ARTIFACTS),
            Command("3-ustat", "verify-tail", ustat, TAIL_ARTIFACTS),
        ],
        {"rademacher_n": n_rad, "ising_n": n_ising, "ustat_n": n_ustat, "ustat_order": 3,
         "grid_points": grid, "profile_depth": 2},
    )


def higher_order(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"higher-order/{seed}")
    n = 5 if tiny else 10
    # The batched order-3 ALS runs until every (tensor, start) pair converges,
    # which takes from about 13 sweeps to its cap of 200 depending on the
    # cubic: the wall time would vary several-fold between seeds.  So the seed
    # draws the linear part and a power-of-two scale of one fixed random
    # cubic.  Third differences cancel the linear part (up to rounding) and
    # binary scaling is exact, so every seed poses the same order-3 norm
    # problems.
    cubic = _symmetric_tensor3(random.Random("higher-order/cubic"), n)
    scale = 2.0 ** rng.randrange(4)
    T = [[[scale * v for v in row] for row in plane] for plane in cubic]
    linear = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    model = {"kind": "rademacher", "n": n}
    function = {"kind": "poly", "coefficients": [{"order": 1, "tensor": linear},
                                                 {"order": 3, "tensor": T}]}
    stop = 2.0 * (_abs_sum(T) + _abs_sum(linear))
    tail = {
        "model": model,
        "function": function,
        "bound": {"kind": "general", "regime": {"kind": "independent", "d": 3}},
        "t_grid": _grid(stop, 101),
    }
    poly_bound = {
        "model": model,
        "function": function,
        "bound": {"kind": "polynomial", "d": 3, "sigma": 1.0},
        "t_grid": _grid(stop, 101),
    }
    return Workload(
        "higher-order",
        "order-3 tensors: batched ALS for the profile and scalar ALS through partition norms",
        [
            Command("1-poly3-tail", "verify-tail", tail, TAIL_ARTIFACTS),
            Command("2-poly3-bound", "bound", poly_bound, ("bound_curve.csv",)),
        ],
        {"n": n, "poly_order": 3, "profile_depth": 3, "grid_points": 101},
    )


def glauber_mc(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"glauber-mc/{seed}")
    n = 6 if tiny else 16
    sweeps, samples, burn_in = (50, 80, 10) if tiny else (1000, 2000, 200)
    model = _ising_ring(rng, n)
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(weights)
    sample = {"model": model, "sweeps": sweeps, "burn_in": burn_in,
              "seed": rng.randrange(1 << 30), "format": "binary"}
    mc = {
        "model": model,
        "function": {"kind": "poly", "coefficients": [{"order": 1, "tensor": weights}]},
        # An inline profile (sup of |h f|_2 for a linear form) skips every norm computation.
        "bound": {"kind": "general", "regime": {"kind": "dlsi", "sigma2": 2.0, "d": 1},
                  "profile": {"d": 1, "gamma": [2.0 * math.sqrt(sum(w * w for w in weights))]}},
        "t_grid": _grid(2.0 * total, 101),
        "samples": samples,
        "burn_in": burn_in,
        "seed": rng.randrange(1 << 30),
    }
    return Workload(
        "glauber-mc",
        "single-site Glauber sampling of an Ising ring, binary sample stream and a Monte Carlo tail",
        [
            Command("1-sample", "sample", sample, ("samples.bin",)),
            Command("2-mc-tail", "verify-tail", mc, TAIL_ARTIFACTS, ("--mode", "mc")),
        ],
        {"n": n, "sample_sweeps": sweeps, "mc_samples": samples, "burn_in": burn_in,
         "site_updates": n * (sweeps + samples + 2 * burn_in)},
    )


def suite_lsi(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"suite-lsi/{seed}")
    n = 4 if tiny else 9
    starts = 2 if tiny else 4
    lsi = {"model": _ising_ring(rng, n), "operator": "d", "starts": starts,
           "seed": rng.randrange(1 << 30)}
    commands = [Command("2-lsi", "lsi", lsi, ("lsi_report.json",))]
    if not tiny:
        suite = Command("1-suite", "suite", None, ("suite_report.json", "suite_summary.csv"),
                        ("--seed", str(rng.randrange(1 << 20)), "--jobs", "1"))
        commands.insert(0, suite)
    return Workload(
        "suite-lsi",
        "the full property suite on many tiny tables, then a d-operator LSI search on a dense form",
        commands,
        {"lsi_n": n, "lsi_starts": starts, "dirichlet_form_size": 2**n, "suite": not tiny},
    )


WORKLOADS = {
    "exact-tail": exact_tail,
    "higher-order": higher_order,
    "glauber-mc": glauber_mc,
    "suite-lsi": suite_lsi,
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(command: Command, out_dir: Path) -> dict[str, str]:
    return {name: sha256_of(out_dir / name) for name in command.artifacts if (out_dir / name).exists()}


def gate(command: Command, exit_code: int, out_dir: Path) -> str | None:
    """Why the command's result is wrong, or None when it passes."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    missing = [name for name in command.artifacts if not (out_dir / name).exists()]
    if missing:
        return f"missing artifacts {missing}"
    try:
        docs = {name: json.loads((out_dir / name).read_text())
                for name in command.artifacts if name.endswith(".json")}
    except ValueError as exc:
        return f"unreadable JSON artifact: {exc}"
    if "domination.json" in docs and docs["domination.json"].get("dominated") is not True:
        return "domination.json has dominated=false"
    if "suite_report.json" in docs and docs["suite_report.json"].get("all_passed") is not True:
        return "suite_report.json has all_passed=false"
    if "lsi_report.json" in docs:
        ratio = docs["lsi_report.json"].get("best_ratio")
        if not (isinstance(ratio, (int, float)) and math.isfinite(ratio) and ratio > 0.0):
            return f"lsi best_ratio {ratio!r} is not finite and positive"
    return None
