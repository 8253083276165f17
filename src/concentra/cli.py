"""Batch command-line front end: configs in, plot-ready CSV and JSON out.

Exit codes: 0 success, 2 invalid config or usage, 3 a verification check found
a violation.  All outputs are byte-identical across runs with the same config
and seed: CSV uses '.' decimals, 17 significant digits and LF line endings;
JSON is dumped with sorted keys.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import models, verify
from .diffops import NormProfile, norm_profile
from .errors import ConcentraError, SchemaError
from .funcs import FunctionSpec, function_from_json, function_table, fourier_transform
from .lsi import OPERATORS, lsi_constant_search, spectral_bracket
from .schema import (
    REQUIRED, array, boolean, check, choice, dispatch, document, field, floats, integer, list_of, matrix, reads, real,
    vector,
)
from .space import ENUMERATION_CAP, Measure, hypercube, measure_from_json, rademacher, bernoulli_product

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VIOLATION = 3

MODES = ("exact", "mc")
COUNT, SEED = integer(1), integer(0)
# Size limits.  The reader rejects a larger value with exit 2 before anything
# is built; above them a run fails with MemoryError or does not end.
# Most sites of a model sized by one field: `rademacher` and `bernoulli` `n`,
# `coloring` `vertices`, the C(vertices, 2) edge sites of an `ergm` model, and
# `curie_weiss` `n`, whose coupling is a dense n x n matrix, 8 MiB at the limit.
MAX_SITES = 1 << 10
CURIE_WEISS_MAX_N = MAX_SITES
# 45 vertices make 990 edge sites, 46 make 1035.
ERGM_MAX_VERTICES = (1 + math.isqrt(1 + 8 * MAX_SITES)) // 2
# Rows of an `ergm` model's motif embeddings, summed over its motifs: a motif
# on k vertices has V!/(V - k)! injective maps into V vertices, each one row
# built by a Python loop (a 5-vertex path at V = 16, 524,160 rows, took 1.2 s
# on a 2-CPU Xeon).  Every motif of at most three vertices stays within it at
# V = 45 (85,140 rows each).
ERGM_MAX_EMBEDDINGS = 1 << 20
# `fourier` `n`: the 2^n configurations of its hypercube within the enumeration cap.
FOURIER_MAX_N = ENUMERATION_CAP.bit_length() - 1
# Points of a `{start, stop, count}` t grid, each one bound evaluation and, in
# `verify-tail`, one tail probability.
T_GRID_MAX_COUNT = 10**5
# `lsi` `starts`: an h or h_plus search draws its starts as one (starts,
# size) array, 128 MiB at the limit on its largest space, 2^12
# configurations; d uses no starts.
LSI_MAX_STARTS = 1 << 12
SITES, STARTS, GRID_COUNT = integer(1, MAX_SITES), integer(1, LSI_MAX_STARTS), integer(1, T_GRID_MAX_COUNT)
# Most sweeps one sampler field asks for: `sample`'s `sweeps` and `burn_in`,
# `verify-tail`'s `samples`, `burn_in` and `--samples`.  At the limit the
# 16-site `glauber-mc` ring makes 16M site updates per field and keeps 16M
# digits, 8 bytes each in the kept list and in each array made from it.
SAMPLER_MAX_SWEEPS = 10**6
# Most site updates of one chain, (burn_in + sweeps) x sites, which bounds its
# time and its kept digits whatever the model's size: the 16-site ring reaches
# both sweep limits (32M updates), a 1024-site chain 32,768 sweeps in all.  The
# reader rejects a larger count before any chain is built.
SAMPLER_MAX_UPDATES = 1 << 25
EDGES = array((None, 2), int)


def _chain_sweeps(config: dict, mu: Measure, key: str, default, burn_in: int) -> tuple[int, int]:
    """The kept sweeps `key` and the `burn_in` sweeps of a sampler config,
    defaults included: each at most SAMPLER_MAX_SWEEPS, and together at most
    SAMPLER_MAX_UPDATES site updates of a chain on `mu`."""
    per_site = SAMPLER_MAX_UPDATES // mu.space.n
    sweeps = field(config, key, _as_given, default)
    sweeps = integer(1, min(SAMPLER_MAX_SWEEPS, per_site))(sweeps, repr(key))
    burn_in = field(config, "burn_in", _as_given, burn_in)
    return sweeps, integer(0, min(SAMPLER_MAX_SWEEPS, per_site - sweeps))(burn_in, repr("burn_in"))


def _as_given(value, _what):
    """The reader type of a value checked later, together with its default."""
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(
                ",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n"
            )


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None


def _ergm(vertices: int, motifs: list, beta: tuple) -> Measure:
    """An `ergm` model, once its motif embeddings fit in ERGM_MAX_EMBEDDINGS rows."""
    rows = sum(math.perm(vertices, m.n_vertices) for m in motifs)
    if rows > ERGM_MAX_EMBEDDINGS:
        raise SchemaError(
            f"'motifs' must embed in at most {ERGM_MAX_EMBEDDINGS} rows (the sum of V!/(V - |motif|)!), "
            f"got {rows} at {vertices} vertices"
        )
    return models.build_ergm(models.ErgmSpec(vertices, motifs, beta))[0]


MODEL_KINDS = {
    "rademacher": reads(rademacher, ("n", SITES)),
    "bernoulli": reads(bernoulli_product, ("n", SITES), ("p", real)),
    "ising": reads(
        lambda J, h: models.build_ising(models.IsingSpec(J, h))[0], ("coupling", matrix), ("field", vector)
    ),
    "curie_weiss": reads(
        lambda *a: models.build_ising(models.curie_weiss_spec(*a))[0],
        ("n", SITES), ("beta", real), ("field", real, 0.0),
    ),
    "coloring": reads(
        lambda edges, *a: models.build_coloring(edges.tolist(), *a)[0],
        ("edges", EDGES), ("vertices", SITES), ("colors", COUNT),
    ),
    "ergm": reads(
        _ergm,
        ("vertices", integer(1, ERGM_MAX_VERTICES)),
        ("motifs", list_of(reads(lambda e: models.Motif(tuple(map(tuple, e.tolist()))), ("edges", EDGES)))),
        ("beta", floats),
    ),
    "measure": reads(measure_from_json, ("document", document)),
}


def build_model(doc: dict) -> Measure:
    return dispatch(doc, MODEL_KINDS, "model")


class Inputs:
    """A config with its `model`, `function` and the function's table, each
    built on first use and then kept, so that a command builds each once
    however many fields use it."""

    def __init__(self, config: dict):
        self.config = config

    @functools.cached_property
    def model(self) -> Measure:
        return field(self.config, "model", lambda doc, _: build_model(doc))

    @functools.cached_property
    def function(self) -> FunctionSpec:
        return field(self.config, "function", lambda doc, _: function_from_json(doc))

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The function's values over the model's enumerated space."""
        self.model.space.check_cap()
        return function_table(self.function, self.model.space)


def _sigma2(inputs: Inputs):
    """A number, or {"spectral": {}}: the upper end of the model's spectral bracket."""
    spectral = check(lambda v: v == {"spectral": {}}, '{"spectral": {}}', lambda _: spectral_bracket(inputs.model)[1])
    return lambda value, what: (spectral if isinstance(value, dict) else real)(value, what)


REGIME_KINDS = {
    "independent": reads(bounds_mod.independent, ("d", COUNT)),
    "dlsi": lambda doc, inputs: reads(bounds_mod.dlsi, ("sigma2", _sigma2(inputs)), ("d", COUNT))(doc),
}


def _regime(inputs: Inputs) -> tuple:
    return ("regime", lambda doc, _: dispatch(doc, REGIME_KINDS, "regime", inputs))


def _bound_general(doc: dict, inputs: Inputs) -> bounds_mod.TailBound:
    regime = field(doc, *_regime(inputs))
    profile = field(doc, "profile", lambda profile, _: NormProfile.from_json(profile), None)
    if profile is None:
        profile = norm_profile(inputs.function, inputs.model, regime.d, table=inputs.table)
    return bounds_mod.bound_general(profile, regime)


def _bound_polynomial(doc: dict, inputs: Inputs) -> bounds_mod.TailBound:
    d, sigma, c_user = field(doc, "d", COUNT), field(doc, "sigma", real), field(doc, "c_user", real, None)
    norms = bounds_mod.polynomial_partition_norms(inputs.function, inputs.model, d)
    return bounds_mod.bound_polynomial(norms, sigma, d, c_user)


BOUND_KINDS = {
    "general": _bound_general,
    "suprema": lambda doc, inputs: reads(
        bounds_mod.bound_suprema, ("expected_w", vector, ()), ("w_top_sup", real), _regime(inputs)
    )(doc),
    "chaos": reads(
        bounds_mod.bound_chaos, ("expected_w", vector), ("sigma2", real), ("a", real), ("b", real),
        ("d", COUNT), ("variant", choice(*bounds_mod.CHAOS_VARIANTS), "upper"),
    ),
    "boolean": reads(bounds_mod.bound_boolean, ("weights", vector), ("d", COUNT)),
    "ustat": lambda doc, inputs: reads(
        bounds_mod.bound_ustat, ("B", real), ("n", COUNT), ("d", COUNT), _regime(inputs),
        ("normalized", boolean, False),
    )(doc),
    "hanson_wright": lambda doc, inputs: reads(
        bounds_mod.hanson_wright, ("matrix", matrix), ("M", real), _regime(inputs)
    )(doc),
    "moment": reads(
        lambda *a: bounds_mod.moment_to_tail(bounds_mod.MomentProfile(*a)),
        ("coefficients", floats), ("shift", real, 0.0),
    ),
    "ergm_triangle": reads(
        bounds_mod.bound_ergm_triangle, ("n", COUNT), ("c_two_star", real), ("c_edge", real), ("c_user", real)
    ),
    "polynomial": _bound_polynomial,
}


def build_bound(inputs: Inputs) -> bounds_mod.TailBound:
    return dispatch(field(inputs.config, "bound", document), BOUND_KINDS, "bound", inputs)


def build_t_grid(doc, what: str = "t_grid") -> np.ndarray:
    """A finite, non-empty grid from a list or {start, stop, count}; a reader type."""
    if isinstance(doc, dict):
        grid = np.linspace(field(doc, "start", real), field(doc, "stop", real), field(doc, "count", GRID_COUNT))
    else:
        grid = vector(doc, what)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise SchemaError(f"{what} must be non-empty and finite")
    return grid


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _bound_rows(bound: bounds_mod.TailBound, grid: np.ndarray) -> list[list]:
    rows = []
    for t in grid:
        level = bound.active_level(float(t))
        rows.append(
            [
                float(t),
                bound.evaluate_raw(float(t)),
                bound.evaluate(float(t)),
                "none" if level is None else str(int(level)),
            ]
        )
    return rows


def bound_and_grid(inputs: Inputs) -> tuple[bounds_mod.TailBound, np.ndarray]:
    """A `verify-tail` config's bound and t grid.  Without a `t_grid`, the
    grid is `verify.domination_grid` over max |f - Ef| on the support."""
    bound = build_bound(inputs)
    grid = field(inputs.config, "t_grid", build_t_grid, None)
    if grid is None:
        grid = verify.domination_grid(bound, verify.max_deviation(inputs.model, inputs.table))
    return bound, grid


def cmd_bound(config: dict | None, args) -> int:
    bound = build_bound(Inputs(config))
    grid = field(config, "t_grid", build_t_grid)
    out = _out_dir(args)
    _write_csv(out / "bound_curve.csv", ["t", "raw_bound", "clipped_bound", "active_level"], _bound_rows(bound, grid))
    print(f"wrote {out / 'bound_curve.csv'}")
    return EXIT_OK


def cmd_verify_tail(config: dict | None, args) -> int:
    inputs = Inputs(config)
    mu, f = inputs.model, inputs.function
    bound, grid = bound_and_grid(inputs)
    mode = args.mode if args.mode is not None else field(config, "mode", choice(*MODES), "exact")
    side = field(config, "side", choice(*verify.TAIL_SIDES), "upper" if bound.one_sided else "two")
    if mode == "exact":
        curve = verify.tail_curve(mu, inputs.table, grid, mode="exact", side=side)
    else:
        samples, burn_in = _chain_sweeps(config, mu, "samples", args.samples, 500)
        sample_rows = models.glauber_sample(mu, samples, burn_in, seed=field(config, "seed", SEED, args.seed))
        curve = verify.tail_curve(mu, f, grid, mode="monte_carlo", side=side, samples=sample_rows)
    report = verify.check_domination(curve, bound)
    out = _out_dir(args)
    rows = [
        [float(t), float(p), float(u), bound.evaluate_raw(float(t)), bound.evaluate(float(t))]
        for t, p, u in zip(curve.t_grid, curve.prob, curve.upper)
    ]
    _write_csv(out / "tail_curve.csv", ["t", "prob", "upper_limit", "raw_bound", "clipped_bound"], rows)
    _write_json(out / "domination.json", report.to_json())
    print(f"dominated={report.dominated} min_margin={_fmt(report.min_margin)}")
    return EXIT_OK if report.dominated else EXIT_VIOLATION


def cmd_verify_moments(config: dict | None, args) -> int:
    inputs = Inputs(config)
    mu, f = inputs.model, inputs.function
    regime = field(config, *_regime(inputs))
    p_grid = field(config, "p_grid", vector).tolist()
    report = verify.check_moment_chain(mu, f, regime.d, p_grid, regime)
    out = _out_dir(args)
    rows = [
        [p, l, r, r - l]
        for p, l, r in zip(report.p_grid, report.lhs, report.rhs)
    ]
    _write_csv(out / "moments.csv", ["p", "lhs", "rhs", "margin"], rows)
    _write_json(out / "moments.json", report.to_json())
    print(f"passed={report.passed} worst_margin={_fmt(report.worst_margin)}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_lsi(config: dict | None, args) -> int:
    mu = Inputs(config).model
    report = reads(
        lambda *a: lsi_constant_search(mu, *a), ("operator", choice(*OPERATORS), "d"), ("starts", STARTS, 32),
        ("seed", SEED, args.seed),
    )(config)
    out = _out_dir(args)
    _write_json(out / "lsi_report.json", report.to_json())
    print(f"best_ratio={_fmt(report.best_ratio)}")
    return EXIT_OK


def cmd_fourier(config: dict | None, args) -> int:
    f = Inputs(config).function
    space = hypercube(field(config, "n", integer(1, FOURIER_MAX_N)))
    spectrum = fourier_transform(f.evaluate_table(space), space)
    weights = spectrum.weights()
    out = _out_dir(args)
    rows = [[j, float(w)] for j, w in enumerate(weights)]
    _write_csv(out / "fourier_weights.csv", ["order", "weight"], rows)
    print("weights: " + ", ".join(_fmt(w) for w in weights))
    return EXIT_OK


def cmd_sample(config: dict | None, args) -> int:
    mu = Inputs(config).model
    fmt = field(config, "format", choice("csv", "binary"), "csv")
    sweeps, burn_in = _chain_sweeps(config, mu, "sweeps", REQUIRED, 0)
    samples = reads(
        lambda *a: models.glauber_sample(mu, sweeps, burn_in, *a), ("thinning", COUNT, 1), ("seed", SEED, args.seed),
    )(config)
    out = _out_dir(args)
    if fmt == "csv":
        path = out / "samples.csv"
        models.write_samples_csv(path, samples)
    else:
        path = out / "samples.bin"
        models.write_samples_binary(path, samples, mu.space)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_suite(config: dict | None, args) -> int:
    result = verify.run_suite(seed=args.seed, jobs=args.jobs)
    out = _out_dir(args)
    _write_json(out / "suite_report.json", result.to_json())
    rows = []
    for check in result.checks:
        metric_key = next(
            (k for k in ("min_margin", "worst_margin", "max_ratio", "coverage") if k in check.detail),
            "",
        )
        metric_value = float(check.detail[metric_key]) if metric_key else ""
        rows.append([check.name, "pass" if check.passed else "FAIL", metric_key, metric_value])
    _write_csv(out / "suite_summary.csv", ["check", "status", "metric", "value"], rows)
    for row in rows:
        print(f"{row[0]}: {row[1]}")
    print(f"all_passed={result.all_passed}")
    return EXIT_OK if result.all_passed else EXIT_VIOLATION


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _sample_count(text: str) -> int:
    if not text.isdecimal() or not 1 <= int(text) <= SAMPLER_MAX_SWEEPS:
        raise argparse.ArgumentTypeError(f"must be an integer from 1 to {SAMPLER_MAX_SWEEPS}, got {text!r}")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concentra",
        description="Multilevel concentration bounds on finite product spaces, verified",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(required=True, help="path to a JSON config"),
        "--out": dict(default="out", help="output directory"),
        "--seed": dict(type=_seed, default=0, help="random seed, a non-negative integer"),
        "--mode": dict(choices=MODES, default=None, help="override the config's mode"),
        "--samples": dict(type=_sample_count, default=10_000,
                          help=f"Monte Carlo sample count, an integer from 1 to {SAMPLER_MAX_SWEEPS}"),
        "--jobs": dict(type=_positive, default=1, help="parallel workers, a positive integer"),
    }
    for name, handler, names in [
        ("bound", cmd_bound, ("--config", "--out")),
        ("verify-tail", cmd_verify_tail, ("--config", "--out", "--seed", "--mode", "--samples")),
        ("verify-moments", cmd_verify_moments, ("--config", "--out")),
        ("lsi", cmd_lsi, ("--config", "--out", "--seed")),
        ("fourier", cmd_fourier, ("--config", "--out")),
        ("sample", cmd_sample, ("--config", "--out", "--seed")),
        ("suite", cmd_suite, ("--out", "--seed", "--jobs")),
    ]:
        p = sub.add_parser(name)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call, never at import."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(_load_config(args.config) if "config" in args else None, args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConcentraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
