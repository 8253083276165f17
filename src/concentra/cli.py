"""Batch command-line front end: configs in, plot-ready CSV and JSON out.

Exit codes: 0 success, 2 invalid config or usage, 3 a verification check found
a violation.  All outputs are byte-identical across runs with the same config
and seed: CSV uses '.' decimals, 17 significant digits and LF line endings;
JSON is dumped with sorted keys.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import models, verify
from .diffops import NormProfile, norm_profile
from .errors import ConcentraError, SchemaError
from .funcs import function_from_json, fourier_transform
from .lsi import OPERATORS, lsi_constant_search
from .schema import array, boolean, choice, dispatch, document, field, floats, integer, list_of, matrix, reads, real, vector
from .space import Measure, hypercube, measure_from_json, rademacher, bernoulli_product

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VIOLATION = 3

JOBS_ENV_VAR = "CONCENTRA_JOBS"
MODES = ("exact", "mc")
COUNT, SEED = integer(1), integer(0)
EDGES = array((None, 2), int)


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


MODEL_KINDS = {
    "rademacher": reads(rademacher, ("n", COUNT)),
    "bernoulli": reads(bernoulli_product, ("n", COUNT), ("p", real)),
    "ising": reads(
        lambda J, h: models.build_ising(models.IsingSpec(J, h))[0], ("coupling", matrix), ("field", vector)
    ),
    "curie_weiss": reads(
        lambda *a: models.build_ising(models.curie_weiss_spec(*a))[0],
        ("n", COUNT), ("beta", real), ("field", real, 0.0),
    ),
    "coloring": reads(
        lambda edges, *a: models.build_coloring(edges.tolist(), *a)[0],
        ("edges", EDGES), ("vertices", COUNT), ("colors", COUNT),
    ),
    "ergm": reads(
        lambda *a: models.build_ergm(models.ErgmSpec(*a))[0],
        ("vertices", COUNT),
        ("motifs", list_of(reads(lambda e: models.Motif(tuple(map(tuple, e.tolist()))), ("edges", EDGES)))),
        ("beta", floats),
    ),
    "measure": reads(measure_from_json, ("document", document)),
}


def build_model(doc: dict) -> Measure:
    return dispatch(doc, MODEL_KINDS, "model")


MODEL = ("model", lambda doc, _: build_model(doc))
FUNCTION = ("function", lambda doc, _: function_from_json(doc))


REGIME_KINDS = {
    "independent": reads(bounds_mod.independent, ("d", COUNT)),
    "dlsi": reads(bounds_mod.dlsi, ("sigma2", real), ("d", COUNT)),
}


REGIME = ("regime", lambda doc, _: dispatch(doc, REGIME_KINDS, "regime"))


def _bound_general(doc: dict, config: dict) -> bounds_mod.TailBound:
    regime = field(doc, *REGIME)
    profile = field(doc, "profile", lambda profile, _: NormProfile.from_json(profile), None)
    if profile is None:
        profile = norm_profile(field(config, *FUNCTION), field(config, *MODEL), regime.d)
    return bounds_mod.bound_general(profile, regime)


def _bound_polynomial(doc: dict, config: dict) -> bounds_mod.TailBound:
    d, sigma, c_user = field(doc, "d", COUNT), field(doc, "sigma", real), field(doc, "c_user", real, None)
    norms = bounds_mod.polynomial_partition_norms(field(config, *FUNCTION), field(config, *MODEL), d)
    return bounds_mod.bound_polynomial(norms, sigma, d, c_user)


BOUND_KINDS = {
    "general": _bound_general,
    "suprema": reads(bounds_mod.bound_suprema, ("expected_w", vector, ()), ("w_top_sup", real), REGIME),
    "chaos": reads(
        bounds_mod.bound_chaos, ("expected_w", vector), ("sigma2", real), ("a", real), ("b", real),
        ("d", COUNT), ("variant", choice(*bounds_mod.CHAOS_VARIANTS), "upper"),
    ),
    "boolean": reads(bounds_mod.bound_boolean, ("weights", vector), ("d", COUNT)),
    "ustat": reads(
        bounds_mod.bound_ustat, ("B", real), ("n", COUNT), ("d", COUNT), REGIME, ("normalized", boolean, False)
    ),
    "hanson_wright": reads(bounds_mod.hanson_wright, ("matrix", matrix), ("M", real), REGIME),
    "moment": reads(
        lambda *a: bounds_mod.moment_to_tail(bounds_mod.MomentProfile(*a)),
        ("coefficients", floats), ("shift", real, 0.0),
    ),
    "ergm_triangle": reads(
        bounds_mod.bound_ergm_triangle, ("n", COUNT), ("c_two_star", real), ("c_edge", real), ("c_user", real)
    ),
    "polynomial": _bound_polynomial,
}


def build_bound(config: dict) -> bounds_mod.TailBound:
    return dispatch(field(config, "bound", document), BOUND_KINDS, "bound", config)


def build_t_grid(doc, what: str = "t_grid") -> np.ndarray:
    """A finite, non-empty grid from a list or {start, stop, count}; a reader type."""
    if isinstance(doc, dict):
        grid = np.linspace(field(doc, "start", real), field(doc, "stop", real), field(doc, "count", COUNT))
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


def cmd_bound(config: dict | None, args) -> int:
    bound = build_bound(config)
    grid = field(config, "t_grid", build_t_grid)
    out = _out_dir(args)
    _write_csv(out / "bound_curve.csv", ["t", "raw_bound", "clipped_bound", "active_level"], _bound_rows(bound, grid))
    print(f"wrote {out / 'bound_curve.csv'}")
    return EXIT_OK


def cmd_verify_tail(config: dict | None, args) -> int:
    mu, f = field(config, *MODEL), field(config, *FUNCTION)
    bound = build_bound(config)
    grid = field(config, "t_grid", build_t_grid)
    mode = args.mode if args.mode is not None else field(config, "mode", choice(*MODES), "exact")
    side = field(config, "side", choice(*verify.TAIL_SIDES), "upper" if bound.one_sided else "two")
    if mode == "exact":
        curve = verify.tail_curve(mu, f, grid, mode="exact", side=side)
    else:
        sample_rows = reads(
            lambda sweeps, burn_in, seed: models.glauber_sample(mu, sweeps, burn_in, seed=seed),
            ("samples", COUNT, args.samples), ("burn_in", integer(0), 500), ("seed", SEED, args.seed),
        )(config)
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
    mu, f = field(config, *MODEL), field(config, *FUNCTION)
    regime = field(config, *REGIME)
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
    report = reads(
        lsi_constant_search, MODEL, ("operator", choice(*OPERATORS), "d"), ("starts", COUNT, 32),
        ("seed", SEED, args.seed),
    )(config)
    out = _out_dir(args)
    _write_json(out / "lsi_report.json", report.to_json())
    print(f"best_ratio={_fmt(report.best_ratio)}")
    return EXIT_OK


def cmd_fourier(config: dict | None, args) -> int:
    f = field(config, *FUNCTION)
    space = hypercube(field(config, "n", COUNT))
    spectrum = fourier_transform(f.evaluate_table(space), space)
    weights = spectrum.weights()
    out = _out_dir(args)
    rows = [[j, float(w)] for j, w in enumerate(weights)]
    _write_csv(out / "fourier_weights.csv", ["order", "weight"], rows)
    print("weights: " + ", ".join(_fmt(w) for w in weights))
    return EXIT_OK


def cmd_sample(config: dict | None, args) -> int:
    mu = field(config, *MODEL)
    fmt = field(config, "format", choice("csv", "binary"), "csv")
    samples = reads(
        lambda *a: models.glauber_sample(mu, *a),
        ("sweeps", COUNT), ("burn_in", integer(0), 0), ("thinning", COUNT, 1), ("seed", SEED, args.seed),
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
    result = verify.run_suite(seed=args.seed, jobs=max(1, args.jobs))
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
        "--samples": dict(type=int, default=10_000, help="Monte Carlo sample count"),
        # argparse converts a string default with `type`, so a bad value exits 2.
        "--jobs": dict(type=int, default=os.environ.get(JOBS_ENV_VAR, "1"),
                       help=f"parallel workers (default ${JOBS_ENV_VAR}, else 1)"),
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


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
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
