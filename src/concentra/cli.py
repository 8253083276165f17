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
from .lsi import lsi_constant_search
from .space import Measure, hypercube, measure_from_json, rademacher, bernoulli_product
from .bounds import Regime

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VIOLATION = 3

JOBS_ENV_VAR = "CONCENTRA_JOBS"


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
    except FileNotFoundError:
        raise SchemaError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}")


def _convert(value, kind, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def _require(config: dict, key: str, kind=None):
    """config[key], converted by `kind` (int or float) when given."""
    if not isinstance(config, dict) or key not in config:
        raise SchemaError(f"config is missing the required key {key!r}")
    return config[key] if kind is None else _convert(config[key], kind, repr(key))


def build_model(doc: dict) -> Measure:
    if not isinstance(doc, dict):
        raise SchemaError("model must be an object")
    kind = _require(doc, "kind")
    if kind == "rademacher":
        return rademacher(_require(doc, "n", int))
    if kind == "bernoulli":
        return bernoulli_product(_require(doc, "n", int), _require(doc, "p", float))
    if kind == "ising":
        spec = models.IsingSpec(
            np.asarray(_require(doc, "coupling"), dtype=float),
            np.asarray(_require(doc, "field"), dtype=float),
        )
        return models.build_ising(spec)[0]
    if kind == "curie_weiss":
        spec = models.curie_weiss_spec(
            _require(doc, "n", int), _require(doc, "beta", float), float(doc.get("field", 0.0))
        )
        return models.build_ising(spec)[0]
    if kind == "coloring":
        return models.build_coloring(
            [tuple(e) for e in _require(doc, "edges")],
            _require(doc, "vertices", int),
            _require(doc, "colors", int),
        )[0]
    if kind == "ergm":
        motifs = tuple(
            models.Motif(tuple(tuple(e) for e in _require(m, "edges"))) for m in _require(doc, "motifs")
        )
        spec = models.ErgmSpec(_require(doc, "vertices", int), motifs, tuple(_require(doc, "beta")))
        return models.build_ergm(spec)[0]
    if kind == "measure":
        return measure_from_json(_require(doc, "document"))
    raise SchemaError(f"unknown model kind {kind!r}")


def build_regime(doc: dict) -> Regime:
    kind = _require(doc, "kind")
    d = _require(doc, "d", int)
    if kind == "independent":
        return bounds_mod.independent(d)
    if kind == "dlsi":
        return bounds_mod.dlsi(_require(doc, "sigma2", float), d)
    raise SchemaError(f"unknown regime kind {kind!r}")


def build_bound(config: dict) -> bounds_mod.TailBound:
    doc = _require(config, "bound")
    kind = _require(doc, "kind")
    if kind == "general":
        regime = build_regime(_require(doc, "regime"))
        if "profile" in doc:
            profile = NormProfile.from_json(doc["profile"])
        else:
            mu = build_model(_require(config, "model"))
            f = function_from_json(_require(config, "function"))
            profile = norm_profile(f, mu, regime.d)
        return bounds_mod.bound_general(profile, regime)
    if kind == "suprema":
        regime = build_regime(_require(doc, "regime"))
        return bounds_mod.bound_suprema(
            [float(v) for v in doc.get("expected_w", [])],
            _require(doc, "w_top_sup", float),
            regime,
        )
    if kind == "chaos":
        return bounds_mod.bound_chaos(
            [float(v) for v in _require(doc, "expected_w")],
            _require(doc, "sigma2", float),
            _require(doc, "a", float),
            _require(doc, "b", float),
            _require(doc, "d", int),
            doc.get("variant", "upper"),
        )
    if kind == "boolean":
        return bounds_mod.bound_boolean(
            [float(v) for v in _require(doc, "weights")], _require(doc, "d", int)
        )
    if kind == "ustat":
        regime = build_regime(_require(doc, "regime"))
        return bounds_mod.bound_ustat(
            _require(doc, "B", float),
            _require(doc, "n", int),
            _require(doc, "d", int),
            regime,
            bool(doc.get("normalized", False)),
        )
    if kind == "hanson_wright":
        regime = build_regime(_require(doc, "regime"))
        return bounds_mod.hanson_wright(
            np.asarray(_require(doc, "matrix"), dtype=float),
            _require(doc, "M", float),
            regime,
        )
    if kind == "moment":
        profile = bounds_mod.MomentProfile(
            tuple(float(c) for c in _require(doc, "coefficients")),
            float(doc.get("shift", 0.0)),
        )
        return bounds_mod.moment_to_tail(profile)
    if kind == "ergm_triangle":
        return bounds_mod.bound_ergm_triangle(
            _require(doc, "n", int),
            _require(doc, "c_two_star", float),
            _require(doc, "c_edge", float),
            _require(doc, "c_user", float),
        )
    if kind == "polynomial":
        mu = build_model(_require(config, "model"))
        f = function_from_json(_require(config, "function"))
        d = _require(doc, "d", int)
        norms = bounds_mod.polynomial_partition_norms(f, mu, d)
        return bounds_mod.bound_polynomial(
            norms, _require(doc, "sigma", float), d, doc.get("c_user")
        )
    raise SchemaError(f"unknown bound kind {kind!r}")


def build_t_grid(doc) -> np.ndarray:
    """A finite, non-empty grid from a list or {start, stop, count}."""
    if isinstance(doc, list):
        grid = np.asarray([_convert(t, float, "a t_grid entry") for t in doc])
    elif isinstance(doc, dict):
        count = _require(doc, "count", int)
        if count < 1:
            raise SchemaError(f"t_grid count must be at least 1, got {count}")
        ends = [_require(doc, "start", float), _require(doc, "stop", float)]
        grid = np.linspace(*ends, count) if np.all(np.isfinite(ends)) else np.array(ends)
    else:
        raise SchemaError("t_grid must be a list or {start, stop, count}")
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise SchemaError("t_grid must be non-empty and finite")
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


def cmd_bound(args) -> int:
    config = _load_config(args.config)
    bound = build_bound(config)
    grid = build_t_grid(_require(config, "t_grid"))
    out = _out_dir(args)
    _write_csv(out / "bound_curve.csv", ["t", "raw_bound", "clipped_bound", "active_level"], _bound_rows(bound, grid))
    print(f"wrote {out / 'bound_curve.csv'}")
    return EXIT_OK


def cmd_verify_tail(args) -> int:
    config = _load_config(args.config)
    mu = build_model(_require(config, "model"))
    f = function_from_json(_require(config, "function"))
    bound = build_bound(config)
    grid = build_t_grid(_require(config, "t_grid"))
    mode = args.mode if args.mode is not None else config.get("mode", "exact")
    side = config.get("side", "upper" if bound.one_sided else "two")
    if mode == "exact":
        curve = verify.tail_curve(mu, f, grid, mode="exact", side=side)
    elif mode == "mc":
        seed = int(config.get("seed", args.seed))
        n_samples = int(config.get("samples", args.samples))
        sample_rows = models.glauber_sample(
            mu, sweeps=n_samples, burn_in=int(config.get("burn_in", 500)), seed=seed
        )
        curve = verify.tail_curve(mu, f, grid, mode="monte_carlo", side=side, samples=sample_rows)
    else:
        raise SchemaError(f"unknown mode {mode!r}")
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


def cmd_verify_moments(args) -> int:
    config = _load_config(args.config)
    mu = build_model(_require(config, "model"))
    f = function_from_json(_require(config, "function"))
    regime = build_regime(_require(config, "regime"))
    p_grid = [float(p) for p in _require(config, "p_grid")]
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


def cmd_lsi(args) -> int:
    config = _load_config(args.config)
    mu = build_model(_require(config, "model"))
    report = lsi_constant_search(
        mu,
        operator=config.get("operator", "d"),
        starts=int(config.get("starts", 32)),
        seed=int(config.get("seed", args.seed)),
    )
    out = _out_dir(args)
    _write_json(out / "lsi_report.json", report.to_json())
    print(f"best_ratio={_fmt(report.best_ratio)}")
    return EXIT_OK


def cmd_fourier(args) -> int:
    config = _load_config(args.config)
    f = function_from_json(_require(config, "function"))
    n = _require(config, "n", int)
    space = hypercube(n)
    spectrum = fourier_transform(f.evaluate_table(space), space)
    weights = spectrum.weights()
    out = _out_dir(args)
    rows = [[j, float(w)] for j, w in enumerate(weights)]
    _write_csv(out / "fourier_weights.csv", ["order", "weight"], rows)
    print("weights: " + ", ".join(_fmt(w) for w in weights))
    return EXIT_OK


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    mu = build_model(_require(config, "model"))
    samples = models.glauber_sample(
        mu,
        sweeps=_require(config, "sweeps", int),
        burn_in=int(config.get("burn_in", 0)),
        thinning=int(config.get("thinning", 1)),
        seed=int(config.get("seed", args.seed)),
    )
    out = _out_dir(args)
    fmt = config.get("format", "csv")
    if fmt == "csv":
        path = out / "samples.csv"
        models.write_samples_csv(path, samples)
    elif fmt == "binary":
        path = out / "samples.bin"
        models.write_samples_binary(path, samples, mu.space)
    else:
        raise SchemaError(f"unknown sample format {fmt!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_suite(args) -> int:
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1"))
    result = verify.run_suite(seed=args.seed, jobs=max(1, jobs))
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concentra",
        description="Multilevel concentration bounds on finite product spaces, verified",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--mode", choices=["exact", "mc"], default=None, help="override mode")
        p.add_argument("--samples", type=int, default=10_000, help="Monte Carlo sample count")
        p.add_argument("--jobs", type=int, default=None, help=f"parallel workers (or ${JOBS_ENV_VAR})")

    for name, handler in [
        ("bound", cmd_bound),
        ("verify-tail", cmd_verify_tail),
        ("verify-moments", cmd_verify_moments),
        ("lsi", cmd_lsi),
        ("fourier", cmd_fourier),
        ("sample", cmd_sample),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(handler=handler)
    p = sub.add_parser("suite")
    common(p, needs_config=False)
    p.set_defaults(handler=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConcentraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
