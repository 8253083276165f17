import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concentra.cli import (
    CURIE_WEISS_MAX_N,
    ERGM_MAX_EMBEDDINGS,
    ERGM_MAX_VERTICES,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VIOLATION,
    FOURIER_MAX_N,
    LSI_MAX_STARTS,
    MAX_SITES,
    SAMPLER_MAX_SWEEPS,
    SAMPLER_MAX_UPDATES,
    T_GRID_MAX_COUNT,
    build_model,
    build_t_grid,
    main,
)
from concentra.bounds import INDEPENDENT_C_FACTOR, TailBound
from concentra.errors import SchemaError
from concentra.verify import corpus_names, domination_grid, run_corpus_entry
from concentra.space import enumerate_configurations, hypercube


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigBuilders:
    def test_model_kinds(self):
        assert build_model({"kind": "rademacher", "n": 3}).space.n == 3
        assert build_model({"kind": "bernoulli", "n": 2, "p": 0.3}).space.n == 2
        ising = build_model(
            {"kind": "ising", "coupling": [[0.0, 0.2], [0.2, 0.0]], "field": [0.0, 0.0]}
        )
        assert ising.space.n == 2
        cw = build_model({"kind": "curie_weiss", "n": 3, "beta": 0.5})
        assert cw.space.n == 3
        coloring = build_model(
            {"kind": "coloring", "vertices": 3, "edges": [[0, 1]], "colors": 2}
        )
        assert coloring.space.n == 3
        ergm = build_model(
            {"kind": "ergm", "vertices": 3, "motifs": [{"edges": [[0, 1]]}], "beta": [0.1]}
        )
        assert ergm.space.n == 3
        raw = build_model(
            {
                "kind": "measure",
                "document": {
                    "n": 1,
                    "alphabets": [[0.0, 1.0]],
                    "measure": {"kind": "exact", "table": [0.25, 0.75]},
                },
            }
        )
        assert raw.prob_table().tolist() == [0.25, 0.75]

    def test_unknown_kind_raises_schema_error(self):
        with pytest.raises(SchemaError):
            build_model({"kind": "mystery"})
        with pytest.raises(SchemaError):
            build_model({})

    def test_t_grid_forms(self):
        np.testing.assert_allclose(build_t_grid([0.0, 1.0]), [0.0, 1.0])
        np.testing.assert_allclose(
            build_t_grid({"start": 0.0, "stop": 1.0, "count": 3}), [0.0, 0.5, 1.0]
        )
        with pytest.raises(SchemaError):
            build_t_grid("nope")


class TestCommands:
    def test_fourier_majority(self, tmp_path, capsys):
        space = hypercube(3)
        table = np.sign(enumerate_configurations(space).sum(axis=1)).tolist()
        cfg = write_config(
            tmp_path, "f.json", {"function": {"kind": "table", "values": table}, "n": 3}
        )
        rc = main(["fourier", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "fourier_weights.csv").read_text().splitlines()
        assert lines[0] == "order,weight"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(weights, [0.0, 0.75, 0.0, 0.25], atol=1e-12)

    def test_bound_all_zero_norms_gives_zero_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "b.json",
            {
                "bound": {
                    "kind": "general",
                    "regime": {"kind": "independent", "d": 2},
                    "profile": {"d": 2, "gamma": [0.0, 0.0]},
                },
                "t_grid": [0.0, 1.0, 2.0],
            },
        )
        rc = main(["bound", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "bound_curve.csv").read_text().splitlines()
        assert lines[1].startswith("0,2,1")  # raw 2, clipped 1 at t = 0
        for line in lines[2:]:
            t, raw, clipped, level = line.split(",")
            assert float(raw) == 0.0 and float(clipped) == 0.0 and level == "none"

    def test_bound_at_huge_t_is_zero_not_an_overflow(self, tmp_path):
        # (t/gamma)^(2/k) overflows a float for t = 1e308 and k = 1: that
        # level's rate is +inf, and the order-2 level, 1e308, is active.
        cfg = write_config(
            tmp_path,
            "b.json",
            {
                "bound": {
                    "kind": "general",
                    "regime": {"kind": "independent", "d": 2},
                    "profile": {"d": 2, "gamma": [1.0, 1.0]},
                },
                "t_grid": [1e308],
            },
        )
        rc = main(["bound", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "bound_curve.csv").read_text().splitlines()
        t, raw, clipped, level = lines[1].split(",")
        assert float(t) == 1e308 and float(raw) == 0.0 and float(clipped) == 0.0 and level == "2"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "vt.json",
            {
                "model": {"kind": "rademacher", "n": 3},
                "function": {
                    "kind": "quadform",
                    "matrix": [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]],
                },
                "bound": {"kind": "general", "regime": {"kind": "independent", "d": 2}},
                "t_grid": {"start": 0.0, "stop": 4000.0, "count": 30},
                "seed": 1,
            },
        )
        rc1 = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "a")])
        rc2 = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == EXIT_OK
        for name in ("tail_curve.csv", "domination.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_verify_moments_runs_green(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "vm.json",
            {
                "model": {"kind": "rademacher", "n": 3},
                "function": {
                    "kind": "poly",
                    "coefficients": [{"order": 1, "tensor": [1.0, 1.0, 1.0]}],
                },
                "regime": {"kind": "independent", "d": 1},
                "p_grid": [2, 3, 4, 8, 16],
            },
        )
        rc = main(["verify-moments", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "out" / "moments.json").read_text())
        assert doc["passed"] is True

    def test_violation_exit_code(self, tmp_path):
        # a deliberately tiny bound must be reported violated with exit 3
        cfg = write_config(
            tmp_path,
            "bad.json",
            {
                "model": {"kind": "rademacher", "n": 2},
                "function": {
                    "kind": "quadform",
                    "matrix": [[0, 0.5], [0.5, 0]],
                },
                "bound": {
                    "kind": "general",
                    "regime": {"kind": "dlsi", "sigma2": 1e-4, "d": 2},
                    "profile": {"d": 2, "gamma": [1e-3, 1e-3]},
                },
                "t_grid": [0.0, 0.5, 1.0],
            },
        )
        rc = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_VIOLATION

    def test_schema_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"model": {"kind": "nope"}})
        rc = main(["lsi", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_SCHEMA

    def test_lsi_command(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {"model": {"kind": "rademacher", "n": 2}, "operator": "d", "starts": 8},
        )
        rc = main(["lsi", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "out" / "lsi_report.json").read_text())
        assert 0.9 < doc["best_ratio"] < 1.0 + 1e-6
        # the uniform square: lambda = 1, pi* = 1/4, so the upper end is log 3
        assert doc["inverse_gap"] == pytest.approx(1.0, rel=1e-12)
        assert doc["sigma2_upper"] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_lsi_command_oscillation_operator(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "lh.json",
            {
                "model": {
                    "kind": "measure",
                    "document": {
                        "n": 1,
                        "alphabets": [[0.0, 1.0]],
                        "measure": {"kind": "exact", "table": [0.9, 0.1]},
                    },
                },
                "operator": "h",
                "starts": 16,
            },
        )
        rc = main(["lsi", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "out" / "lsi_report.json").read_text())
        # the searched two-point oscillation constant at p = 0.1
        assert doc["best_ratio"] == pytest.approx(0.1236, abs=2e-3)
        assert doc["inverse_gap"] is None and doc["sigma2_upper"] is None

    def test_sample_csv_and_binary(self, tmp_path):
        for fmt, filename in (("csv", "samples.csv"), ("binary", "samples.bin")):
            cfg = write_config(
                tmp_path,
                f"s_{fmt}.json",
                {
                    "model": {"kind": "curie_weiss", "n": 3, "beta": 0.4},
                    "sweeps": 10,
                    "seed": 3,
                    "format": fmt,
                },
            )
            rc = main(["sample", "--config", cfg, "--out", str(tmp_path / f"out_{fmt}")])
            assert rc == EXIT_OK
            assert (tmp_path / f"out_{fmt}" / filename).exists()
        assert (tmp_path / "out_binary" / "samples.bin").read_bytes()[:8] == b"CONCSAMP"

    def test_verify_tail_monte_carlo_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "mc.json",
            {
                "model": {"kind": "curie_weiss", "n": 4, "beta": 0.5},
                "function": {
                    "kind": "poly",
                    "coefficients": [{"order": 1, "tensor": [1.0, 1.0, 1.0, 1.0]}],
                },
                "bound": {
                    "kind": "general",
                    "regime": {"kind": "dlsi", "sigma2": 2.0, "d": 1},
                },
                "t_grid": {"start": 0.0, "stop": 40.0, "count": 21},
                "seed": 3,
                "samples": 2000,
            },
        )
        rc = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out"), "--mode", "mc"])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "out" / "domination.json").read_text())
        assert doc["dominated"] is True

    def test_suite_parallel_matches_serial(self, tmp_path):
        rc1 = main(["suite", "--seed", "2", "--out", str(tmp_path / "serial"), "--jobs", "1"])
        rc2 = main(["suite", "--seed", "2", "--out", str(tmp_path / "par"), "--jobs", "2"])
        assert rc1 == rc2 == EXIT_OK
        assert (tmp_path / "serial" / "suite_report.json").read_bytes() == (
            tmp_path / "par" / "suite_report.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "bound_doc,extra",
        [
            ({"kind": "ustat", "B": 1.0, "n": 4, "d": 2,
              "regime": {"kind": "independent", "d": 2}}, {}),
            ({"kind": "suprema", "expected_w": [], "w_top_sup": 2.0,
              "regime": {"kind": "dlsi", "sigma2": 1.0, "d": 1}}, {}),
            ({"kind": "chaos", "expected_w": [1.0, 0.5], "sigma2": 1.0,
              "a": -1.0, "b": 1.0, "d": 2}, {}),
            ({"kind": "boolean", "weights": [0.5, 0.25], "d": 2}, {}),
            ({"kind": "moment", "coefficients": [1.0, 0.5], "shift": 1.5}, {}),
            ({"kind": "hanson_wright", "matrix": [[0.0, 0.5], [0.5, 0.0]], "M": 1.0,
              "regime": {"kind": "independent", "d": 2}}, {}),
            ({"kind": "ergm_triangle", "n": 5, "c_two_star": 0.25, "c_edge": 0.5,
              "c_user": 40.0}, {}),
            ({"kind": "polynomial", "d": 2, "sigma": 1.0, "c_user": 60.0},
             {"model": {"kind": "rademacher", "n": 3},
              "function": {"kind": "quadform",
                           "matrix": [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]}}),
        ],
        ids=["ustat", "suprema", "chaos", "boolean", "moment", "hanson_wright",
             "ergm_triangle", "polynomial"],
    )
    def test_every_bound_kind_emits_a_curve(self, tmp_path, bound_doc, extra):
        doc = {"bound": bound_doc, "t_grid": [0.0, 1.0, 10.0, 100.0]}
        doc.update(extra)
        cfg = write_config(tmp_path, "b.json", doc)
        rc = main(["bound", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "bound_curve.csv").read_text().splitlines()
        assert lines[0] == "t,raw_bound,clipped_bound,active_level"
        assert len(lines) == 5
        assert float(lines[1].split(",")[2]) == 1.0  # clipped value at t = 0


_RAD3 = {"kind": "rademacher", "n": 3}
_GENERAL_D1 = {
    "kind": "general",
    "regime": {"kind": "independent", "d": 1},
    "profile": {"d": 1, "gamma": [1.0]},
}
_LINEAR3 = {"kind": "poly", "coefficients": [{"order": 1, "tensor": [1.0, 1.0, 1.0]}]}
_ERGM3 = {"kind": "ergm", "vertices": 3, "motifs": [{"edges": [[0, 1]]}], "beta": [0.1]}
_MEASURE1 = {"n": 1, "alphabets": [[0.0, 1.0]],
             "measure": {"kind": "exact", "table": [0.25, 0.75]}}


def _tail(**fields):
    return {"model": _RAD3, "function": _LINEAR3, "bound": _GENERAL_D1, "t_grid": [1.0]} | fields


def _bound(bound, **fields):
    return {"bound": bound, "t_grid": [1.0]} | fields


def _dlsi(sigma2, d=1):
    return {"kind": "dlsi", "sigma2": sigma2, "d": d}


def _moments(**fields):
    return {"model": _RAD3, "function": _LINEAR3, "regime": {"kind": "independent", "d": 1},
            "p_grid": [2.0]} | fields


@pytest.mark.parametrize(
    "command,doc",
    [
        ("verify-tail", {"model": _RAD3, "function": {"kind": "table"},
                         "bound": _GENERAL_D1, "t_grid": [1.0]}),
        ("sample", {"model": {"kind": "ergm", "vertices": 3, "motifs": [{}], "beta": [0.1]},
                    "sweeps": 1}),
        ("sample", {"model": {"kind": "ergm", "vertices": 3, "motifs": [5], "beta": [0.1]},
                    "sweeps": 1}),
        ("sample", {"model": {"kind": "rademacher", "n": "x"}, "sweeps": 1}),
        ("bound", {"bound": dict(_GENERAL_D1, profile={"d": 1}), "t_grid": [1.0]}),
        ("bound", {"bound": _GENERAL_D1, "t_grid": {"start": 0.0, "stop": 1.0, "count": -3}}),
        ("bound", {"bound": _GENERAL_D1, "t_grid": {"start": 0.0, "stop": 1.0, "count": 0}}),
        ("bound", {"bound": _GENERAL_D1,
                   "t_grid": {"start": 0.0, "stop": float("inf"), "count": 3}}),
        ("bound", {"bound": _GENERAL_D1, "t_grid": []}),
        ("bound", {"bound": _GENERAL_D1, "t_grid": [0.0, "x"]}),
        ("verify-tail", {"model": _RAD3, "function": {"kind": "poly", "coefficients": [
            {"order": 1, "tensor": [1.0, 1.0, 1.0]}]},
            "bound": _GENERAL_D1, "t_grid": [float("nan"), 1.0]}),
        ("verify-tail", {"model": _RAD3, "function": {"kind": "poly", "coefficients": [
            {"order": 1, "tensor": [1.0, 1.0, 1.0]}]},
            "bound": _GENERAL_D1, "t_grid": [1.0, float("-inf")]}),
        ("sample", {"model": _RAD3, "sweeps": 1, "burn_in": "x"}),
        ("sample", {"model": _RAD3, "sweeps": 1, "thinning": "x"}),
        ("sample", {"model": _RAD3, "sweeps": 1, "seed": "x"}),
        ("verify-tail", _tail(function={"kind": "table", "values": "abc"})),
        ("sample", {"model": _ERGM3 | {"beta": "ab"}, "sweeps": 1}),
        ("bound", _bound({"kind": "hanson_wright", "matrix": "x", "M": 1.0,
                          "regime": {"kind": "independent", "d": 2}})),
        ("verify-moments", _moments(p_grid=["x"])),
        ("verify-tail", _tail(function={"kind": "poly", "coefficients": [
            {"order": "x", "tensor": [1.0, 1.0, 1.0]}]})),
        ("verify-tail", _tail(function={"kind": "ustat", "order": "x",
                                        "kernel": [[1.0, 0.0], [0.0, 1.0]]})),
        ("verify-tail", _tail(function={"kind": "chaos", "order": 1, "dim": "x", "coefficients": [
            {"subset": [0], "vector": [1.0]}]})),
        ("sample", {"model": _RAD3, "sweeps": 1, "seed": -1}),
        ("sample", {"model": {"kind": "curie_weiss", "n": 3, "beta": 0.5, "field": "x"},
                    "sweeps": 1}),
        ("sample", {"model": {"kind": "ising", "coupling": "x", "field": [0.0, 0.0]}, "sweeps": 1}),
        ("sample", {"model": {"kind": "coloring", "vertices": 3, "edges": [[0, 1], 1],
                              "colors": 3}, "sweeps": 1}),
        ("sample", {"model": {"kind": "measure", "document": _MEASURE1 | {
            "measure": {"kind": "exact"}}}, "sweeps": 1}),
        ("sample", {"model": {"kind": "measure", "document": _MEASURE1 | {"n": "x"}},
                    "sweeps": 1}),
        ("lsi", {"model": _RAD3, "starts": "x"}),
        ("bound", _bound({"kind": "suprema", "expected_w": ["x"], "w_top_sup": 2.0,
                          "regime": {"kind": "dlsi", "sigma2": 1.0, "d": 2}})),
        ("bound", _bound({"kind": "moment", "coefficients": [1.0], "shift": "x"})),
        ("bound", _bound({"kind": "polynomial", "d": 1, "sigma": 1.0, "c_user": "x"},
                         model=_RAD3, function=_LINEAR3)),
        ("bound", _bound(dict(_GENERAL_D1, profile={"d": 1, "gamma": [1.0], "stderr": 5}))),
        ("verify-moments", _moments(p_grid=5)),
        ("sample", {"model": {"kind": "rademacher", "n": 1.7}, "sweeps": 1}),
        ("sample", {"model": {"kind": "rademacher", "n": True}, "sweeps": 1}),
        ("bound", _bound({"kind": "ustat", "B": 1.0, "n": 4, "d": 2, "normalized": "false",
                          "regime": {"kind": "independent", "d": 2}})),
        ("bound", _bound(dict(_GENERAL_D1, profile={"d": 1, "gamma": [1.0], "mode": "bogus"}))),
        ("bound", _bound(dict(_GENERAL_D1, regime={"kind": "dlsi", "sigma2": float("nan"),
                                                   "d": 1}))),
        ("sample", {"model": _RAD3, "sweeps": 1, "format": "bogus"}),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({"search": {"starts": 0, "seed": 1}})))),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({"search": "x"})))),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({"starts": 2, "seed": 1})))),
        ("bound", _bound({"kind": "suprema", "expected_w": [], "w_top_sup": 2.0,
                          "regime": _dlsi({"search": {"starts": 2, "seed": 1}})})),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({"spectral": 1})))),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({"spectral": {"starts": 4}})))),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi({})))),
        ("verify-tail", _tail(bound=dict(_GENERAL_D1, regime=_dlsi(
            {"spectral": {}, "search": {"starts": 2, "seed": 1}})))),
    ],
    ids=["table-without-values", "motif-without-edges", "motif-not-an-object", "n-not-a-number",
         "profile-without-gamma", "t-grid-negative-count", "t-grid-zero-count",
         "t-grid-infinite-stop", "t-grid-empty", "t-grid-not-a-number", "t-grid-nan",
         "t-grid-minus-inf", "burn-in-not-a-number", "thinning-not-a-number",
         "seed-not-a-number", "table-values-a-string", "ergm-beta-a-string",
         "hanson-wright-matrix-a-string", "p-grid-entry-a-string", "poly-order-a-string",
         "ustat-order-a-string", "chaos-dim-a-string", "seed-negative",
         "curie-weiss-field-a-string", "ising-coupling-a-string", "coloring-edge-not-a-pair",
         "exact-measure-without-table", "measure-n-a-string", "starts-not-a-number",
         "expected-w-entry-a-string", "moment-shift-a-string", "c-user-a-string",
         "profile-stderr-not-a-list", "p-grid-not-a-list", "n-fractional", "n-a-bool",
         "normalized-a-string", "profile-mode-unknown", "sigma2-nan", "sample-format-unknown",
         "sigma2-search-starts-zero", "sigma2-search-not-an-object", "sigma2-object-without-search",
         "sigma2-search-without-model", "sigma2-spectral-a-number", "sigma2-spectral-with-a-key",
         "sigma2-empty-object", "sigma2-search-and-spectral"],
)
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "bad.json", doc)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bound_doc",
    [
        {"kind": "general", "regime": {"kind": "independent", "d": 1}},
        {"kind": "general", "regime": _dlsi({"spectral": {}})},
        {"kind": "polynomial", "d": 1, "sigma": 1.0},
    ],
    ids=["general", "general-sigma2-spectral", "polynomial"],
)
def test_verify_tail_builds_the_model_and_function_once(tmp_path, monkeypatch, bound_doc):
    import concentra.cli as cli

    calls = {"build_model": 0, "function_from_json": 0}
    for name in calls:
        def counted(doc, original=getattr(cli, name), name=name):
            calls[name] += 1
            return original(doc)

        monkeypatch.setattr(cli, name, counted)
    cfg = write_config(tmp_path, "c.json", _tail(bound=bound_doc, t_grid=[0.5, 1.0]))
    assert main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_VIOLATION)
    assert calls == {"build_model": 1, "function_from_json": 1}


def _count_table_builds(monkeypatch):
    from concentra.funcs import FunctionSpec

    calls = []
    original = FunctionSpec.evaluate_table
    monkeypatch.setattr(FunctionSpec, "evaluate_table", lambda self, space: calls.append(1) or original(self, space))
    return calls


@pytest.mark.parametrize("t_grid", [[0.5, 1.0], None], ids=["grid", "default-grid"])
def test_exact_verify_tail_builds_the_function_table_once(tmp_path, monkeypatch, t_grid):
    calls = _count_table_builds(monkeypatch)
    doc = _tail(model=_ERGM3, bound={"kind": "general", "regime": {"kind": "independent", "d": 1}})
    if t_grid is None:
        del doc["t_grid"]
    else:
        doc["t_grid"] = t_grid
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_VIOLATION)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["rademacher4-pair", "ergm4-triangles"])
def test_corpus_entry_builds_the_function_table_once(monkeypatch, name):
    calls = _count_table_builds(monkeypatch)
    run_corpus_entry(name)
    assert len(calls) == 1


def test_cli_import_loads_no_scipy():
    import subprocess
    import sys

    import concentra

    code = "import sys, concentra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {"PYTHONPATH": str(Path(concentra.__file__).parent.parent), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_one_parser_per_process_built_on_the_first_command(tmp_path):
    # The benchmark's setup_s times `import concentra.cli`, so the import builds
    # no parser; the first `main` call builds the one that later calls reuse.
    import subprocess
    import sys

    import concentra

    cfg = write_config(tmp_path, "t.json", _tail())
    code = (
        "import concentra.cli as cli; built = []; make = cli.make_parser; "
        "cli.make_parser = lambda: built.append(1) or make(); "
        "print(cli._parser.cache_info().currsize); "
        f"codes = [cli.main(['verify-tail', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) "
        "for _ in range(3)]; "
        "print(codes, len(built))"
    )
    env = {"PYTHONPATH": str(Path(concentra.__file__).parent.parent), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("0", f"{[EXIT_OK] * 3} 1")


@pytest.mark.parametrize("operator", ["d", "h"])
def test_lsi_command_loads_no_scipy(tmp_path, operator):
    import subprocess
    import sys

    import concentra

    cfg = write_config(tmp_path, "l.json", {"model": _RAD3, "operator": operator, "starts": 4})
    code = (
        "import sys; from concentra.cli import main; "
        f"rc = main(['lsi', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {"PYTHONPATH": str(Path(concentra.__file__).parent.parent), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == f"{EXIT_OK} []"


def test_benchmark_setup_and_d_search_load_no_scipy_sparse(tmp_path):
    # The benchmark's setup_s times `import concentra.cli` plus building each
    # workload's models, and suite-lsi's peak_rss_mib a whole pass; the `lsi`
    # d report's eigensolve is numpy's, so neither loads scipy.sparse.
    import subprocess
    import sys

    import concentra

    root = Path(concentra.__file__).parent.parent.parent
    code = (
        "import sys, json, tempfile; sys.path.insert(0, 'perfbench'); import workloads; "
        "from concentra.cli import build_model, main; "
        "[build_model(doc) for make in workloads.WORKLOADS.values() for doc in make(0, tiny=True).model_docs()]; "
        "print('scipy.sparse' in sys.modules); "
        "lsi = workloads.suite_lsi(0, tiny=True).commands[-1]; "
        f"cfg = {str(tmp_path / 'l.json')!r}; open(cfg, 'w').write(json.dumps(lsi.config)); "
        f"rc = main(lsi.argv(cfg, {str(tmp_path / 'out')!r})); "
        "print(rc, lsi.config['operator'], 'scipy.sparse' in sys.modules)"
    )
    env = {"PYTHONPATH": str(root / "src"), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("False", f"{EXIT_OK} d False")


@pytest.mark.parametrize("table", [[0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0]], ids=["reducible", "single-point"])
def test_sigma2_spectral_without_a_gap_exits_2(tmp_path, capsys, table):
    model = {"kind": "measure", "document": {"n": 2, "alphabets": [[0.0, 1.0], [0.0, 1.0]],
                                             "measure": {"kind": "exact", "table": table}}}
    doc = _bound(dict(_GENERAL_D1, regime=_dlsi({"spectral": {}})), model=model)
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "no spectral gap" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sigma2_spectral_is_the_upper_end_of_the_bracket(tmp_path):
    from concentra.cli import Inputs, build_bound
    from concentra.lsi import spectral_bracket
    from concentra.space import bernoulli_product

    doc = _bound(dict(_GENERAL_D1, regime=_dlsi({"spectral": {}})), model={"kind": "bernoulli", "n": 2, "p": 0.3})
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert build_bound(Inputs(doc)).regime.sigma2 == spectral_bracket(bernoulli_product(2, 0.3))[1]


def test_bracket_is_computed_only_where_it_is_published(tmp_path, monkeypatch):
    # `lsi --operator d` and a {"spectral"} sigma^2 each take the bracket once
    from concentra import lsi

    calls = []
    original = lsi._bracket
    monkeypatch.setattr(lsi, "_bracket", lambda *a: calls.append(1) or original(*a))
    model = {"kind": "bernoulli", "n": 2, "p": 0.3}
    doc = _bound(dict(_GENERAL_D1, regime=_dlsi({"spectral": {}})), model=model)
    assert main(["bound", "--config", write_config(tmp_path, "b.json", doc), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert len(calls) == 1
    cfg = write_config(tmp_path, "l.json", {"model": model, "operator": "d", "starts": 4})
    assert main(["lsi", "--config", cfg, "--out", str(tmp_path / "l")]) == EXIT_OK
    assert len(calls) == 2
    assert json.loads((tmp_path / "l" / "lsi_report.json").read_text())["sigma2_upper"] is not None


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_file_reruns_as_verify_tail(tmp_path, name):
    config = resources.files("concentra") / "corpus" / f"{name}.json"
    assert main(["verify-tail", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "domination.json").read_text())
    entry = run_corpus_entry(name)
    assert (doc["min_margin"], doc["safety_factor"]) == (entry["min_margin"], entry["safety_factor"])
    rows = (tmp_path / "tail_curve.csv").read_text().splitlines()
    assert len(rows) - 1 == entry["grid_points"]


def test_verify_tail_default_grid_is_the_domination_grid(tmp_path):
    doc = _tail()
    del doc["t_grid"]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    grid = [float(row.split(",")[0]) for row in (tmp_path / "out" / "tail_curve.csv").read_text().splitlines()[1:]]
    bound = TailBound(((1.0, 1.0),), INDEPENDENT_C_FACTOR)
    assert grid == domination_grid(bound, 3.0).tolist()


def test_each_subcommand_takes_only_the_flags_it_reads():
    from concentra.cli import make_parser

    sub = next(a for a in make_parser()._actions if a.dest == "command")
    flags = {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert flags == {
        "verify-tail": {"--config", "--out", "--seed", "--mode", "--samples"},
        "lsi": {"--config", "--out", "--seed"},
        "sample": {"--config", "--out", "--seed"},
        "bound": {"--config", "--out"},
        "verify-moments": {"--config", "--out"},
        "fourier": {"--config", "--out"},
        "suite": {"--out", "--seed", "--jobs"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--config", "c.json", "--mode", "mc"],
        ["sample", "--config", "c.json", "--seed", "-1"],
        ["suite", "--seed", "x"],
        ["suite", "--jobs", "0"],
        ["suite", "--jobs", "-1"],
        ["suite", "--jobs", "x"],
        ["verify-tail", "--config", "c.json", "--mode", "mc", "--samples", "0"],
        ["verify-tail", "--config", "c.json", "--mode", "mc", "--samples", "-5"],
        ["verify-tail", "--config", "c.json", "--mode", "mc", "--samples", str(SAMPLER_MAX_SWEEPS + 1)],
        ["verify-tail", "--config", "c.json", "--mode", "mc", "--samples", str(10**30)],
    ],
    ids=["flag-not-read", "seed-negative", "seed-not-a-number", "jobs-zero", "jobs-negative", "jobs-not-a-number",
         "samples-zero", "samples-negative", "samples-above-limit", "samples-huge"],
)
def test_bad_usage_exits_2_before_any_work(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_SCHEMA
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_sample_thinning_past_sweeps_writes_empty_stream(tmp_path, fmt):
    from concentra.models import read_samples_binary
    from concentra.space import rademacher

    cfg = write_config(
        tmp_path, "s.json", {"model": _RAD3, "sweeps": 1, "thinning": 2, "format": fmt}
    )
    rc = main(["sample", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    if fmt == "csv":
        assert (tmp_path / "out" / "samples.csv").read_text() == ""
    else:
        back = read_samples_binary(tmp_path / "out" / "samples.bin", rademacher(3).space)
        assert back.shape == (0, 3)


@pytest.mark.parametrize(
    "function",
    [
        {"kind": "table", "values": [0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]},
        {"kind": "ustat", "order": 2, "kernel": [[1.0, 0.0], [0.0, 1.0]]},
    ],
    ids=["table", "ustat"],
)
def test_verify_tail_monte_carlo_space_bound_functions(tmp_path, function):
    cfg = write_config(
        tmp_path,
        "mc.json",
        {
            "model": _RAD3,
            "function": function,
            "bound": {"kind": "general", "regime": {"kind": "independent", "d": 1},
                      "profile": {"d": 1, "gamma": [2.0]}},
            "t_grid": [0.0, 0.5, 1.0, 2.0],
            "seed": 1,
            "samples": 200,
            "burn_in": 5,
        },
    )
    rc = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out"), "--mode", "mc"])
    assert rc in (EXIT_OK, EXIT_VIOLATION)
    assert (tmp_path / "out" / "tail_curve.csv").exists()


# One small valid config per command and per model, function and bound kind (n <= 3).
_FUZZ_BASES = [
    ("bound", _bound({"kind": "ustat", "B": 1.0, "n": 3, "d": 2, "normalized": False,
                      "regime": {"kind": "independent", "d": 2}})),
    ("bound", _bound(dict(_GENERAL_D1, profile={"d": 1, "gamma": [1.0], "mode": "exact",
                                                "stderr": [0.0]}))),
    ("bound", {"bound": {"kind": "chaos", "expected_w": [1.0], "sigma2": 1.0, "a": -1.0, "b": 1.0,
                         "d": 1, "variant": "upper"},
               "t_grid": {"start": 0.0, "stop": 2.0, "count": 3}}),
    ("bound", _bound({"kind": "suprema", "expected_w": [1.0], "w_top_sup": 2.0,
                      "regime": {"kind": "dlsi", "sigma2": 1.0, "d": 2}})),
    ("bound", _bound({"kind": "boolean", "weights": [0.5], "d": 1})),
    ("bound", _bound({"kind": "moment", "coefficients": [1.0], "shift": 0.5})),
    ("bound", _bound({"kind": "hanson_wright", "matrix": [[0.0, 0.5], [0.5, 0.0]], "M": 1.0,
                      "regime": {"kind": "independent", "d": 2}})),
    ("bound", _bound({"kind": "ergm_triangle", "n": 3, "c_two_star": 0.25, "c_edge": 0.5,
                      "c_user": 40.0})),
    ("bound", _bound({"kind": "polynomial", "d": 1, "sigma": 1.0, "c_user": 60.0},
                     model=_RAD3, function=_LINEAR3)),
    ("verify-tail", _tail(function={"kind": "quadform",
                                    "matrix": [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]},
                          bound={"kind": "general", "regime": {"kind": "independent", "d": 2}},
                          mode="exact", side="two")),
    ("verify-tail", _tail(function={"kind": "sup", "members": [
        _LINEAR3, {"kind": "table", "values": [0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]}]},
        mode="mc", samples=20, burn_in=2, seed=1)),
    ("verify-tail", _tail(model={"kind": "bernoulli", "n": 3, "p": 0.3},
                          function={"kind": "ustat", "order": 2, "kernel": [[1.0, 0.0], [0.0, 1.0]]},
                          bound=dict(_GENERAL_D1, profile={"d": 1, "gamma": [4.0]}))),
    ("verify-tail", _tail(function={"kind": "chaos", "order": 1, "dim": 3, "norm": "linf",
                                    "coefficients": [{"subset": [0], "vector": [1.0, 0.5]}]})),
    ("verify-moments", _moments(model={"kind": "measure", "document": _MEASURE1},
                                function={"kind": "table", "values": [0.0, 1.0]})),
    ("lsi", {"model": {"kind": "ising", "coupling": [[0.0, 0.2], [0.2, 0.0]], "field": [0.0, 0.1]},
             "operator": "d", "starts": 2, "seed": 1}),
    ("fourier", {"function": {"kind": "table", "values": [0.0, 1.0, 1.0, 0.0]}, "n": 2}),
    ("sample", {"model": {"kind": "curie_weiss", "n": 3, "beta": 0.5, "field": 0.0}, "sweeps": 3,
                "burn_in": 1, "thinning": 1, "seed": 2, "format": "csv"}),
    ("sample", {"model": {"kind": "coloring", "vertices": 3, "edges": [[0, 1], [1, 2]], "colors": 3},
                "sweeps": 2}),
    ("sample", {"model": _ERGM3, "sweeps": 2, "format": "binary"}),
    ("sample", {"model": {"kind": "measure", "document": {
        "n": 2, "alphabets": [[-1.0, 1.0], [-1.0, 1.0]],
        "measure": {"kind": "gibbs", "log_weights": [0.0, 0.1, 0.1, 0.0]}}}, "sweeps": 2}),
    ("sample", {"model": {"kind": "measure", "document": {
        "n": 1, "alphabets": [[0.0, 1.0, 2.0]],
        "measure": {"kind": "product", "tables": [[0.2, 0.3, 0.5]]}}}, "sweeps": 2}),
]


def _paths(doc, prefix=()):
    """Every key and index path into a config, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def _run_quietly(command, doc):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = write_config(Path(tmp), "c.json", doc)
        rc = main([command, "--config", cfg, "--out", f"{tmp}/out"])
    return rc, err.getvalue()


def test_fuzz_bases_are_valid():
    for command, doc in _FUZZ_BASES:
        rc, err = _run_quietly(command, doc)
        assert rc in (EXIT_OK, EXIT_VIOLATION), (command, doc, err)


_FUZZ_SCALARS = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.sampled_from([0.5, float("nan"), float("inf"), float("-inf")]),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_mutated_field_exits_0_2_or_3_without_traceback(data):
    # Types only, never large integers, so that no example can start a long run.
    command, doc = data.draw(st.sampled_from(_FUZZ_BASES))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    rc, err = _run_quietly(command, _replaced(doc, path, data.draw(_FUZZ_VALUES)))
    assert rc in (EXIT_OK, EXIT_SCHEMA, EXIT_VIOLATION)
    assert "Traceback" not in err


_MODEL_BASES = [(command, doc) for command, doc in _FUZZ_BASES if "model" in doc]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.one_of(
    st.integers(CURIE_WEISS_MAX_N + 1, 1 << 40), st.sampled_from([10**6, 10**9, 1 << 63, 10**30])))
def test_huge_curie_weiss_n_exits_2_before_anything_is_built(data, n):
    # The mutation above sets types only; here every command that reads a
    # model gets a Curie-Weiss model whose dense coupling could not be built.
    from unittest import mock

    from concentra import models

    command, doc = data.draw(st.sampled_from(_MODEL_BASES))
    doc = _replaced(doc, ("model",), {"kind": "curie_weiss", "n": n, "beta": 0.5})
    with mock.patch.object(models, "curie_weiss_spec", side_effect=AssertionError("built a Curie-Weiss spec")):
        rc, err = _run_quietly(command, doc)
    assert rc == EXIT_SCHEMA
    assert "config error" in err and "Traceback" not in err


# Every sampler size field of a config that runs a chain: (command, base, key).
_SAMPLER_FIELDS = [
    (command, doc, key)
    for command, doc in _FUZZ_BASES
    for key in {"sample": ("sweeps", "burn_in"), "verify-tail": ("samples", "burn_in")}.get(command, ())
    if command == "sample" or doc.get("mode") == "mc"
]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), size=st.one_of(
    st.integers(SAMPLER_MAX_SWEEPS + 1, 1 << 40), st.sampled_from([10**12, 1 << 63, 10**30])))
def test_huge_sampler_size_exits_2_before_a_chain_is_built(data, size):
    from unittest import mock

    from concentra import models

    command, doc, key = data.draw(st.sampled_from(_SAMPLER_FIELDS))
    doc = _replaced(doc, (key,), size)
    with mock.patch.object(models, "GlauberChain", side_effect=AssertionError("built a chain")):
        rc, err = _run_quietly(command, doc)
    assert rc == EXIT_SCHEMA
    assert "config error" in err and f"from {0 if key == 'burn_in' else 1} to {SAMPLER_MAX_SWEEPS}" in err
    assert "Traceback" not in err


def _size_fields():
    """Every size field of a fuzz base that the reader bounds: (command, base,
    path, limit, module, name), where `module.name` builds what the field sizes."""
    from concentra import cli, models, space

    sites = {"rademacher": ("n", space, "ProductSpace"), "bernoulli": ("n", space, "ProductSpace"),
             "coloring": ("vertices", models, "build_coloring"), "ergm": ("vertices", models, "build_ergm")}
    out = []
    for command, doc in _FUZZ_BASES:
        kind = doc.get("model", {}).get("kind")
        if kind in sites:
            key, module, name = sites[kind]
            limit = ERGM_MAX_VERTICES if kind == "ergm" else MAX_SITES
            out.append((command, doc, ("model", key), limit, module, name))
        if isinstance(doc.get("t_grid"), dict):
            out.append((command, doc, ("t_grid", "count"), T_GRID_MAX_COUNT, np, "linspace"))
        if command == "fourier":
            out.append((command, doc, ("n",), FOURIER_MAX_N, space, "ProductSpace"))
        if command == "lsi":
            out.append((command, doc, ("starts",), LSI_MAX_STARTS, cli, "lsi_constant_search"))
    # A chain's site updates, (burn_in + sweeps) x sites: on 64 sites the kept
    # sweeps meet that bound before their own.
    wide, per_site = {"kind": "rademacher", "n": 64}, SAMPLER_MAX_UPDATES // 64
    linear = {"kind": "poly", "coefficients": [{"order": 1, "tensor": [1.0] * 64}]}
    out.append(("sample", {"model": wide, "sweeps": 1}, ("sweeps",), per_site, models, "GlauberChain"))
    out.append(("verify-tail", _tail(model=wide, function=linear, mode="mc", samples=1, burn_in=0),
                ("samples",), per_site, models, "GlauberChain"))
    return out


_SIZE_FIELDS = _size_fields()


def test_size_fields_cover_every_bounded_kind():
    kinds = {doc["model"]["kind"] for _, doc, path, *_ in _SIZE_FIELDS if path[0] == "model"}
    assert kinds == {"rademacher", "bernoulli", "coloring", "ergm"}
    paths = {".".join(path) for _, _, path, *_ in _SIZE_FIELDS}
    assert paths == {"model.n", "model.vertices", "t_grid.count", "n", "starts", "sweeps", "samples"}


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), excess=st.one_of(
    st.integers(1, 1 << 40), st.sampled_from([10**7, 10**12, 10**13, 1 << 63, 10**30])))
def test_huge_size_exits_2_before_anything_is_built(data, excess):
    from unittest import mock

    command, doc, path, limit, module, name = data.draw(st.sampled_from(_SIZE_FIELDS))
    doc = _replaced(doc, path, limit + excess)
    with mock.patch.object(module, name, side_effect=AssertionError(f"built {name}")) as built:
        rc, err = _run_quietly(command, doc)
    built.assert_not_called()
    assert rc == EXIT_SCHEMA
    assert "config error" in err and f"from 1 to {limit}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc, path, limit, module, name", _SIZE_FIELDS,
                         ids=[f"{f[0]}-{'.'.join(f[2])}-{i}" for i, f in enumerate(_SIZE_FIELDS)])
def test_size_fields_are_read_up_to_their_limit(command, doc, path, limit, module, name):
    # At its limit a field passes the reader, and the run reaches what it sizes.
    from unittest import mock

    with mock.patch.object(module, name, side_effect=AssertionError(f"built {name}")), \
            pytest.raises(AssertionError, match=f"built {name}"):
        _run_quietly(command, _replaced(doc, path, limit))


def test_sampler_sizes_are_read_up_to_their_limit(tmp_path):
    from unittest import mock

    from concentra import models

    doc = {"model": _RAD3, "sweeps": SAMPLER_MAX_SWEEPS, "burn_in": SAMPLER_MAX_SWEEPS}
    with mock.patch.object(models, "glauber_sample", return_value=np.zeros((1, 3))) as sample:
        assert main(["sample", "--config", write_config(tmp_path, "s.json", doc),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    sample.assert_called_once_with(mock.ANY, SAMPLER_MAX_SWEEPS, SAMPLER_MAX_SWEEPS, 1, 0)


@pytest.mark.parametrize("sites, sweeps, burn_in, ok", [
    (16, SAMPLER_MAX_SWEEPS, SAMPLER_MAX_SWEEPS, True),  # the glauber-mc ring reaches both sweep limits
    (1024, 32_000, 768, True),
    (1024, 32_000, 769, False),
    (1024, 32_769, 0, False),
])
def test_a_chains_site_updates_are_bounded_before_it_is_built(sites, sweeps, burn_in, ok):
    # (burn_in + sweeps) x sites at most SAMPLER_MAX_UPDATES = 2^25, for `sample` and an mc `verify-tail`
    from unittest import mock

    from concentra import models

    model = {"kind": "rademacher", "n": sites}
    linear = {"kind": "poly", "coefficients": [{"order": 1, "tensor": [1.0] * sites}]}
    for command, doc in [("sample", {"model": model, "sweeps": sweeps, "burn_in": burn_in}),
                         ("verify-tail", _tail(model=model, function=linear, mode="mc", samples=sweeps,
                                               burn_in=burn_in))]:
        with mock.patch.object(models, "GlauberChain", side_effect=AssertionError("built a chain")) as chain:
            if ok:
                with pytest.raises(AssertionError, match="built a chain"):
                    _run_quietly(command, doc)
            else:
                rc, err = _run_quietly(command, doc)
                assert rc == EXIT_SCHEMA and "config error" in err and "Traceback" not in err
                chain.assert_not_called()


def test_the_samples_flag_is_bounded_by_the_chains_site_updates(tmp_path):
    # --samples is read at parse time up to SAMPLER_MAX_SWEEPS, then with the model's sites
    from unittest import mock

    from concentra import models

    doc = _tail(model={"kind": "rademacher", "n": 1024}, mode="mc", burn_in=0,
                function={"kind": "poly", "coefficients": [{"order": 1, "tensor": [1.0] * 1024}]})
    cfg = write_config(tmp_path, "c.json", doc)
    with mock.patch.object(models, "GlauberChain", side_effect=AssertionError("built a chain")) as chain, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out"), "--samples", "32769"])
    assert rc == EXIT_SCHEMA and "'samples' must be an integer from 1 to 32768" in err.getvalue()
    chain.assert_not_called()


_TRIANGLE = {"edges": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("motifs, rows", [
    ([_TRIANGLE] * 12, 1980 + 12 * 85_140),
    ([_TRIANGLE] * 13, 1980 + 13 * 85_140),
    ([{"edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}], 1980 + 45 * 44 * 43 * 42 * 41),
], ids=["12-triangles", "13-triangles", "5-vertex-path"])
def test_ergm_motif_embeddings_are_bounded_before_a_row_is_built(motifs, rows):
    # V!/(V - |motif|)! rows per motif, with the single edge first, at 45 vertices
    from unittest import mock

    from concentra import models

    doc = {"model": {"kind": "ergm", "vertices": ERGM_MAX_VERTICES, "motifs": [{"edges": [[0, 1]]}] + motifs,
                     "beta": [0.1] * (1 + len(motifs))}, "sweeps": 1}
    with mock.patch.object(models, "_embedding_edge_indices", side_effect=AssertionError("built rows")) as build:
        if rows <= ERGM_MAX_EMBEDDINGS:
            with pytest.raises(AssertionError, match="built rows"):
                _run_quietly("sample", doc)
        else:
            rc, err = _run_quietly("sample", doc)
            assert rc == EXIT_SCHEMA
            assert "config error" in err and f"at most {ERGM_MAX_EMBEDDINGS} rows" in err and f"got {rows}" in err
            assert "Traceback" not in err
            build.assert_not_called()


def test_curie_weiss_n_is_read_up_to_its_limit():
    assert build_model({"kind": "curie_weiss", "n": CURIE_WEISS_MAX_N, "beta": 0.5}).space.n == CURIE_WEISS_MAX_N
    with pytest.raises(SchemaError, match=f"from 1 to {CURIE_WEISS_MAX_N}"):
        build_model({"kind": "curie_weiss", "n": CURIE_WEISS_MAX_N + 1, "beta": 0.5})


def test_verify_tail_on_a_degenerate_bernoulli_has_a_zero_profile(tmp_path):
    # p = 1 leaves every coordinate one letter of support: no pair to difference
    from concentra.diffops import norm_profile
    from concentra.funcs import function_from_json

    model = {"kind": "bernoulli", "n": 3, "p": 1.0}
    function = {"kind": "quadform", "matrix": [[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]}
    cfg = write_config(tmp_path, "t.json", {
        "model": model, "function": function,
        "bound": {"kind": "general", "regime": {"kind": "independent", "d": 2}},
        "t_grid": [0.0, 0.5, 1.0],
    })
    assert main(["verify-tail", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert norm_profile(function_from_json(function), build_model(model), 2).gamma == (0.0, 0.0)
    rows = (tmp_path / "out" / "tail_curve.csv").read_text().splitlines()[2:]
    assert rows and all(float(row.split(",")[3]) == 0.0 for row in rows)  # raw bound 0 for t > 0
