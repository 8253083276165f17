import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concentra.cli import (
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VIOLATION,
    build_model,
    build_t_grid,
    main,
)
from concentra.errors import SchemaError
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
         "normalized-a-string", "profile-mode-unknown", "sigma2-nan", "sample-format-unknown"],
)
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "bad.json", doc)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    "argv,env",
    [
        (["bound", "--config", "c.json", "--mode", "mc"], {}),
        (["sample", "--config", "c.json", "--seed", "-1"], {}),
        (["suite", "--seed", "x"], {}),
        (["suite"], {"CONCENTRA_JOBS": "x"}),
    ],
    ids=["flag-not-read", "seed-negative", "seed-not-a-number", "jobs-env-not-a-number"],
)
def test_bad_usage_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
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
