import json

import numpy as np
import pytest

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
    ],
    ids=["table-without-values", "motif-without-edges", "motif-not-an-object", "n-not-a-number",
         "profile-without-gamma", "t-grid-negative-count", "t-grid-zero-count",
         "t-grid-infinite-stop", "t-grid-empty", "t-grid-not-a-number", "t-grid-nan",
         "t-grid-minus-inf"],
)
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "bad.json", doc)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert "config error" in err and "Traceback" not in err
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
