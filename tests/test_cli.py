import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from zenodecay.cli import (
    main,
    parse_config,
    render_rows,
    run_sweep,
    sweep_columns,
)
from zenodecay.errors import ConfigError

CUBIC_Y = {"kind": "power_law", "amplitude": 1.0, "exponent": 3.0,
           "support": [0.0, 2.0]}
FLAT_Y = {"kind": "flat", "level": 0.05, "support": [-5.0, 5.0]}


def rabi_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": {
            "kind": "rabi",
            "m_y": dict(CUBIC_Y),
            "omega_f": 1.0,
            "omega": 0.2,
            "omega_21": 4.0,
        },
        "sweep": {"path": "rabi.omega", "values": [0.1, 0.2, 0.4]},
        "routes": "analytic",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_minimal_config(self):
        config = parse_config(rabi_config())
        assert config.routes == "analytic"
        assert config.sweep_path == "rabi.omega"
        np.testing.assert_allclose(config.sweep_values, [0.1, 0.2, 0.4])
        assert config.out_format == "csv"
        assert config.out_path is None

    def test_top_level_validation(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(rabi_config(extra=1))
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"scenario": {}})
        with pytest.raises(ConfigError, match="unsupported version"):
            parse_config(rabi_config(schema_version=2))
        with pytest.raises(ConfigError, match="got bool"):
            parse_config(rabi_config(schema_version=True))

    def test_routes_validation(self):
        with pytest.raises(ConfigError, match="routes"):
            parse_config(rabi_config(routes="fastest"))

    def test_scenario_validation(self):
        cfg = rabi_config()
        cfg["scenario"]["kind"] = "mystery"
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            parse_config(cfg)
        cfg = rabi_config()
        del cfg["scenario"]["omega_21"]
        with pytest.raises(ConfigError, match="omega_21"):
            parse_config(cfg)
        cfg = rabi_config()
        cfg["scenario"]["m_y"] = {"kind": "flat", "level": 1.0,
                                  "support": [2.0, 2.0]}
        with pytest.raises(ConfigError, match="m_y"):
            parse_config(cfg)

    def test_sweep_path_validation(self):
        cfg = rabi_config()
        cfg["sweep"]["path"] = "rabi.detuning"
        with pytest.raises(ConfigError, match="known paths"):
            parse_config(cfg)
        cfg = rabi_config()
        cfg["sweep"]["path"] = "unstable.lambda_r"
        with pytest.raises(ConfigError, match="applies to"):
            parse_config(cfg)
        with pytest.raises(ConfigError, match="missing required field"):
            parse_config(rabi_config(sweep=None))

    def test_sweep_form_compatibility(self):
        cfg = rabi_config(
            scenario={
                "kind": "scattering",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "m_z": dict(FLAT_Y),
                "z_resonance": 0.0,
            },
            sweep={"path": "scattering.rate", "values": [0.1, 0.2]},
        )
        with pytest.raises(ConfigError, match="cannot be swept"):
            parse_config(cfg)

    def test_sweep_values_validation(self):
        for bad in ([], [0.2, 0.1], [0.1, 0.1], [0.1, "x"], [0.1, True]):
            cfg = rabi_config()
            cfg["sweep"]["values"] = bad
            with pytest.raises(ConfigError):
                parse_config(cfg)

    def test_sweep_range_forms(self):
        cfg = rabi_config()
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 4, "spacing": "log"}
        config = parse_config(cfg)
        np.testing.assert_allclose(config.sweep_values,
                                   np.geomspace(0.1, 0.4, 4))
        cfg["sweep"]["start"] = -1.0
        with pytest.raises(ConfigError, match="log spacing"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.4, "stop": 0.1,
                        "count": 4}
        with pytest.raises(ConfigError, match="below stop"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 0}
        with pytest.raises(ConfigError, match="at least 1"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 4, "spacing": "cubic"}
        with pytest.raises(ConfigError, match="spacing"):
            parse_config(cfg)

    def test_dynamic_controls_validation(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config(rabi_config(dynamic=[1]))
        with pytest.raises(ConfigError, match="at least 100"):
            parse_config(rabi_config(dynamic={"n_y": 10}))
        with pytest.raises(ConfigError, match="at least 50"):
            parse_config(rabi_config(dynamic={"n_z": 10}))
        with pytest.raises(ConfigError, match="positive"):
            parse_config(rabi_config(dynamic={"dt": -0.1}))
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(rabi_config(dynamic={"n_modes": 100}))
        with pytest.raises(ConfigError, match="fit_window"):
            parse_config(rabi_config(dynamic={"fit_window": [5.0, 2.0]}))
        config = parse_config(rabi_config(
            dynamic={"n_y": 200, "fit_window": [2.0, 5.0], "dt": 0.01}
        ))
        assert config.controls.n_y == 200
        assert config.controls.fit_window == (2.0, 5.0)

    def test_output_validation(self):
        with pytest.raises(ConfigError, match="output"):
            parse_config(rabi_config(output={"format": "xml"}))
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config(rabi_config(output="out.csv"))
        config = parse_config(rabi_config(
            output={"path": "out.json", "format": "json"}
        ))
        assert config.out_path == "out.json"
        assert config.out_format == "json"


class TestColumnsAndRendering:
    def test_analytic_header_matches_contract(self):
        cols = sweep_columns("analytic")
        assert ",".join(cols).startswith(
            "sweep_param,sweep_value,gamma_analytic,gamma0,ratio,status"
        )
        assert "gamma_dynamic" not in cols
        assert "fit_residual" not in cols

    def test_both_routes_add_comparison_columns(self):
        cols = sweep_columns("both")
        assert cols.index("gamma_analytic") < cols.index("gamma_dynamic")
        assert "route_discrepancy" in cols
        assert "fit_residual" in cols
        assert "normalization_defect" in cols

    def test_csv_floats_round_trip(self):
        rows = [{"a": 1.0 / 3.0, "b": 2.24 * np.pi, "c": None, "d": "ok"}]
        header, data = parse_csv(render_rows(rows, ["a", "b", "c", "d"], "csv"))
        assert header == ["a", "b", "c", "d"]
        assert float(data[0][0]) == 1.0 / 3.0
        assert float(data[0][1]) == 2.24 * np.pi
        assert data[0][2] == ""
        assert data[0][3] == "ok"

    def test_json_round_trip(self):
        rows = [{"a": 0.1 + 0.2, "b": None, "c": "ok"}]
        parsed = json.loads(render_rows(rows, ["a", "b", "c"], "json"))
        assert parsed == [{"a": 0.1 + 0.2, "b": None, "c": "ok"}]


class TestRunSweep:
    def test_rabi_ratio_column(self):
        config = parse_config(rabi_config())
        rows = run_sweep(config)
        assert [row["status"] for row in rows] == ["ok", "ok", "ok"]
        ratios = [row["ratio"] for row in rows]
        for got, want in zip(ratios, (1.0075, 1.03, 1.12)):
            assert got == pytest.approx(want, rel=1e-12)
        assert rows[0]["gamma0"] == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert rows[0]["normalization_defect"] == 0.0

    def test_row_failure_is_isolated(self):
        cfg = rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        )
        rows = run_sweep(parse_config(cfg))
        assert rows[0]["status"] == "error"
        assert rows[0]["gamma_analytic"] is None
        assert "fold the shift" in rows[0]["warnings"]
        assert rows[1]["status"] == "ok"
        assert rows[1]["gamma_analytic"] > 0

    def test_parallel_rendering_matches_serial(self):
        cfg = rabi_config()
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.05, "stop": 0.5,
                        "count": 12}
        failing = rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        )
        # more workers than rows, and a row whose error crosses the pool
        for raw, jobs in ((cfg, 4), (failing, 8)):
            config = parse_config(raw)
            columns = sweep_columns(config.routes)
            serial = render_rows(run_sweep(config, jobs=1), columns, "csv")
            pooled = render_rows(run_sweep(config, jobs=jobs), columns, "csv")
            assert serial == pooled
        assert ",error," in pooled and "fold the shift" in pooled

    def test_rate_row_builds_one_kernel(self, monkeypatch):
        import zenodecay.scenarios as scenarios

        calls = []
        transform = scenarios.kernel_from_dissipation

        def counting(trace):
            calls.append(trace)
            return transform(trace)

        monkeypatch.setattr(scenarios, "kernel_from_dissipation", counting)
        cfg = rabi_config(
            scenario={"kind": "scattering", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                      "rate": 1.0},
            sweep={"path": "scattering.rate", "values": [1.0]},
        )
        rows = run_sweep(parse_config(cfg))
        assert rows[0]["status"] == "ok"
        assert len(calls) == 1


class TestMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, rabi_config())
        assert main(["run", cfg, "--out", str(out)]) == 0
        header, data = parse_csv(out.read_text())
        assert header[:3] == ["sweep_param", "sweep_value", "gamma_analytic"]
        assert len(data) == 3
        assert data[1][header.index("ratio")] == repr(
            float(data[1][header.index("ratio")])
        )

    def test_run_row_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        ))
        out = tmp_path / "report.csv"
        assert main(["run", cfg, "--out", str(out)]) == 1
        _, data = parse_csv(out.read_text())
        assert data[0][-1].startswith("zero width")

    def test_run_rejects_jobs_below_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        for jobs in ("0", "-3"):
            assert main(["run", cfg, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert "--jobs" in captured.err
            assert captured.out == ""

    def test_validate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(routes="fastest"))
        assert main(["validate", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_accepts_sweepless_config(self, tmp_path):
        cfg = rabi_config()
        del cfg["sweep"]
        assert main(["validate", write_config(tmp_path, cfg)]) == 0

    def test_missing_file_is_config_error(self, capsys):
        assert main(["validate", "/nonexistent/config.json"]) == 2

    def test_kernel_atoms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["kernel", cfg]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["position", "weight"]
        assert [float(row[0]) for row in data] == [-0.1, 0.1]
        assert [float(row[1]) for row in data] == [0.5, 0.5]

    def test_kernel_density_needs_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 1.0,
            },
            sweep=None,
        ))
        assert main(["kernel", cfg]) == 2
        assert main(["kernel", cfg, "--range", "bad"]) == 2
        assert main(["kernel", cfg, "--range", "1:0:5"]) == 2
        capsys.readouterr()
        assert main(["kernel", cfg, "--range=-1:1:5"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["epsilon", "density"]
        assert len(data) == 5
        # symmetric grid around the center: peak value 1/(pi lambda_r)
        assert float(data[2][1]) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_trace_dissipation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "scattering",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "rate": 0.25,
            },
            sweep=None,
        ))
        assert main(["trace", cfg, "--quantity", "D", "--horizon", "10"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["time", "real", "imag", "abs"]
        times = np.array([float(r[0]) for r in data])
        mags = np.array([float(r[3]) for r in data])
        np.testing.assert_allclose(mags, np.exp(-0.25 * times), atol=1e-12)

    def test_trace_rejects_bad_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["trace", cfg, "--horizon", "-5"]) == 2

    def test_trace_no_decay_amplitude(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "rabi",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "omega": 0.2,
                "omega_21": 4.0,
            },
            dynamic={"n_y": 100},
        ))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "5"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["time", "real", "imag", "abs"]
        assert float(data[0][3]) == 1.0
        assert all(float(row[3]) <= 1.0 + 1e-9 for row in data)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        cfg = write_config(tmp_path, rabi_config())
        proc = subprocess.run(
            [sys.executable, "-m", "zenodecay", "validate", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("ok")
