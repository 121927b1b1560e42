"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["show", "--topology", "torus"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out == f"conference-net {repro.__version__}\n"

    def test_version_has_one_source(self):
        """pyproject reads the version from the package, never a copy."""
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }


class TestCommands:
    def test_show(self, capsys):
        assert main(["show", "--topology", "omega", "--ports", "8"]) == 0
        out = capsys.readouterr().out
        assert "omega" in out

    def test_route_reports_conflicts(self, capsys):
        code = main([
            "route", "--topology", "indirect-binary-cube", "--ports", "8",
            "--conference", "0,3", "--conference", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max multiplicity 2" in out
        assert "delivery: correct" in out

    def test_route_without_relay(self, capsys):
        code = main([
            "route", "--ports", "8", "--no-relay",
            "--conference", "0,1",
        ])
        assert code == 0
        assert "delivery: correct" in capsys.readouterr().out

    def test_worstcase(self, capsys):
        assert main(["worstcase", "--ports", "16"]) == 0
        out = capsys.readouterr().out
        assert "omega (measured)" in out
        assert "adversarial witness" in out

    def test_cost(self, capsys):
        assert main(["cost", "--ports", "16,64"]) == 0
        out = capsys.readouterr().out
        assert "crossbar" in out
        assert "yang2001" in out

    def test_blocking(self, capsys):
        code = main([
            "blocking", "--topology", "omega", "--ports", "16",
            "--dilations", "1,2", "--duration", "50", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dilation" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--ports", "16", "--load", "0.9", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "TDM schedule" in out
        assert "required dilation" in out

    def test_faults(self, capsys):
        code = main([
            "faults", "--topology", "benes-cube", "--ports", "16",
            "--count", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survivability" in out
        assert "dead links" in out
        # Default: both relay variants are reported.
        assert "\non " in out and "\noff" in out

    def test_faults_relay_flag_selects_one_row(self, capsys):
        assert main(["faults", "--ports", "16", "--count", "2", "--no-relay"]) == 0
        out = capsys.readouterr().out
        assert "\noff" in out and "\non " not in out
        assert main(["faults", "--ports", "16", "--count", "2", "--relay"]) == 0
        out = capsys.readouterr().out
        assert "\non " in out and "\noff" not in out

    def test_faults_include_injections(self, capsys):
        # With every level-0 wire dead, nothing can survive.
        n_links = 16 * 4  # inter-stage links of a 16-port cube
        code = main([
            "faults", "--ports", "16", "--count", str(n_links + 16),
            "--include-injections", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(0," in out  # an injection point among the dead links

    def test_availability(self, capsys):
        code = main([
            "availability", "--topology", "extra-stage-cube", "--ports", "16",
            "--duration", "200", "--mttf", "200", "--mttr", "10", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability over time" in out
        assert "\non " in out and "\noff" in out

    def test_availability_with_traffic(self, capsys):
        code = main([
            "availability", "--ports", "16", "--duration", "150",
            "--mttf", "150", "--mttr", "10", "--traffic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bounded backoff" in out
        assert "backoff" in out and "no-retry" in out


class TestTelemetry:
    """The observability surface: --trace-out / --metrics-out and `trace`."""

    def test_availability_telemetry_flags(self, capsys, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.prom"
        code = main([
            "availability", "--topology", "extra-stage-cube", "--ports", "16",
            "--duration", "200", "--mttf", "200", "--mttr", "10", "--seed", "1",
            "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability over time" in out  # normal report still printed
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records, "trace file is empty"
        names = {record["name"] for record in records}
        assert "conference.submit" in names
        metrics = metrics_path.read_text()
        assert "repro_link_occupancy_bucket{" in metrics
        assert "repro_conflict_multiplicity{" in metrics

    def test_availability_output_unchanged_by_telemetry(self, capsys, tmp_path):
        args = [
            "availability", "--ports", "16", "--duration", "150",
            "--mttf", "150", "--mttr", "10", "--seed", "3",
        ]
        assert main(args) == 0
        bare = capsys.readouterr().out
        assert main(args + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        instrumented = capsys.readouterr().out
        # The report proper is byte-identical; telemetry only appends a
        # "wrote ..." footer after it.
        assert instrumented.startswith(bare)

    def test_trace_subcommand(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "trace", "--ports", "16", "--duration", "150",
            "--mttf", "100", "--mttr", "10", "--seed", "2",
            "--out", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace of one availability run" in out
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records
        assert {"event", "span"} >= {record["type"] for record in records}
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_admissions_total"]["kind"] == "counter"
