"""Tests for repro.cli — the command-line interface."""

import pytest

from repro.cli import main

from .conftest import read_until


def _never_built(_args):
    raise AssertionError("the model was built before the settings were "
                         "checked")


class TestExperimentCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["experiment", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "threshold s" in out
        assert "accuracy" in out

    def test_save_package(self, capsys, tmp_path):
        path = tmp_path / "pkg.json"
        assert main(["experiment", "--seed", "7",
                     "--save", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "written" in out


class TestReportCommand:
    def test_prints_statistics(self, capsys):
        assert main(["report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "population estimates" in out
        assert "P(right|q>s)" in out
        assert "paper: 0.81" in out


class TestOfficeCommand:
    def test_gated_run(self, capsys):
        assert main(["office", "--seed", "7", "--blocks", "1"]) == 0
        out = capsys.readouterr().out
        assert "gated at" in out
        assert "camera" in out

    def test_ungated_run(self, capsys):
        assert main(["office", "--seed", "7", "--blocks", "1",
                     "--ungated"]) == 0
        out = capsys.readouterr().out
        assert "ungated" in out


class TestInspectCommand:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "pkg.json"
        main(["experiment", "--seed", "7", "--save", str(path)])
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rules" in out
        assert "threshold" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestMultiseedCommand:
    def test_serial_run(self, capsys, monkeypatch):
        from repro.parallel import ENV_VAR
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert main(["multiseed", "--seeds", "7", "11"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "backend: serial" in out

    def test_explicit_backend(self, capsys):
        assert main(["multiseed", "--seeds", "7", "11",
                     "--parallel", "thread", "--workers", "2"]) == 0
        assert "backend: thread" in capsys.readouterr().out

    def test_env_var_backend(self, capsys, monkeypatch):
        from repro.parallel import ENV_VAR
        monkeypatch.setenv(ENV_VAR, "thread")
        assert main(["multiseed", "--seeds", "7", "11"]) == 0
        assert "backend: thread" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["multiseed", "--parallel", "bogus"])


class TestReportFigures:
    def test_figures_rendered(self, capsys):
        assert main(["report", "--seed", "7", "--figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "Fig. 6" in out
        assert "|" in out  # threshold column


class TestOfficeScript:
    def test_dsl_scenario(self, capsys):
        assert main(["office", "--script",
                     "writing:6 playing:2@erratic lying:3"]) == 0
        out = capsys.readouterr().out
        assert "office run" in out

    def test_bad_dsl_raises(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            main(["office", "--script", "juggling:3"])


class TestFullReportCommand:
    def test_stdout(self, capsys):
        assert main(["full-report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "# CQM experiment report" in out
        assert "0.8112" in out

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["full-report", "--seed", "7",
                     "--out", str(path)]) == 0
        assert path.exists()
        assert "Per-class thresholds" in path.read_text()


class TestFaultsSweepCommand:
    def test_small_sweep_runs(self, capsys):
        assert main(["faults-sweep", "--seed", "7", "--blocks", "1",
                     "--faults", "dropout", "saturation",
                     "--intensities", "0.5", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "dropout" in out
        assert "saturation" in out
        assert "clean" in out
        assert "worst gating gain" in out

    def test_policy_flag(self, capsys):
        assert main(["faults-sweep", "--seed", "7", "--blocks", "1",
                     "--faults", "dropout", "--intensities", "1.0",
                     "--policy", "abstain"]) == 0
        out = capsys.readouterr().out
        assert "abstain" in out

    def test_unknown_fault_rejected(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            main(["faults-sweep", "--faults", "gremlins",
                  "--blocks", "1", "--intensities", "1.0"])


class TestTraceCommand:
    def test_traced_experiment(self, capsys):
        from repro import observability as obs

        assert main(["trace", "experiment", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        # The inner command's own output is preserved...
        assert "threshold s" in out
        # ...followed by the span tree and the metrics table.
        assert "experiment.run" in out
        assert "counters:" in out
        assert "cqm.measures_total" in out
        assert "p95" in out
        # Tracing is scoped: the global switch is off again afterwards.
        assert not obs.is_enabled()

    def test_metrics_out_round_trips(self, capsys, tmp_path):
        from repro.observability.export import read_trace_json

        path = tmp_path / "trace.json"
        assert main(["trace", "multiseed", "--seeds", "3",
                     "--metrics-out", str(path)]) == 0
        assert "trace document written" in capsys.readouterr().out
        spans, snapshot = read_trace_json(path)
        assert spans[0].find("experiment.run")
        assert snapshot["counters"]["threshold.fits_total"] == 1

    def test_metrics_out_position_is_free(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--metrics-out", str(path),
                     "experiment", "--seed", "7"]) == 0
        assert path.exists()

    def test_needs_inner_command(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_no_nesting(self):
        with pytest.raises(SystemExit):
            main(["trace", "trace", "experiment"])


class TestServeCommand:
    def test_stdio_round_trip(self, capsys, monkeypatch, experiment):
        import io
        import json

        import numpy as np

        cues = experiment.material.analysis.cues[:5]
        lines = "\n".join(
            json.dumps({"id": k, "cues": row.tolist()})
            for k, row in enumerate(cues))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--seed", "7", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines() if line]
        assert [r["id"] for r in responses] == list(range(5))
        assert all(r["version"] == 1 for r in responses)
        assert all(not r["shed"] for r in responses)

    def test_stdio_with_saved_package(self, capsys, monkeypatch, tmp_path,
                                      experiment):
        import io
        import json

        from repro.core.persistence import QualityPackage

        package = QualityPackage.from_calibration(
            experiment.augmented.quality, experiment.calibration)
        path = tmp_path / "pkg.json"
        package.save(path)
        cues = experiment.material.analysis.cues[:3]
        lines = "\n".join(
            json.dumps({"id": k, "cues": row.tolist()})
            for k, row in enumerate(cues))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--package", str(path), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines() if line]
        assert len(responses) == 3

    def test_bad_listen_spec(self, capsys):
        assert main(["serve", "--listen", "nope"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        # Out-of-range port: rejected before any model is trained.
        assert main(["serve", "--listen", "127.0.0.1:70000"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--serve-workers", "0"], "n_workers must be >= 1"),
        (["--max-batch", "0"], "max_batch must be >= 1"),
        (["--queue-capacity", "0"], "queue_capacity must be >= 1"),
        (["--listen", "127.0.0.1:0", "--max-requests", "-3"],
         "--max-requests must be >= 1"),
        (["--listen", "127.0.0.1:0", "--max-requests", "0"],
         "--max-requests must be >= 1"),
    ], ids=["serve-workers", "max-batch", "queue-capacity",
            "max-requests-negative", "max-requests-zero"])
    def test_invalid_setting_is_a_usage_error(self, capsys, monkeypatch,
                                              flags, message):
        monkeypatch.setattr("repro.cli._build_registry", _never_built)
        assert main(["serve", *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("signum", ["SIGTERM", "SIGINT"])
    def test_signal_drains_and_exits_cleanly(self, repro_process,
                                             experiment, signum):
        import json
        import signal
        import socket

        proc = repro_process("serve", "--listen", "127.0.0.1:0",
                             "--seed", "7")
        announce = read_until(proc.stdout, "serving on")
        port = int(announce.split()[2].rsplit(":", 1)[1])
        cues = experiment.material.analysis.cues[:20]
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=60) as sock:
            sock.sendall(b"".join(
                json.dumps({"id": k, "cues": row.tolist()}).encode()
                + b"\n" for k, row in enumerate(cues)))
            with sock.makefile() as replies:
                ids = {json.loads(replies.readline())["id"]
                       for _ in range(20)}
        assert ids == set(range(20))
        proc.send_signal(getattr(signal, signum))
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained: 20 served, 0 shed, 0 in flight" in out


class TestLoadgenCommand:
    def test_in_process_run(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        assert main(["loadgen", "--seed", "7", "--n-requests", "30",
                     "--rate", "5000", "--report", str(report_path),
                     "--expect-complete"]) == 0
        out = capsys.readouterr().out
        assert "loadgen: 30 sent" in out
        assert "unanswered 0" in out
        document = json.loads(report_path.read_text())
        assert document["n_responses"] == 30
        assert document["n_unanswered"] == 0
        assert "latency_p95_ms" in document

    def test_bad_connect_spec(self, capsys):
        assert main(["loadgen", "--connect", "nope"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["loadgen", "--connect", "127.0.0.1:70000"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--rate", "0"], "rate_hz must be > 0"),
        (["--n-requests", "0"], "n_requests must be >= 1"),
        (["--serve-workers", "0"], "n_workers must be >= 1"),
        (["--max-batch", "0"], "max_batch must be >= 1"),
        (["--queue-capacity", "0"], "queue_capacity must be >= 1"),
    ], ids=["rate", "n-requests", "serve-workers", "max-batch",
            "queue-capacity"])
    def test_invalid_setting_is_a_usage_error(self, capsys, monkeypatch,
                                              flags, message):
        monkeypatch.setattr("repro.cli._build_registry", _never_built)
        assert main(["loadgen", *flags]) == 2
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_full_gate_passes(self, capsys):
        assert main(["verify", "--seeds", "7", "--fuzz-cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "all stages within tolerance" in out
        assert "all stage probes match the golden" in out
        assert "0 contract violations" in out

    def test_single_stage_skips_golden_and_fuzz(self, capsys):
        assert main(["verify", "--stage", "normalization",
                     "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "normalization" in out
        assert "golden" not in out
        assert "fuzz" not in out

    def test_update_golden_writes_package_data(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr("repro.verify.golden.GOLDEN_DIR", tmp_path)
        assert main(["verify", "--update-golden"]) == 0
        assert (tmp_path / "seed7.json").exists()
        assert "written" in capsys.readouterr().out

    def test_unknown_stage_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--stage", "einsum"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
