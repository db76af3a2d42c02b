"""Tests for the ``repro bus`` CLI subcommands."""

import dataclasses
import json
import socket

import pytest

from repro.bus.broker import BrokerCore, BusConfig
from repro.bus.drill import scripted_pen_events
from repro.bus.replay import (RunMeta, capture_bus_trace, dedupe_events,
                              read_log_events)
from repro.cli import main
from repro.scenarios import models
from repro.verify.golden import GoldenTrace

from ..conftest import read_until


def make_log(path, n=12, seed=3):
    config = BusConfig(n_partitions=1, fsync_every=1)
    with BrokerCore(path, config) as core:
        for e in scripted_pen_events(seed, n):
            core.publish(e.to_wire())


class TestBusTail:
    def test_prints_jsonl_records(self, capsys, tmp_path):
        make_log(tmp_path / "log", n=5)
        assert main(["bus", "tail", "--log-dir",
                     str(tmp_path / "log")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        first = json.loads(out[0])
        assert first["offset"] == 0
        assert first["record"]["event"]["seq"] == 1

    def test_start_and_count(self, capsys, tmp_path):
        make_log(tmp_path / "log", n=8)
        assert main(["bus", "tail", "--log-dir", str(tmp_path / "log"),
                     "--start", "2", "--count", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["offset"] for line in out] == [2, 3, 4]


class TestBusReplay:
    def test_replay_without_golden(self, capsys, tmp_path):
        make_log(tmp_path / "log", n=6)
        RunMeta(seed=3).save(tmp_path / "log")
        assert main(["bus", "replay", "--log-dir",
                     str(tmp_path / "log")]) == 0
        assert "no golden" in capsys.readouterr().out

    def test_replay_writes_trace(self, capsys, tmp_path):
        make_log(tmp_path / "log", n=6)
        RunMeta(seed=3).save(tmp_path / "log")
        out_path = tmp_path / "trace.json"
        assert main(["bus", "replay", "--log-dir", str(tmp_path / "log"),
                     "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_missing_explicit_golden_fails(self, capsys, tmp_path):
        make_log(tmp_path / "log", n=6)
        RunMeta(seed=3).save(tmp_path / "log")
        assert main(["bus", "replay", "--log-dir", str(tmp_path / "log"),
                     "--golden", str(tmp_path / "nope.json")]) == 2


class TestBusRecord:
    @pytest.fixture(autouse=True)
    def primed_pen_model(self, experiment):
        models.prime_pen_model(experiment.augmented, experiment.threshold,
                               seed=7)

    def record(self, log_dir, *extra):
        return main(["bus", "record", "--seed", "7", "--blocks", "1",
                     "--log-dir", str(log_dir), *extra])

    def test_prints_the_office_counts(self, capsys, tmp_path):
        assert main(["office", "--seed", "7", "--blocks", "1"]) == 0
        office = capsys.readouterr().out.splitlines()
        assert office[0].startswith("office run (gated at s=")
        assert self.record(tmp_path / "log") == 0
        record = capsys.readouterr().out.splitlines()
        assert record[:len(office)] == office

    @pytest.mark.parametrize("extra", [(), ("--ungated",)])
    def test_record_then_replay_passes(self, capsys, tmp_path, extra):
        assert self.record(tmp_path / "log", *extra) == 0
        threshold = RunMeta.load(tmp_path / "log").gate_threshold
        assert (threshold is None) == bool(extra)
        assert main(["bus", "replay", "--log-dir",
                     str(tmp_path / "log")]) == 0
        assert "all stage probes match" in capsys.readouterr().out

    def test_changed_quality_fails_replay_at_its_stage(self, capsys,
                                                       tmp_path):
        log_dir = tmp_path / "log"
        assert self.record(log_dir) == 0
        golden_path = log_dir / "golden.json"
        golden = GoldenTrace.load(golden_path)
        events = dedupe_events(read_log_events(log_dir))
        events[4] = dataclasses.replace(events[4], quality=0.123456)
        [tampered] = capture_bus_trace(7, events).stages
        GoldenTrace(seed=golden.seed, stages=tuple(
            tampered if stage.stage == tampered.stage else stage
            for stage in golden.stages)).save(golden_path)
        capsys.readouterr()
        assert main(["bus", "replay", "--log-dir", str(log_dir)]) == 1
        assert "events:awarepen" in capsys.readouterr().out

    def test_used_log_dir_refused(self, capsys, tmp_path):
        assert self.record(tmp_path / "log") == 0
        golden = (tmp_path / "log" / "golden.json").read_bytes()
        capsys.readouterr()
        assert self.record(tmp_path / "log") == 2
        assert "already holds" in capsys.readouterr().err
        assert (tmp_path / "log" / "golden.json").read_bytes() == golden
        assert main(["bus", "replay", "--log-dir",
                     str(tmp_path / "log")]) == 0


class TestBusDrill:
    def test_inproc_drill_passes(self, capsys, tmp_path):
        assert main(["bus", "drill", "--log-dir", str(tmp_path / "log"),
                     "--events", "80"]) == 0
        out = capsys.readouterr().out
        assert "drill inproc-fault: PASS" in out
        assert "redelivered" in out

    def test_drill_then_replay_diverges_nowhere(self, capsys, tmp_path):
        assert main(["bus", "drill", "--log-dir", str(tmp_path / "log"),
                     "--events", "60"]) == 0
        capsys.readouterr()
        assert main(["bus", "replay", "--log-dir",
                     str(tmp_path / "log")]) == 0


class TestParser:
    def test_bus_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["bus"])

    def test_bad_listen_address(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bus", "serve", "--log-dir", str(tmp_path),
                  "--listen", "nonsense"])
        with pytest.raises(SystemExit) as exc:
            main(["bus", "serve", "--log-dir", str(tmp_path),
                  "--listen", "127.0.0.1:70000"])
        assert exc.value.code == 2


class TestBusServe:
    def test_sigterm_syncs_every_acknowledged_publish(self, capsys,
                                                      repro_process,
                                                      tmp_path):
        import signal

        from repro.bus.log import EventLog

        proc = repro_process("bus", "serve", "--log-dir", str(tmp_path),
                             "--listen", "127.0.0.1:0")
        announce = read_until(proc.stdout, "bus broker on")
        address = announce.split()[3]
        assert main(["bus", "publish", "--connect", address,
                     "--n-events", "50"]) == 0
        assert "offset=" in capsys.readouterr().out
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "bus broker stopped: 50 published" in out
        with EventLog(tmp_path) as log:
            assert len(list(log.read())) == 50

    def test_delivered_tcp_line_is_pinned(self, repro_process, tmp_path):
        """The exact bytes a subscriber reads for one fixed publish."""
        proc = repro_process("bus", "serve", "--log-dir", str(tmp_path),
                             "--listen", "127.0.0.1:0")
        announce = read_until(proc.stdout, "bus broker on")
        host, port = announce.split()[3].rsplit(":", 1)
        event = {"source": "awarepen", "seq": 1, "topic": "context.pen",
                 "context": {"index": 1, "name": "writing"},
                 "quality": 0.75, "time_s": 2.5}
        with socket.create_connection((host, int(port)), timeout=10) as sub, \
                socket.create_connection((host, int(port)),
                                         timeout=10) as pub, \
                sub.makefile("rb") as sub_in, pub.makefile("rb") as pub_in:
            sub.sendall(b'{"bus":"sub","pattern":"context.pen",'
                        b'"name":"camera","rid":1}\n')
            assert json.loads(sub_in.readline())["bus"] == "sub_ok"
            pub.sendall(json.dumps({"bus": "pub", "event": event,
                                    "rid": 1}).encode() + b"\n")
            assert json.loads(pub_in.readline())["bus"] == "pub_ok"
            line = sub_in.readline()
        assert line == (
            b'{"bus": "ev", "sid": 1, "topic": "context.pen", '
            b'"partition": 0, "index": 0, "offset": 0, "event": '
            b'{"source": "awarepen", "seq": 1, "topic": "context.pen", '
            b'"context": {"index": 1, "name": "writing"}, "quality": 0.75, '
            b'"time_s": 2.5}, "redelivery": false}\n')

