"""Negative controls: a planted fault must make the benchmark run fail.

Each test runs the one command briefly in a child process, as a user
would, and reads its exit status and last output line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PINNED_SEED = 1


def bench(*args, timeout=240):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(PINNED_SEED),
         *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1]), \
        out.stdout


def test_the_control_seed_has_a_pinned_digest():
    doc = json.loads((ROOT / "perfbench" / "pinned_digests.json")
                     .read_text())
    assert str(PINNED_SEED) in doc["office"]


def test_office_run_passes_without_a_plant():
    code, result, _ = bench("--workload", "office-eventbus", "--seconds", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0


def test_one_wrong_q_fails_the_office_run():
    code, result, text = bench("--workload", "office-eventbus",
                               "--seconds", "1", "--plant", "wrong-q")
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1
    assert "pinned" in text  # the digest gate fired too


def test_one_wrong_q_fails_the_broker_run():
    code, result, _ = bench("--workload", "office-broker", "--seconds", "1",
                            "--plant", "wrong-q")
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_a_server_side_delay_fails_the_serving_run():
    code, result, _ = bench("--workload", "serve-jsonl", "--seconds", "5",
                            "--plant", "server-delay")
    assert code == 1 and not result["correct"] and result["failed"] >= 1
