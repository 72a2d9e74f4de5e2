"""Toy-size smoke test of the benchmark.

    python3 -m pytest bench/tests

Runs every workload at toy size, untraced and traced, and checks that each
metric is printed with its unit, that no operation failed, that the counts
repeat for one seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("verify-tables", "chain-sift", "cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MiB", "fail_ratio": "ratio"}
TAIL = {"op_tail_ms": "ms"}
PER_LAYER = {
    **dict.fromkeys(
        [
            "deck.apply_oriented.calls", "deck.then.calls", "deck.validations", "shuffles.element.calls",
            "shuffles.steps", "groups.chain.calls", "groups.chain.levels", "groups.chain.orbit_points",
            "groups.chain.strong_generators", "groups.sift.calls", "groups.oracle.calls",
            "groups.oracle.states", "elmsley.shortest_words.calls", "elmsley.words_found",
        ],
        "count",
    ),
    **dict.fromkeys(
        [
            "deck.apply_oriented.self_s", "deck.then.self_s", "shuffles.element.self_s",
            "shuffles.word_element.self_s", "shuffles.apply_word.self_s", "groups.family_generators.self_s",
            "groups.chain.build_s", "groups.sift.self_s", "groups.oracle.self_s", "groups.closed_form.self_s",
            "groups.group_order.self_s", "elmsley.shortest_words.self_s", "special.trick_session.self_s",
            "special.predict_from_ends.self_s", "special.generate.self_s", "cli.main.self_s",
            "cli.interpreter_s", "cli.import_s", "trace.overhead_s",
        ],
        "s",
    ),
    **dict.fromkeys(
        ["deck.validations_per_step", "groups.chain.share", "groups.sift.member_ratio", "groups.oracle.share"],
        "ratio",
    ),
    "cli.output_bytes": "bytes",
}  # fmt: skip


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "7", "--seconds", "0.5", "--toy", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout: str, workload: str) -> dict[str, tuple[float, str]]:
    metrics = {}
    for line in stdout.splitlines():
        if line.startswith(f"metric {workload} "):
            _, _, name, value, unit, samples, *_ = line.split()
            assert samples.startswith("n=") and int(samples[2:]) >= 1, line
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    metrics = printed_metrics(done.stdout, workload)
    expected = PER_LAYER if trace == "1" else END_TO_END | (TAIL if workload in ("chain-sift", "cli") else {})
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    final = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["metrics"] == {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    if trace == "0":
        assert metrics["fail_ratio"][0] == 0
        assert all(metrics[name][0] > 0 for name in END_TO_END if name != "fail_ratio")


def test_counts_repeat_for_one_seed():
    done = subprocess.run(
        [sys.executable, str(BENCH / "check_counts.py"), "--toy", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok (") == len(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "cli", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
