"""Check that the traced run's exact counts repeat across two runs of one seed.

    python3 bench/check_counts.py [--seed N] [--seconds S] [--toy] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload (all of them by default)
and compares every count of ``tracing.EXACT``, such as
``groups.oracle.states``, ``groups.chain.orbit_points`` and
``deck.validations``.  Counts cover set-up and the first traced pass, so
a short ``--seconds`` does not change them.  Also checks that the
brute-force oracle never runs on chain-sift.  Prints one
line per workload and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

from tracing import EXACT

BENCH = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
#: Workloads on which the brute-force oracle must never run.
NO_ORACLE = ("chain-sift",)


def traced_metrics(workload: str, seed: int, seconds: float, toy: bool) -> dict[str, float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1"] + (["--toy"] if toy else [])  # fmt: skip
    done = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    metrics = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, _, name, value, *_ = line.split()
            metrics[name] = ast.literal_eval(value)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS, metavar="WORKLOAD")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        first, second = (traced_metrics(workload, args.seed, args.seconds, args.toy) for _ in range(2))
        problems = [
            f"{name} {first.get(name)} then {second.get(name)}"
            for name in EXACT
            if name not in first or first.get(name) != second.get(name)
        ]
        if workload in NO_ORACLE and first.get("groups.oracle.states") != 0:
            problems.append(f"groups.oracle.states is {first.get('groups.oracle.states')}, not 0")
        ok = ok and not problems
        counts = ", ".join(f"{name}={first.get(name)}" for name in EXACT)
        print(f"{workload}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)} ({counts})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
