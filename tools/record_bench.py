"""Record the benchmark's end-to-end metrics of checkouts into BENCH_<LABEL>.json.

    python3 tools/record_bench.py LABEL [CHECKOUT ...]

A CHECKOUT is the root directory of a checkout of this repository,
written ``NAME=DIR`` to name its section; a bare ``DIR`` is named after
the directory.  With no CHECKOUT, the checkout holding this script is
recorded as ``change``.

For seeds 1-5 and every workload of ``BENCHMARK.json``, each checkout's
own ``bench/run.py --seconds 30 --trace 0`` runs once, and the
checkouts take turns going first.  Then each checkout's ``bench/run.py
--seed 1 --seconds 30 --trace 1`` runs once per workload, and its
wall-clock seconds and exit code are kept as ``traced_run``: a traced
run must finish within ``bench/run.py``'s own time limit, and one that
fails is recorded, not fatal.  ``BENCH_<LABEL>.json``, written to the
root of this checkout, has one section per checkout: the ``meta``
fields of its runs (commit, ``src_sha256``, Python, nproc) and
``src_dirty``, whether its ``src/`` differs from that commit (null
outside a git checkout), the seeds, and per workload the operations
attempted and failed, each end-to-end metric's runs in seed order,
median and quartiles, and the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 30
TRACED_SEED = 1
META_FIELDS = ("commit", "src_sha256", "python", "nproc")


def bench_argv(checkout: Path, workload: str, seed: int, trace: int) -> list[str]:
    return [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]  # fmt: skip


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(the run's meta line, its final JSON line) for one run of ``bench/run.py``."""
    argv = bench_argv(checkout, workload, seed, 0)
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {checkout} {workload} seed {seed}:\n{done.stderr.strip()}")
    lines = done.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return meta, json.loads(lines[-1])


def traced_run(checkout: Path, workload: str) -> dict:
    """The wall-clock seconds and exit code of one traced run of ``bench/run.py``."""
    start = time.monotonic()
    done = subprocess.run(bench_argv(checkout, workload, TRACED_SEED, 1), cwd=checkout,
                          capture_output=True, text=True)  # fmt: skip
    return {"seed": TRACED_SEED, "wall_s": round(time.monotonic() - start, 1),
            "exit": done.returncode}  # fmt: skip


def src_dirty(checkout: Path) -> bool | None:
    """Whether ``git status`` lists changes under the checkout's ``src/``."""
    if not (checkout / ".git").exists():
        return None
    argv = ["git", "-C", str(checkout), "status", "--porcelain", "--", "src"]
    done = subprocess.run(argv, capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("checkouts", nargs="*", metavar="CHECKOUT", help="[NAME=]DIR")
    args = parser.parse_args(argv)
    checkouts = {}
    for spec in args.checkouts or [f"change={ROOT}"]:
        name, _, path = spec.rpartition("=")
        directory = Path(path).resolve()
        checkouts[name or directory.name] = directory
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    dirty = {name: src_dirty(directory) for name, directory in checkouts.items()}
    runs: dict = {name: {w: [] for w in workloads} for name in checkouts}
    metas: dict = {}
    turn = 0
    for seed in SEEDS:
        for workload in workloads:
            names = list(checkouts)
            for name in names[turn % len(names) :] + names[: turn % len(names)]:
                print(f"{name} {workload} seed {seed}", file=sys.stderr, flush=True)
                meta, final = run_once(checkouts[name], workload, seed)
                metas.setdefault(name, {k: meta[k] for k in META_FIELDS})
                runs[name][workload].append(final)
            turn += 1
    traced: dict = {name: {} for name in checkouts}
    for workload in workloads:
        names = list(checkouts)
        for name in names[turn % len(names) :] + names[: turn % len(names)]:
            print(f"{name} {workload} traced", file=sys.stderr, flush=True)
            traced[name][workload] = traced_run(checkouts[name], workload)
        turn += 1

    record = {}
    for name in checkouts:
        sections = {}
        for workload, finals in runs[name].items():
            units = {k: v["unit"] for k, v in finals[0]["metrics"].items()}
            sections[workload] = {
                "attempted": [f["attempted"] for f in finals],
                "failed": [f["failed"] for f in finals],
                "metrics": {
                    metric: {"unit": unit, **summary([f["metrics"][metric]["value"] for f in finals])}
                    for metric, unit in units.items()
                },
                "traced_run": traced[name][workload],
            }
        meta = {**metas[name], "src_dirty": dirty[name]}
        record[name] = {"meta": meta, "seeds": list(SEEDS), "seconds": SECONDS,
                        "workloads": sections}  # fmt: skip
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
