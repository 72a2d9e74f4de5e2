"""The shufflelab benchmark: one workload, fresh processes, metrics on stdout.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics.  Set-up runs in several
fresh worker processes and ``setup_s`` is their median; the last of them
goes on to the timed passes.  ``wall_s`` is one pass over the workload's
fixed operations and ``op_p50_ms`` the median operation, each operation
taken at its best time over the passes.  ``--trace 1`` starts one worker
that records spans around the program's public names and reports the
per-layer metrics, plus how long a bare interpreter and ``import
shufflelab.cli`` take in fresh processes.

Each metric is printed on its own ``metric`` line with its unit and
sample count; the last line of stdout is a JSON object with the metrics
``BENCHMARK.json`` lists for the chosen trace mode.  Results and spans
are also written to ``bench/out/``.  Workload names, reasons and metric
lists live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from affinity import allowed_cpus, pin_quietest
from tracing import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
#: Fresh processes whose set-up time is measured in one end-to-end run: at
#: least this many, and more while their set-up times add up to less than
#: ``SETUP_SECONDS``, so that a cheap set-up is sampled often enough for a
#: steady median.
SETUP_RUNS = 3
SETUP_SECONDS = 1.5
#: Interpreter and import probes per traced run.
PROBE_RUNS = 3
#: Every process this run starts must be done by then.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


class Session:
    """Starts child processes against the checkout and keeps them within the run's time limit."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SHUFFLELAB_SIZE_CAP")}
        self.env["PYTHONPATH"] = str(SRC)
        self.cpus = allowed_cpus()

    def run(self, argv: list[str]) -> str:
        """Run a child in its own process group; return its stdout."""
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )  # fmt: skip
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(argv[1:3])} ran past the {RUN_LIMIT_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{err.strip()}")
        return out

    def worker(self, args, name: str, mode: str) -> tuple[float, dict]:
        """(seconds from spawn to end of set-up, the worker's result)."""
        argv = [
            sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--cpus", ",".join(map(str, self.cpus)),
        ] + (["--toy"] if args.toy else [])  # fmt: skip
        pin_quietest(self.cpus)  # the child inherits the pin
        spawned = time.monotonic()
        result = json.loads(self.run(argv).strip().splitlines()[-1])
        return result["ready"] - spawned, result

    def probe_seconds(self, code: str) -> list[float]:
        times = []
        for _ in range(PROBE_RUNS):
            pin_quietest(self.cpus)
            start = time.perf_counter()
            self.run([sys.executable, "-c", code])
            times.append(time.perf_counter() - start)
        return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shufflelab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def end_to_end(session: Session, args, name: str) -> tuple[dict, dict]:
    setups: list[float] = []
    while len(setups) < SETUP_RUNS - 1 or sum(setups) < SETUP_SECONDS:
        setups.append(session.worker(args, name, "setup")[0])
    setup_s, result = session.worker(args, name, "measure")
    setups.append(setup_s)
    lat, walls = result["latency"], result["walls"]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups), ""),
        "wall_s": (lat["pass_s"], len(walls), f"ops={lat['ops']}"),
        "op_p50_ms": (lat["p50_ms"], lat["ops"], f"passes={len(walls)}"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, ""),
        "fail_ratio": (result["failed"] / result["attempted"], result["attempted"], ""),
    }
    if name in ("chain-sift", "cli") and "tail_ms" in lat:
        metrics["op_tail_ms"] = (lat["tail_ms"], lat["n"], f"p={lat['tail_pct']:.3f}")
    return {k: (v, END_TO_END_UNITS[k], n, extra) for k, (v, n, extra) in metrics.items()}, result


def per_layer(session: Session, args, name: str) -> tuple[dict, dict]:
    interpreter = statistics.median(session.probe_seconds("pass"))
    imported = statistics.median(session.probe_seconds("import shufflelab.cli"))
    _, result = session.worker(args, name, "trace")
    layers = dict(result["layers"], **{"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter})
    n_traced = len(result["traced_walls"])
    samples = {"cli.interpreter_s": PROBE_RUNS, "cli.import_s": PROBE_RUNS, "trace.overhead_s": n_traced}
    return {
        k: (layers[k], LAYER_UNITS[k], samples.get(k, 1), "") for k in LAYER_UNITS
    }, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "shufflelab" / "__init__.py").is_file():
        print(f"error: no shufflelab package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(why) if args.workload == "all" else [args.workload]
    if any(name not in why for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(why)} or all", file=sys.stderr)
        return 2
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    session = Session()
    final: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, result = (per_layer if args.trace else end_to_end)(session, args, name)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        meta = {
            "workload": name, "why": why[name], "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit(), "src_sha256": source_digest(),
            "shufflelab_size_cap": result["size_cap"] or "program default",
        }  # fmt: skip
        print("meta " + json.dumps(meta))
        for metric, (value, unit, n, extra) in metrics.items():
            print(f"metric {name} {metric} {value!r} {unit} n={n} {extra}".rstrip())
        for problem in result["failures"]:
            print(f"failure {name} {problem}")
        OUT_DIR.mkdir(exist_ok=True)
        record = {"meta": meta, "metrics": {k: list(v) for k, v in metrics.items()}, **result}
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in reported:
            value, unit, _, _ = metrics[metric]
            final["metrics"][prefix + metric] = {"value": value, "unit": unit}
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
