"""Run one workload in this fresh process; print the result as one JSON line.

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``:

    worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace [--cpus 0,1] [--toy]

``setup`` stops after set-up and reports when set-up ended.  ``measure``
then runs untraced passes for S seconds.  ``trace`` records set-up under
the tracer, then alternates untraced and traced passes for S seconds in
all, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

import workloads
from affinity import pin_quietest
from tracing import Tracer, layer_metrics

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Failure messages kept per run; the count covers all of them.
KEEP_FAILURES = 5
#: Seconds between moves to the quietest CPU, made only between operations.
REPIN_S = 1.0


class _Raised:
    def __init__(self, exc: BaseException) -> None:
        self.text = f"raised {type(exc).__name__}: {exc}"


def run_pass(ops, between: Callable[[], object]):
    """One timed pass: (seconds in operations, per-operation seconds, answers).

    ``between`` runs before each operation, outside its timing.
    """
    clock = time.perf_counter
    answers = [None] * len(ops)
    latencies = array("f", bytes(4 * len(ops)))
    for i, op in enumerate(ops):
        between()
        t = clock()
        try:
            answers[i] = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            answers[i] = _Raised(exc)
        latencies[i] = clock() - t
    return sum(latencies), latencies, answers


class Runner:
    def __init__(self, workload: workloads.Workload, cpus: list[int]) -> None:
        self.workload = workload
        self.cpus = cpus
        self.pinned_at = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    def check(self, answers) -> None:
        self.attempted += len(answers)
        for i, answer in enumerate(answers):
            if isinstance(answer, _Raised):
                problem = answer.text
            else:
                try:
                    problem = self.workload.check(i, answer)
                except Exception as exc:  # the reference answer itself failed
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.failures) < KEEP_FAILURES:
                    self.failures.append(problem)

    def repin(self) -> None:
        if time.monotonic() - self.pinned_at >= REPIN_S:
            pin_quietest(self.cpus)
            self.pinned_at = time.monotonic()

    def one_pass(self, ops, tracer: Tracer | None = None, check: bool = True):
        """Time one pass, under ``tracer`` if given, then check its answers."""
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.phase += 1
        wall, latencies, answers = run_pass(ops, self.repin)
        if tracer is not None:
            tracer.uninstall()
        if check:
            self.check(answers)
        return wall, latencies, answers

    def passes(self, ops, seconds: float):
        """Untraced passes until they add up to ``seconds``, at least one.

        Returns each pass's wall time and its operations' latencies, which
        are kept as packed single floats so that the run's own bookkeeping,
        which grows with the number of passes, adds little to the peak
        memory read after the last pass.

        When the operations run in child processes, answers are checked
        only after the last pass: checking computes the library's answers
        in this process, and a child started afterwards would count this
        process's peak memory as its own (Linux carries it over ``exec``).
        """
        defer = self.workload.in_children
        walls, latencies, unchecked = [], [], []
        while not walls or sum(walls) < seconds:
            wall, lat, answers = self.one_pass(ops, check=not defer)
            walls.append(wall)
            latencies.append(lat)
            if defer:
                unchecked.append(answers)
        self.peak_rss_mb = peak_rss_mb(defer)
        for answers in unchecked:
            self.check(answers)
        return walls, latencies


def peak_rss_mb(in_children: bool) -> float:
    """Peak resident memory of this process, or of its largest child so far."""
    usage = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024.0


def latency_summary(latencies: list[list[float]]) -> dict:
    """Summarise per-pass operation latencies.

    An operation's latency is its best time over the passes: the machine
    may be shared, and contention only ever adds time, in spells of a few
    seconds that a run's passes straddle.  ``pass_s`` is one pass's time
    as the sum of those latencies and ``p50_ms`` the median operation's.
    ``tail_ms`` is the highest percentile with at least ten samples above
    it, taken over every timing, so that it shows how slow an operation
    can get within the run.
    """
    best = [min(op) * 1000.0 for op in zip(*latencies)]
    ms = sorted(x * 1000.0 for lat in latencies for x in lat)
    out = {
        "pass_s": sum(best) / 1000.0,
        "ops": len(best),
        "n": len(ms),
        "p50_ms": statistics.median(best),
        "best_ms": best,
    }
    if len(ms) >= 11:
        out["tail_ms"] = ms[-11]
        out["tail_pct"] = 100.0 * (len(ms) - 10) / len(ms)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--cpus", default="", help="CPUs to pick the quietest from, comma-separated")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy)
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    ready = time.monotonic()
    result: dict = {"ready": ready, "size_cap": os.environ.get("SHUFFLELAB_SIZE_CAP")}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    runner = Runner(workload, [int(cpu) for cpu in args.cpus.split(",") if cpu])
    if tracer is None:
        walls, latencies = runner.passes(workload.ops(), args.seconds)
        result.update(walls=walls, latency=latency_summary(latencies), peak_rss_mb=runner.peak_rss_mb)
    else:
        tracer.uninstall()
        ops = workload.traced_ops()
        # alternate so that drift during the run hits both sides alike
        untraced, traced, output_bytes = [], [], 0
        untraced_lat, traced_lat = [], []
        while not traced or sum(untraced) + sum(traced) < args.seconds:
            wall, lat, _ = runner.one_pass(ops)
            untraced.append(wall)
            untraced_lat.append(lat)
            wall, lat, answers = runner.one_pass(ops, tracer)
            traced.append(wall)
            traced_lat.append(lat)
            if len(traced) == 1 and isinstance(workload, workloads.Cli):
                output_bytes = sum(len(out.encode()) for _, out in answers)
        overhead_s = latency_summary(traced_lat)["pass_s"] - latency_summary(untraced_lat)["pass_s"]
        result.update(
            untraced_walls=untraced,
            traced_walls=traced,
            layers=layer_metrics(tracer, traced, overhead_s, output_bytes),
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
