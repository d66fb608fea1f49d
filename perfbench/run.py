"""pathcycle benchmark: one workload per run, whole passes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pathcycle is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Work files and span logs go to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 5


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation at rank p * (N - 1) of the sorted samples."""
    xs = sorted(samples)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def slower_half(samples: list[float]) -> float:
    """The median of the samples at or above the median.

    With five samples this is the fourth smallest.  Like the pass timings
    (``Runner.sustained``), it measures the host's steady speed and leaves
    out its bursts of faster running.
    """
    return percentile(samples, 0.75)


class Runner:
    """Runs whole passes over a workload's operations and keeps the records."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[list[float]] = []  # per pass
        self.pass_seconds: list[float] = []
        self.records: dict[str, dict[object, int]] = {}

    def call(self, fn):
        try:
            return self.tracer.op(fn) if self.tracer else fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            return ("raised", f"{type(exc).__name__}: {exc}")

    def run_pass(self) -> None:
        started = perf_counter()
        latencies = []
        for key, fn in self.workload.ops:
            t0 = perf_counter()
            record = self.call(fn)
            latencies.append(perf_counter() - t0)
            seen = self.records.setdefault(key, {})
            seen[record] = seen.get(record, 0) + 1
        self.pass_seconds.append(perf_counter() - started)
        self.latencies.append(latencies)

    def sustained(self) -> list[int]:
        """The passes at or above the median pass time.

        The host runs at a steady speed with bursts of up to 40% faster
        lasting 5-20 s; the slower half of the passes measures the steady
        speed, which varies far less from run to run.
        """
        cut = statistics.median(self.pass_seconds)
        return [i for i, t in enumerate(self.pass_seconds) if t >= cut]

    def enough(self, started: float, seconds: float) -> bool:
        """Has the run lasted ``seconds`` with ten sustained samples past the tail?"""
        sustained = (len(self.pass_seconds) + 1) // 2 * len(self.workload.ops)
        return perf_counter() - started >= seconds and (1 - self.workload.tail) * sustained >= 10

    def verdict(self) -> tuple[int, int, list[str], list[str]]:
        """``(attempted, failed, wrong, crashed)`` over every operation run.

        An operation fails when it raises, exits 2 or gives an output that
        the workload's check rejects; ``wrong`` and ``crashed`` name the
        rejected outputs and the others.
        """
        attempted = failed = 0
        wrong, crashed = [], []
        for key, seen in self.records.items():
            for record, count in seen.items():
                attempted += count
                if isinstance(record, tuple) and record[:1] in (("raised",), (2,)):
                    failed += count
                    crashed.append(f"{key}: {record[1][:200]}")
                    continue
                try:
                    problem = self.workload.check(key, record)
                except Exception as exc:  # an unreadable output is a wrong one
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem:
                    failed += count
                    wrong.append(f"{key}: {problem}")
        return attempted, failed, wrong, crashed


def import_seconds() -> float:
    """Seconds to import pathcycle in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import pathcycle.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def timed_setup(workload, seed: int, workdir: Path) -> float:
    gc.collect()  # each repetition starts without the garbage of the last
    t0 = perf_counter()
    workload.setup(seed, workdir)
    return perf_counter() - t0


def end_to_end(workload, args, import_s: float, workdir: Path) -> dict:
    imports = [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    setups = [timed_setup(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    runner = Runner(workload)
    runner.call(workload.warmup[1])
    started = perf_counter()
    while True:
        runner.run_pass()
        if runner.enough(started, args.seconds):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verdict = runner.verdict()
    attempted, failed = verdict[:2]
    passes = runner.sustained()
    lat = [x for i in passes for x in runner.latencies[i]]
    pass_s = statistics.median(runner.pass_seconds[i] for i in passes)
    metrics = {
        "setup_s": (slower_half(imports) + slower_half(setups), "s"),
        "throughput_per_s": ((attempted - failed) / attempted * len(workload.ops) / pass_s, "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, workload.tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return report(verdict, metrics=metrics)


def traced(workload, args, workdir: Path) -> dict:
    from spans import Tracer, metric_names

    tracer = Tracer()
    tracer.install()
    timed_setup(workload, args.seed, workdir)
    setup_totals = tracer.reset()
    tracer.uninstall()

    # alternate untraced and traced passes; keep the spans of the set-up and
    # of the first traced pass
    plain, spanned = Runner(workload), Runner(workload, tracer)
    plain.call(workload.warmup[1])
    per_pass, kept = [], None
    started = perf_counter()
    while not per_pass or perf_counter() - started < args.seconds:
        plain.run_pass()
        if kept is not None:
            tracer.spans.clear()
        tracer.install()
        spanned.run_pass()
        tracer.uninstall()
        per_pass.append(tracer.reset())
        if kept is None:
            kept = list(tracer.spans)
    tracer.spans[:] = kept
    tracer.write(workdir.parent / f"trace-{workload.name}-seed{args.seed}.jsonl")

    metrics = {}
    for name in metric_names():
        value = setup_totals.get(name, 0) + statistics.median(p.get(name, 0) for p in per_pass)
        if name.endswith("_s"):
            metrics[name] = (value, "s")
        else:
            metrics[name] = (round(value), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(spanned.pass_seconds) - statistics.median(plain.pass_seconds), "s",
    )
    metrics["trace.absent_layers"] = (len(tracer.absent), "count")
    for name in tracer.absent:
        print(f"layer absent in this version: {name}", file=sys.stderr)
    return report(plain.verdict(), spanned.verdict(), metrics=metrics)


def report(*verdicts, metrics: dict) -> dict:
    attempted = sum(v[0] for v in verdicts)
    failed = sum(v[1] for v in verdicts)
    wrong = [line for v in verdicts for line in v[2]]
    crashed = [line for v in verdicts for line in v[3]]
    for line in (wrong + crashed)[:20]:
        print("FAILED " + line, file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # the hash seed only takes effect in a fresh interpreter
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    if not (ROOT / "src" / "pathcycle" / "__init__.py").is_file():
        print(f"perfbench: no pathcycle package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import pathcycle.cli  # noqa: F401  (imports every layer)

    import_s = perf_counter() - t0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = HERE / "out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced(workload, args, workdir)
    else:
        result = end_to_end(workload, args, import_s, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
