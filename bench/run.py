"""resolvekit benchmark: one workload per run, in one process, stdlib only.

    python3 bench/run.py --workload subset-search --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports resolvekit from src/. It makes
the workload's inputs from the seed, checks the stored answers once against
the benchmark's own definitions (oracle.py), then runs passes over the
workload's tasks until --seconds is used up, comparing every output with its
stored answer.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones:
setup_s, pass_ref and peak_rss_mb. pass_ref is the pass time in units of a
fixed reference loop that a timer runs inside the pass's tasks, so that a
host that runs everything slower for a while slows both alike. With
--trace 1 they are the per-layer ones, read from spans around resolvekit's
public functions (spans.py); that run alternates untraced and traced passes
so it can report the tracing overhead.
The line before the result is the run record: seed, Python, commit, nproc,
pass samples, per-task counts and the spans. NOTES.md explains the workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# how often the reference loop is timed during an untraced pass (each
# sample takes about 5 ms), and the fewest samples a pass may have
REFERENCE_INTERVAL_S = 0.05
MIN_REFERENCE_SAMPLES = 5
COUNT_KEYS = ("candidates", "vc_nodes", "mmd_edges")


def import_resolvekit():
    sys.path.insert(0, str(SRC))
    import resolvekit
    import resolvekit.cli

    return resolvekit


def build_inputs(rk, inputs: list[dict]) -> list:
    """The resolvekit objects the tasks take: the random graphs of
    subset-search. The other workloads build their graphs inside the tasks."""
    return [rk.make_graph(spec["order"], [tuple(e) for e in spec["edges"]]) for spec in inputs]


def make_tasks(rk, workload: str, inputs: list[dict], graphs: list) -> list[workloads.Task]:
    if workload == "subset-search":
        return workloads.subset_search_tasks(rk, inputs, graphs)
    if workload == "strong-cover":
        return workloads.strong_cover_tasks(rk)
    return workloads.large_verify_tasks(rk)


CHECKS = {
    "subset-search": workloads.check_subset_search,
    "strong-cover": workloads.check_strong_cover,
    "large-verify": workloads.check_large_verify,
}


def setup_probe(workload: str) -> float:
    """Import plus input generation, timed in this (fresh) interpreter."""
    inputs = json.load(sys.stdin)
    start = time.perf_counter()
    rk = import_resolvekit()
    build_inputs(rk, inputs)
    return time.perf_counter() - start


def setup_samples(workload: str, inputs: list[dict]) -> list[float]:
    payload = json.dumps(inputs)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            input=payload,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


_REFERENCE_TABLE = dict.fromkeys(range(1024), 0)
_REFERENCE_ROW = [0] * 1024


def reference_loop() -> int:
    """A fixed piece of pure-Python work (dict, list and int operations, a
    few milliseconds) that uses no resolvekit code. Its time at a moment
    reads how fast the host lets this process run then. It allocates no
    container, so it never sets off a garbage collection."""
    table = _REFERENCE_TABLE
    row = _REFERENCE_ROW
    total = 0
    for i in range(20_000):
        table[i & 1023] = i
        total += table[i >> 3 & 1023]
        row[i & 1023] = total & 255
    return total + row[7]


class Timings:
    """Reference-loop samples taken while the untraced passes run. A SIGALRM
    timer runs the reference loop every REFERENCE_INTERVAL_S, in the middle
    of whichever task is running, so the samples follow the host's speed
    through every task. run_pass takes the time spent in the samples out of
    the task times."""

    def __init__(self) -> None:
        self.reference: list[list[float]] = []  # the samples of each pass
        self.reference_s = 0.0  # time spent in all samples so far
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.reference[-1].append(took)
        self.reference_s += took
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample the reference loop for one pass."""
        self.reference.append([])
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.reference[-1]) < MIN_REFERENCE_SAMPLES:
            self._sample()

    def samples(self) -> list[float]:
        return [took for samples in self.reference for took in samples]

    def pass_refs(self, passes: list[float]) -> list[float]:
        """Each pass time divided by the mean reference-loop time of that
        pass. The samples are spread evenly in time, so their mean follows
        the host's speed averaged over the pass, as the pass time does."""
        return [took / statistics.fmean(samples) for took, samples in zip(passes, self.reference)]


def run_pass(tasks, errors: list[str], counters: dict | None = None, timings: Timings | None = None):
    """Run every task once. Returns the summed task time, the failure count
    and, when counters are given, each task's counter increments. When
    timings are given, the reference samples taken during a task are not
    counted in its time."""
    state: dict = {}
    seconds = 0.0
    failed = 0
    counts: dict[str, dict[str, int]] = {}
    for task in tasks:
        before = dict(counters) if counters is not None else None
        sampled = timings.reference_s if timings is not None else 0.0
        error = None
        start = time.perf_counter()
        try:
            result = task.run(state)
        except Exception as exc:  # a failed task is counted, and the pass goes on
            error = exc
        seconds += time.perf_counter() - start
        if timings is not None:
            seconds -= timings.reference_s - sampled
        if error is not None:
            failed += 1
            errors.append(f"{task.name}: {type(error).__name__}: {error}")
            continue
        try:
            got = task.answer(result)
        except Exception as exc:  # a malformed result is a wrong answer
            got = f"{type(exc).__name__}: {exc}"
        del result
        if got != task.expected:
            failed += 1
            errors.append(f"{task.name}: expected {task.expected!r}, got {got!r}")
        for key in task.release:
            state.pop(key, None)
        if before is not None:
            delta = {k: counters[k] - before[k] for k in COUNT_KEYS if counters[k] != before[k]}
            if delta:
                counts[task.name] = delta
    return seconds, failed, counts


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("per_candidate"):
        return "ratio"
    if name.endswith("_ref"):
        return "ref"
    return "count"


def measure(tasks, seconds: float, tracer: Tracer | None, errors: list[str]) -> dict:
    """Passes until the next one would overrun the measuring time. A traced
    run alternates an untraced and a traced pass and counts the pair as one
    unit of work. Only the untraced passes feed Timings."""
    timings = Timings()
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    task_counts: list[dict] = []
    spans: dict = {}
    attempted = failed = 0
    started = time.perf_counter()
    units: list[float] = []
    while True:
        unit_start = time.perf_counter()
        with timings.sampling():
            took, bad, _ = run_pass(tasks, errors, timings=timings)
        untraced.append(took)
        attempted += len(tasks)
        failed += bad
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                took, bad, counts = run_pass(tasks, errors, tracer.counters)
            finally:
                tracer.uninstall()
            traced.append(took)
            attempted += len(tasks)
            failed += bad
            layers.append(tracer.layer_metrics())
            task_counts.append(counts)
            spans = {f"{n} <- {p}": [c, round(t, 6), round(s, 6)] for (n, p), (c, t, s) in tracer.spans.items()}
        units.append(time.perf_counter() - unit_start)
        if time.perf_counter() - started + statistics.median(units) > seconds:
            break
    return {
        "timings": timings,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "task_counts": task_counts,
        "spans": spans,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "resolvekit" / "__init__.py").is_file():
        print(f"bench: no resolvekit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0

    inputs = workloads.random_graph_inputs(args.seed) if args.workload == "subset-search" else []
    rk = import_resolvekit()
    graphs = build_inputs(rk, inputs)
    tasks = make_tasks(rk, args.workload, inputs, graphs)
    errors: list[str] = []
    checks_ok = True
    try:
        CHECKS[args.workload](rk)
    except Exception as exc:  # reported as an incorrect run, with the reason
        checks_ok = False
        errors.append(f"check: {type(exc).__name__}: {exc}")
    # setup_s is an end-to-end metric, so a traced run does not time it
    setup = [] if args.trace else setup_samples(args.workload, inputs)

    tracer = Tracer() if args.trace else None
    run = measure(tasks, args.seconds, tracer, errors)
    timings = run["timings"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in run["layers"])
            for name in run["layers"][0]
        }
        pass_traced = statistics.median(run["traced"])
        pass_untraced = statistics.median(run["untraced"])
        metrics["bench.pass_traced_s"] = pass_traced
        metrics["bench.pass_untraced_s"] = pass_untraced
        metrics["bench.trace_overhead_s"] = pass_traced - pass_untraced
        metrics["bench.passes"] = len(run["traced"])
        metrics["bench.reference_s"] = statistics.fmean(timings.samples())
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_ref": statistics.median(timings.pass_refs(run["untraced"])),
            "peak_rss_mb": peak_rss_mb,
        }

    task_counts = run["task_counts"][0] if args.trace else {}
    baseline = {
        name: {key: task_counts.get(name, {}).get(key) == value for key, value in counts.items()}
        for name, counts in workloads.BASELINE_COUNTS.items()
        if args.trace and any(task.name == name for task in tasks)
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "tasks": len(tasks),
        "passes": len(run["untraced"]),
        "pass_samples_s": run["untraced"],
        "traced_pass_samples_s": run["traced"],
        "pass_ref_samples": timings.pass_refs(run["untraced"]),
        "reference_samples": len(timings.samples()),
        "reference_mean_s": statistics.fmean(timings.samples()),
        "setup_samples_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": run["failed"] / run["attempted"],
        "checks_ok": checks_ok,
        "errors": errors[:10],
        "task_counts": task_counts,
        "counts_repeat": all(counts == task_counts for counts in run["task_counts"]),
        "counts_match_baseline": baseline,
        "spans": run["spans"],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": checks_ok and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
