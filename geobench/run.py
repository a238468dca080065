"""geoalign benchmark: one closed-loop workload per run, every output checked.

Usage, from the root of a source checkout:

    python3 geobench/run.py --workload retrieval --seed 1 --seconds 35 --trace 0

One client, one process, no extra threads: each op starts when the previous
one and its output check have finished. The package is imported from the
checkout's ``src/``. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from a span tracer
(see ``tracer.py``) and the tracer's overhead. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the run's facts, is also written under ``.geobench_out/`` in the checkout,
and so is every span of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".geobench_out"
WORKLOAD_NAMES = ("retrieval", "gradcheck", "mask_native")
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 7
# op_tail_ms is the latency with exactly this many slower ops beyond it.
TAIL_BEYOND = 10
# Seconds between two choices of the CPU the process runs on (see CpuPicker).
PICK_INTERVAL = 0.25
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; it orders every op input (default: 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the timed phase (default: 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the inputs, print 'ready', exit")
    return parser.parse_args(argv)


class CpuPicker:
    """Keeps the process on whichever allowed CPU runs Python fastest now.

    On the 2-vCPU shared host the benchmark was written on, each CPU flips
    between two speeds about 1.6x apart, independently and within a second
    or two (NOTES.md); pinned to one CPU, whole runs of an op moved by
    30-40%. Every ``PICK_INTERVAL`` seconds, an interval timer makes the
    picker time a short fixed probe of Python calls on each allowed CPU and
    move the process to the fastest. The signal handler runs between
    bytecodes of the main thread; no thread is started.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.picks = {cpu: 0 for cpu in self.cpus}

    @staticmethod
    def _probe() -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            total = 0
            for i in range(5000):
                total += abs(-i)
            best = min(best, time.perf_counter() - t0)
        return best

    def pick(self, *_signal) -> None:
        if len(self.cpus) < 2:
            return
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self._probe()
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        self.picks[best] += 1

    def __enter__(self):
        self.pick()
        signal.signal(signal.SIGALRM, self.pick)
        signal.setitimer(signal.ITIMER_REAL, PICK_INTERVAL, PICK_INTERVAL)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_package():
    """Import geoalign and the workloads from this checkout, or fail."""
    src = ROOT / "src"
    if not (src / "geoalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no geoalign sources under {src}")
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import geoalign
    if Path(geoalign.__file__).resolve().parent != src / "geoalign":
        raise SystemExit(f"error: imported geoalign from {geoalign.__file__}, not {src}")
    import workloads
    return workloads


def time_setup(args, picker) -> list[float]:
    """Seconds from process start to inputs ready, in fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        picker.pick()
        t0 = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up process exited {code} after {line!r}")
    return samples


class Loop:
    """Runs ops one after another and keeps their timings and failures."""

    def __init__(self, workload):
        self.workload = workload
        # (start, end after the check, latency or None if the op failed)
        self.ops: list[tuple[float, float, float | None]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, i: int) -> tuple[float, dict | None]:
        """Run and verify op ``i``; return its latency in seconds and summary."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = self.workload.op(i)
            latency = time.perf_counter() - t0
            summary, problems = self.workload.verify(i, raw)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            self.ops.append((t0, time.perf_counter(), None))
            return self.ops[-1][1] - t0, None
        if problems:
            self.failed += 1
            print(f"op {i} (input {self.workload.key(i)}) failed its check: "
                  + "; ".join(problems[:5]), file=sys.stderr)
        self.ops.append((t0, time.perf_counter(), None if problems else latency))
        return latency, summary


def tail_stats(latencies: list[float]) -> dict:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return {"n": n, "tail_ms": ordered[n - 1 - beyond] * 1e3,
            "tail_percentile": 100.0 * (n - beyond) / n, "tail_samples_beyond": beyond}


def run_facts(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "processes": 1,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def measure(workload, picker, args) -> tuple[dict, dict, Loop]:
    """Untraced run: end-to-end metrics."""
    loop = Loop(workload)
    with picker:
        t0 = time.perf_counter()
        while not loop.ops or time.perf_counter() - t0 < args.seconds:
            loop.run(len(loop.ops))
    wall = loop.ops[-1][1] - t0
    latencies = [op[2] for op in loop.ops if op[2] is not None] or [float("nan")]
    tail = tail_stats(latencies)
    metrics = {
        "ops_per_s": (sum(op[2] is not None for op in loop.ops) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail["tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"ops": len(loop.ops), "wall_s": wall, "tail": tail}, loop


def measure_traced(workload, picker, args, tracer_module, spans_path) -> tuple[dict, dict, Loop]:
    """Traced run: every op runs twice, untraced and then traced.

    The per-layer metrics are per op over the first ``trace_ops`` traced
    copies, so their counts repeat exactly for a seed. The copies alternate,
    so the latency ratio of the two passes is the tracer's overhead with slow
    drifts of the machine shared between them, and a traced output must equal
    its untraced twin.
    """
    k = workload.trace_ops
    loop = Loop(workload)
    tracer = tracer_module.Tracer()
    untraced_s = traced_s = 0.0
    i = 0
    with picker:
        t0 = time.perf_counter()
        while i < k or time.perf_counter() - t0 < args.seconds:
            latency, untraced = loop.run(i)
            untraced_s += latency
            tracer.op = i + 1
            tracer.install()
            try:
                latency, traced = loop.run(i)
            finally:
                tracer.remove()
            traced_s += latency
            if traced != untraced:
                loop.failed += 1
                print(f"op {i}: traced output differs from the untraced output",
                      file=sys.stderr)
            i += 1
    tracer.write(spans_path)
    units = dict(tracer_module.metric_specs())
    metrics = {name: (value, units[name])
               for name, value in tracer.summarize(range(1, k + 1)).items()}
    metrics["tracer.untraced_ops_per_s"] = (i / untraced_s, "1/s")
    metrics["tracer.traced_ops_per_s"] = (i / traced_s, "1/s")
    metrics["tracer.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    spans = len(tracer.spans) // len(tracer_module.SPAN_FIELDS)
    return metrics, {"ops": 2 * i, "spans": spans}, loop


def set_up_only(args) -> int:
    """What a run does before its first op; prints ``ready`` when done."""
    workloads = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.load_reference())
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    picker = CpuPicker()
    if args.setup_only:
        with picker:
            return set_up_only(args)
    workloads = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        reference = workloads.load_reference()
        setup_samples = [] if args.trace else time_setup(args, picker)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            import tracer
            metrics, details, loop = measure_traced(
                workload, picker, args, tracer, OUT_DIR / f"spans-{tag}.npz")
        else:
            metrics, details, loop = measure(workload, picker, args)
            metrics["setup_s"] = (statistics.median(setup_samples), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = run_facts(args)
    facts["cpu_picks"] = picker.picks
    facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts["setup_samples_s"] = setup_samples
    facts.update(details)
    fail_ratio = loop.failed / loop.attempted
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"op_fail_ratio = {fail_ratio!r} ({loop.failed} of {loop.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    start = loop.ops[0][0]
    timings = [[begin - start, end - start, latency] for begin, end, latency in loop.ops]
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "op_fail_ratio": fail_ratio, "facts": facts,
                   "op_timings_s": timings}, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
