"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

MODE is ``setup`` (set up and report the set-up time only), ``run``
(closed-loop timed passes, tracing off) or ``trace`` (untraced and traced
passes, one counting pass and the scalar microbenchmarks). The result is
one JSON object on the last line of standard output. ``run.py`` starts
this process; it is not meant to be run by hand, though it can be.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# a task running longer than this counts as failed
TASK_LIMIT_S = 60
# reference-kernel runs right after set-up, to scale the set-up time
SETUP_KERNELS = 2


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout()


def run_pass(tasks, instrument=None, fits=None, speed=None):
    """Each task in turn; the next starts when the previous verdict is in.
    A task that ``fits`` rejects is left out; ``speed`` takes its kernel
    samples between tasks. Returns (per task: output and error, or None
    when left out; per task: (start, end) or None; pass seconds)."""
    outputs = []
    spans = []
    pass_start = time.perf_counter()
    for index, task in enumerate(tasks):
        if fits is not None and not fits(task):
            outputs.append(None)
            spans.append(None)
            continue
        if speed is not None:
            speed.sample_if_due()
        if instrument is not None:
            instrument.start_task(index)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TASK_LIMIT_S)
        try:
            outputs.append((task.run(), None))
        except TaskTimeout:
            outputs.append((None, f"exceeded {TASK_LIMIT_S} s"))
        except Exception as exc:  # a crash is a failed task, not a crashed benchmark
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spans.append((start, time.perf_counter()))
    pass_s = time.perf_counter() - pass_start
    if speed is not None:
        speed.sample()
    return outputs, spans, pass_s


def check_pass(tasks, outputs):
    """Failures of one pass as (task name, reason); left-out tasks have none."""
    failures = []
    for task, result in zip(tasks, outputs):
        if result is None:
            continue
        out, error = result
        if error is None:
            try:
                error = task.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((task.name, error))
    return failures


class Run:
    """Outcome counts and timings over every pass of one worker."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.attempted = 0
        self.failures = []
        # task name -> (start, end) of each of its runs
        self.spans = {t.name: [] for t in tasks}

    def one_pass(self, instrument=None, fits=None, speed=None):
        """One timed pass, then the output checks. An instrument (tracer or
        counter) is installed for the pass and removed before checking.
        Returns the pass seconds and the number of tasks that ran."""
        if instrument is not None:
            instrument.install()
        try:
            outputs, spans, pass_s = run_pass(self.tasks, instrument, fits, speed)
        finally:
            if instrument is not None:
                instrument.uninstall()
        ran = [(task, span) for task, span in zip(self.tasks, spans) if span is not None]
        self.attempted += len(ran)
        self.failures += check_pass(self.tasks, outputs)
        for task, span in ran:
            self.spans[task.name].append(span)
        return pass_s, len(ran)

    def task_s(self, scale=None):
        """Each task's median seconds, every run multiplied by
        ``scale(start, end)`` when given."""
        return {
            name: statistics.median(
                (end - start) * (scale(start, end) if scale else 1) for start, end in spans
            )
            for name, spans in self.spans.items()
        }


def fill(run, seconds, speed):
    """Passes for ``seconds``: the first runs every task, later ones leave
    out a task when a run of its median length would end after ``seconds``,
    so that the whole span is measured and every task is sampled across it.
    Returns the number of passes in which every task ran."""
    end = time.perf_counter() + seconds

    def fits(task):
        return time.perf_counter() + statistics.median(b - a for a, b in run.spans[task.name]) <= end

    run.one_pass(speed=speed)
    full = 1
    while True:
        _, ran = run.one_pass(fits=fits, speed=speed)
        if ran == 0:
            return full
        if ran == len(run.tasks):
            full += 1


def closed_loop(seconds, step):
    """Call ``step`` (which returns its own measured time) at least once, and
    again while another call of median length still ends within ``seconds``."""
    values = []
    start = time.perf_counter()
    while True:
        values.append(step())
        lap = statistics.median(values)
        if time.perf_counter() - start + lap > seconds:
            return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    setup_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports bihomcheck

    expected = workloads.Expected.load()
    tasks = workloads.build(args.workload, args.seed, expected)
    cold = workloads.cold_commands(args.workload, args.seed)
    setup_s = time.perf_counter() - setup_start
    import reference

    after_setup = [reference.kernel_s() for _ in range(SETUP_KERNELS)]
    result = {
        "setup_s": setup_s * reference.REFERENCE_S / statistics.fmean(after_setup),
        "raw_setup_s": setup_s,
        "cold": cold,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    run = Run(tasks)
    if args.mode == "run":
        speed = reference.Speed()
        result["full_passes"] = fill(run, args.seconds, speed)
        result["task_samples"] = {name: len(spans) for name, spans in run.spans.items()}
        result["task_s"] = run.task_s(speed.scale)
        result["pass_s"] = sum(result["task_s"].values())
        result["raw_pass_s"] = sum(run.task_s().values())
        result["kernel_s"] = speed.median_s()
    else:
        result.update(trace_passes(run, args.seconds))
        result["task_s"] = run.task_s()
    result.update(
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


def trace_passes(run, seconds):
    """Untraced and traced passes in turn for ``seconds``, then a counting
    pass and the scalar microbenchmarks."""
    import layers

    tracer = layers.Tracer()
    untraced, traced = [], []

    def pair():
        untraced.append(run.one_pass()[0])
        traced.append(run.one_pass(tracer)[0])
        return untraced[-1] + traced[-1]

    closed_loop(seconds, pair)
    metrics = tracer.metrics(len(traced))
    counter = layers.ScalarCounter()
    run.one_pass(counter)
    metrics["scalars.ops"] = (counter.ops, "count")
    metrics["scalars.is_zero_calls"] = (counter.is_zero_calls, "count")
    for name, value in layers.scalar_microbenchmarks().items():
        metrics[name] = (value, "ns")
    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "metrics": metrics,
        "spans": tracer.dump([t.name for t in run.tasks]),
    }


if __name__ == "__main__":
    sys.exit(main())
