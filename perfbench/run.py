"""bihomcheck benchmark: time to verdict on the CLI catalog and on sparse
and dense scaled families.

    python3 perfbench/run.py --workload {cli-catalog,sparse-scale,dense-scale}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/bihomcheck`` and
``tests/golden``. The workload runs in its own single-threaded worker
process (``worker.py``) as a closed loop of passes over its task list;
every output is checked after its pass. With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. Earlier lines carry run
metadata; spans and per-task times go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("cli-catalog", "sparse-scale", "dense-scale")
# extra set-up-only workers; with the measuring worker's own set-up they
# give the samples behind the setup_s median
SETUP_SAMPLES = 4
# fresh-process runs of each of the workload's cold CLI commands
COLD_ROUNDS = 6
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150
COLD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed string hashing, so set iteration order and the exact counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout):
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish in {timeout} s") from None


def worker(workload, seed, mode, seconds):
    proc = run_child(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--seconds", str(seconds)],
        WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker ({mode}) printed no result") from None


def cold_cli(commands, rounds, speed):
    """Wall time of ``python -m bihomcheck.cli`` in a fresh process, as a
    user's shell sees it, ``rounds`` times per command, with a reference
    kernel sample in this process after each. Returns the (start, end)
    spans per command and the failures."""
    samples = [[] for _ in commands]
    failures = []
    goldens = {}
    speed.sample_if_due()
    for _ in range(rounds):
        for (argv, golden), spans in zip(commands, samples):
            start = time.perf_counter()
            proc = run_child([sys.executable, "-m", "bihomcheck.cli", *argv], COLD_TIMEOUT_S)
            spans.append((start, time.perf_counter()))
            speed.sample()
            error = None
            if proc.returncode != 0:
                error = f"exit code {proc.returncode}"
            elif golden is not None:
                if golden not in goldens:
                    goldens[golden] = (GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8")
                if proc.stdout != goldens[golden]:
                    error = f"output differs from golden {golden}.json"
            else:
                try:
                    if any(e["status"] != "pass" for e in json.loads(proc.stdout)["entries"]):
                        error = "report has entries that do not pass"
                except (ValueError, KeyError, TypeError):
                    error = "output is not a report"
            if error:
                failures.append([f"cold:{' '.join(argv[:2])}", error])
    return samples, failures


def import_seconds():
    """Fresh-process time of ``import bihomcheck.cli`` alone."""
    code = (
        "import time; t = time.perf_counter(); import bihomcheck.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(IMPORT_SAMPLES):
        proc = run_child([sys.executable, "-c", code], COLD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import bihomcheck.cli failed: {proc.stderr.strip()[-500:]}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def metadata(workload, seed):
    """Recorded beside the metrics, never gated."""
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    golden = hashlib.sha256()
    for p in sorted(GOLDEN_DIR.glob("*.json")):
        golden.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
        "golden_sha256": golden.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def cold_median(spans, scale=None):
    """Median over commands of each command's median over rounds, every
    run multiplied by ``scale(start, end)`` when given."""
    return statistics.median(
        statistics.median((b - a) * (scale(a, b) if scale else 1) for a, b in runs) for runs in spans
    )


def end_to_end(workload, seed, seconds):
    setups = [worker(workload, seed, "setup", seconds) for _ in range(SETUP_SAMPLES)]
    # half the fresh-process rounds before the timed passes and half after,
    # so that they sample the same stretch of machine time as the passes
    speed = reference.Speed()
    cold, cold_failures = cold_cli(setups[0]["cold"], COLD_ROUNDS // 2, speed)
    res = worker(workload, seed, "run", seconds)
    after, after_failures = cold_cli(res["cold"], COLD_ROUNDS - COLD_ROUNDS // 2, speed)
    cold = [a + b for a, b in zip(cold, after)]
    cold_failures += after_failures
    setups = setups + [res]
    attempted = res["attempted"] + sum(len(spans) for spans in cold)
    failures = res["failures"] + cold_failures
    failed = res["failed"] + len(cold_failures)
    metrics = {
        "pass_s": (res["pass_s"], "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "cli_cold_s": (cold_median(cold, speed.scale), "s"),
    }
    detail = {
        # the same figures in wall seconds, not scaled to the reference speed
        "raw": {
            "pass_s": res["raw_pass_s"],
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "cli_cold_s": cold_median(cold),
        },
        "kernel_s": {"worker": res["kernel_s"], "cold": speed.median_s()},
        "full_passes": res["full_passes"],
        "task_samples": res["task_samples"],
        "setup_samples": [s["setup_s"] for s in setups],
        "cli_cold_wall_s": [[b - a for a, b in spans] for spans in cold],
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "task_s": res["task_s"],
    }
    return attempted, failed, metrics, detail


def per_layer(workload, seed, seconds):
    res = worker(workload, seed, "trace", seconds)
    metrics = {name: tuple(v) for name, v in res["metrics"].items()}
    metrics["cli.import_s"] = (import_seconds(), "s")
    detail = {
        "failed_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "task_s": res["task_s"],
        "spans": res["spans"],
    }
    return res["attempted"], res["failed"], metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bihomcheck" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        sys.stderr.write(f"error: no bihomcheck sources under {ROOT}; run from a checkout\n")
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, detail = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    meta = metadata(args.workload, args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics, **detail}, indent=1), encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k not in ("spans", "task_s")}
    print(json.dumps({"meta": meta, **summary, "record": str(record.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
