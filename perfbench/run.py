"""The cubechar benchmark: time to verdict, and whether each verdict is still
correct and certified.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the cubechar source tree next to this
directory (`../src`).  Every measurement happens in fresh child interpreters
(worker.py) with BLAS threads pinned to 1, one at a time:

  * `--trace 0`: four set-up probes and one closed-loop run; prints the
    end-to-end metrics.
  * `--trace 1`: three import probes and one run whose second half has a
    span around every layer function; prints the per-layer metrics and the
    tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A full record of the run (median and IQR of every
metric, machine id, source digest, output digest, failures) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
RESULTS = HERE / "results"
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text())
WORKLOADS = tuple(METRIC_MAP["workloads"])

#: A run must end within this many seconds.
RUN_DEADLINE_S = 170
SETUP_PROBES = 4
#: Median times of worker.reference_slice's two parts on the machine the
#: benchmark was defined on (a 2-vCPU Intel Xeon virtual machine, Python
#: 3.11).  That host's speed drifted by up to 2x over minutes with other
#: tenants' load, and every time a run measures drifted with it; so each run
#: times this reference beside the workload and reports its times as they
#: would read on a host where the reference parts take these times.
REFERENCE_S = (0.010, 0.0013)
IMPORT_PROBES = 3

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter();"
    " import cubechar.cli; t2 = time.perf_counter();"
    " print(t1 - t0, t2 - t0)"
)


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SOURCE),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list, deadline: float) -> str:
    """Run one child interpreter to completion and return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting " + " ".join(argv[:4]))
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {timeout:.0f} s: {argv[:4]}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {argv[:4]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float, *extra) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--mode", mode, *extra]
    return json.loads(run_child(argv, deadline).strip().splitlines()[-1])


# --- statistics ---------------------------------------------------------------


def spread(values: list) -> dict:
    """Median, quartiles and IQR as statistics.quantiles gives them."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": len(values)}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between the order statistics."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(ops_per_pass: int, min_passes: int) -> float:
    """90th percentile, or the highest one that keeps ten samples beyond it
    in the fewest samples a run takes (min_passes passes)."""
    return min(0.9, 1 - 10 / (min_passes * ops_per_pass))


# --- one workload ---------------------------------------------------------------


def host_factor(reference_s: list) -> float:
    """How much slower than the reference machine the host ran (the geometric
    mean over the reference's parts): times are divided by this, so that they
    read as on that machine."""
    return math.prod(t / ref for t, ref in zip(reference_s, REFERENCE_S)) ** (1 / len(REFERENCE_S))


def end_to_end(workload: str, out: dict, probes: list) -> dict:
    """The end-to-end metrics of one run from its worker outputs.  Every time,
    set-up included, is divided by the measured run's host factor; the time as
    measured is kept beside it."""
    factor = host_factor(out["reference_s"])
    setup = [p["setup_s"] for p in probes + [out]]
    passes = out["passes"]
    # a pass's time as the sum of each operation's median over the passes: a
    # burst of load on the host that slows part of one pass moves it less
    # than it moves the median of whole passes
    wall = sum(statistics.median(p[i] for p in passes) for i in range(out["ops_per_pass"]))
    latencies = [t for p in passes for t in p]
    q = tail_quantile(out["ops_per_pass"], MIN_PASSES[workload])
    measured = {
        "wall_s": wall,
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdict_p90_ms": percentile(latencies, q) * 1e3,
    }
    metrics = {
        "setup_s": {"median": statistics.median(setup) / factor, "measured": spread(setup)},
        **{name: {"median": value / factor, "measured": value} for name, value in measured.items()},
        "verdicts_per_s": {"median": out["ops_per_pass"] / (wall / factor)},
        "correct_ratio": {"median": (out["attempted"] - out["failed"]) / out["attempted"]},
        "decided_ratio": {"median": out["decided"] / out["attempted"]},
        "peak_rss_mb": {"median": out["peak_rss_mb"]},
    }
    metrics["wall_s"]["measured_pass_sums"] = spread([sum(p) for p in passes])
    metrics["verdict_p50_ms"]["samples"] = len(latencies)
    metrics["verdict_p90_ms"].update(quantile=q, samples=len(latencies))
    return {name: metrics[name] for name in METRIC_MAP["end_to_end"]}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    probes = [worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
    out = worker(workload, seed, seconds, "run", deadline)
    out["setup_probes"] = probes
    return end_to_end(workload, out, probes), out


def trace(workload: str, seed: int, seconds: float, deadline: float, spans_path: Path) -> tuple:
    imports = [
        [float(x) for x in run_child(["-c", IMPORT_PROBE], deadline).split()]
        for _ in range(IMPORT_PROBES)
    ]
    out = worker(workload, seed, seconds, "trace", deadline, "--spans-out", str(spans_path))
    untraced = statistics.median(sum(p) for p in out["passes"])
    traced = statistics.median(sum(p) for p in out["traced_passes"])
    layers = dict(out["layers"])
    layers["cli.import_numpy_s"] = statistics.median(t[0] for t in imports)
    layers["cli.import_s"] = statistics.median(t[1] for t in imports)
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_ratio"] = traced / untraced - 1
    metrics = {name: {"median": layers.get(name, 0.0)} for name in METRIC_MAP["per_layer"]}
    return metrics, out


def machine() -> dict:
    fields = {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    fields["id"] = hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]
    return fields


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: int, traced: bool, deadline: float) -> dict:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        metrics, out = trace(workload, seed, seconds, deadline, RESULTS / f"{stem}-spans.npz")
        units = {name: spec["unit"] for name, spec in METRIC_MAP["per_layer"].items()}
    else:
        metrics, out = measure(workload, seed, seconds, deadline)
        units = {name: spec["unit"] for name, spec in METRIC_MAP["end_to_end"].items()}
    for name, entry in metrics.items():
        entry["unit"] = units[name]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "output_digest": out["output_digest"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_ratio": out["failed"] / out["attempted"],
        "decided": out["decided"],
        "undecided_ops": out["undecided_ops"],
        "failures": out["failures"],
        "ops_per_pass": out["ops_per_pass"],
        "metrics": metrics,
    }
    if traced:
        record["certify_trails"] = out["certify_trails"]
        record["untraced_targets"] = out["untraced_targets"]
        record["all_layer_aggregates"] = out["layers"]
    else:
        record["reference_s"] = out["reference_s"]
        record["reference_slices"] = out["reference_slices"]
        record["host_factor"] = host_factor(out["reference_s"])
        record["setup_probes"] = out["setup_probes"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def result_line(records: list, prefix: bool) -> dict:
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        for name, entry in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": entry["median"], "unit": entry["unit"]}
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cubechar" / "__init__.py").is_file():
        print(f"no cubechar source tree at {SOURCE}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchmarkError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        for metric, entry in record["metrics"].items():
            print(f"{name:<11} {metric:<44} {entry['median']:>14.6g} {entry['unit']}")
        for failure in record["failures"]:
            print(f"{name:<11} FAILED {failure['op']}: {failure['reason']}")
    print(json.dumps(result_line(records, prefix=len(records) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
