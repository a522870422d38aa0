"""One workload in a fresh interpreter, driven by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (import cubechar and build the inputs, then stop), `run`
(closed loop: passes over the workload's operations, each issued when the
previous verdict has returned, for about S seconds and at least MIN_PASSES
passes; then every answer is checked) or `trace` (as `run`, but S/2
seconds untraced and then S/2 seconds with a span around every layer
function).  `run` and `trace` also time a fixed reference computation that
does not use cubechar (`reference_slice`) between operations, every
REFERENCE_EVERY_S; run.py divides the workload's times by the host speed this
gives.  The last line of
stdout is a JSON object for run.py.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
sys.path.insert(0, str(HERE))

#: Every measured run makes at least this many passes of the workload: the
#: median pass time then discounts a pass slowed by other load on the
#: machine, and the tail quantile (run.tail_quantile) has ten samples beyond
#: it.  acceptance has few operations per pass, so it needs more passes.
MIN_PASSES = {"acceptance": 6, "certify": 3}

#: The reference has two parts.  An exact elimination of the 18 x 18 Hilbert
#: matrix plus the identity, whose entries grow to big rationals as in
#: cubechar's Gram eliminations, and a plain integer loop, for the
#: interpreter-bound rest.  Each part alone (or a 9 x 9 Fraction matrix, or
#: list permutations) left more of the workloads' drift between runs.
_REFERENCE_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(18)] for i in range(18)]
#: A reference slice is timed before an operation when this many seconds
#: have passed since the last one.
REFERENCE_EVERY_S = 0.2


def reference_slice() -> tuple:
    """Seconds taken by the reference's two parts (about 10 ms and 1.3 ms).
    Neither touches cubechar, so no change to cubechar moves them, only the
    host's speed."""
    t0 = time.perf_counter()
    rows = [row[:] for row in _REFERENCE_MATRIX]
    for c in range(len(rows)):
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    t1 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return t1 - t0, time.perf_counter() - t1


def run_passes(ops, seconds: float, min_passes: int, tracer=None, span_names=None, slices=None):
    """Latencies per pass, and (op index, summary) for every executed op.
    Reference slices (one before an op, every REFERENCE_EVERY_S) are
    appended to `slices`."""
    passes, executed = [], []
    slices = [] if slices is None else slices
    last_slice = float("-inf")
    started = time.perf_counter()
    # after min_passes, start another pass only if it should end by about
    # `seconds`: half a typical pass may run past it, so a run lasts close
    # to `seconds` whatever the pass length
    while len(passes) < min_passes or (
        time.perf_counter() - started + statistics.median(map(sum, passes)) / 2 < seconds
    ):
        gc.collect()
        latencies = []
        for index, op in enumerate(ops):
            if time.perf_counter() - last_slice >= REFERENCE_EVERY_S:
                slices.append(reference_slice())
                last_slice = time.perf_counter()
            if tracer is not None:
                tracer.enter(span_names[index])
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an exception is a failed operation, not a crash
                elapsed = time.perf_counter() - t0
                summary = {"error": f"{type(exc).__name__}: {exc}", "decided": False}
            else:
                elapsed = time.perf_counter() - t0
                summary = None
            finally:
                if tracer is not None:
                    tracer.exit()
            if summary is None:
                summary = op.summarize(result)
                del result
            latencies.append(elapsed)
            executed.append((index, summary))
        passes.append(latencies)
    return passes, executed


def summary_digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def check_answers(ops, executed) -> dict:
    """Judge every executed op against its oracle; each distinct summary once."""
    verdicts = {}
    failures = []
    failed = decided = 0
    undecided = set()
    first_pass = []
    for index, summary in executed:
        digest = summary_digest(summary)
        if len(first_pass) < len(ops):
            first_pass.append(digest)
        key = (index, digest)
        if key not in verdicts:
            if "error" in summary:
                verdicts[key] = summary["error"]
            else:
                try:
                    verdicts[key] = None if ops[index].check(summary) else "wrong answer"
                except Exception as exc:  # the oracle could not judge: count as failed
                    verdicts[key] = f"oracle error {type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failures.append({"op": ops[index].name, "reason": verdicts[key]})
        if verdicts[key] is not None:
            failed += 1
        if summary.get("decided"):
            decided += 1
        else:
            undecided.add(ops[index].name)
    return {
        "attempted": len(executed),
        "failed": failed,
        "decided": decided,
        "undecided_ops": sorted(undecided),
        "failures": failures,
        "output_digest": hashlib.sha256("".join(first_pass).encode()).hexdigest(),
    }


def layer_metrics(tracer, traced_passes: int, workload: str, ops) -> dict:
    """Per-pass aggregates of the traced run, named as in metric_map.json."""
    out = {}
    for name in tracer.calls:
        if name.startswith("op:"):
            continue
        out[f"{name}.calls"] = tracer.calls[name] / traced_passes
        out[f"{name}.self_s"] = tracer.self_s[name] / traced_passes
    for name, value in tracer.counts.items():  # perm.construct.calls counts constructors
        out[name] = value / traced_passes
    out.update(tracer.max_values)
    evaluations = tracer.counts.get("certreal.evaluations", 0)
    if evaluations:
        out["certreal.decisive_ratio"] = tracer.counts.get("certreal.certified", 0) / evaluations
    if workload == "acceptance":
        for op in ops:
            out[f"verify.criterion.{op.name}.s"] = tracer.total_s[f"op:{op.name}"] / traced_passes
    out["trace.spans"] = sum(tracer.calls.values()) / traced_passes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans-out", help="file for the traced run's spans (trace mode)")
    args = parser.parse_args(argv)

    import workloads  # imports cubechar and numpy: part of the set-up time

    import cubechar

    if not Path(cubechar.__file__).resolve().is_relative_to(SOURCE.resolve()):
        raise SystemExit(f"cubechar was imported from {cubechar.__file__}, not from {SOURCE}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _STARTED
    out = {"setup_s": setup_s, "ops_per_pass": len(ops)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        slices = []
        passes, executed = run_passes(ops, args.seconds, MIN_PASSES[args.workload], slices=slices)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["passes"] = passes
        out["reference_s"] = [statistics.median(part) for part in zip(*slices)]
        out["reference_slices"] = len(slices)
    else:
        import tracing

        untraced, executed = run_passes(ops, args.seconds / 2, min_passes=1)
        tracer = tracing.Tracer()
        uninstall, out["untraced_targets"] = tracing.install(tracer)
        try:
            span_names = [f"op:{op.name}" for op in ops]
            traced, executed_traced = run_passes(ops, args.seconds / 2, 1, tracer, span_names)
        finally:
            uninstall()
        executed += executed_traced
        out["passes"] = untraced
        out["traced_passes"] = traced
        out["layers"] = layer_metrics(tracer, len(traced), args.workload, ops)
        out["certify_trails"] = tracer.certify_trails[:1000]
        if args.spans_out:
            tracer.save_spans(args.spans_out)
    out.update(check_answers(ops, executed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
