"""gausslab benchmark: three closed-loop workloads, checked outputs, named metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {report,gauss,certify} --seed N \
        --seconds S --trace {0,1}

A run repeats rounds until S seconds have passed and always finishes the
round it is in.  A round is one fresh interpreter (bench/child.py) that
imports gausslab from ./src with empty caches, runs the workload's seeded
op list through ``cli.main`` and exits; only one program process runs at a
time.  ``report`` has one op per round, timed from spawn to exit, so it is
the cold-process cost of the certificate.  After the last round every
output is checked apart from gausslab (bench/oracles.py) and every round
must reproduce the first byte for byte.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics of a run
with the tracer installed (--trace 1).  Files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = {"op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
# Percentiles offered as the reference tail; a run reports the highest one
# with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def build() -> None:
    """Byte-compile the program once, so no round pays for compiling it."""
    if not os.path.isfile(os.path.join(SRC, "gausslab", "cli.py")):
        raise SystemExit(f"bench: no gausslab sources under {SRC}")
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(BENCH, quiet=1):
        raise SystemExit("bench: byte-compiling the sources failed")


def run_round(ops_file: str, out_file: str, trace: bool) -> dict:
    """Run one child; return its setup time, wall time, peak RSS and records."""
    command = [sys.executable, "-I", os.path.join(BENCH, "child.py"), SRC, ops_file, out_file]
    if trace:
        command.append("--trace")
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"bench: round exited with {proc.returncode} before finishing")
    with open(out_file) as handle:
        records = [json.loads(line) for line in handle]
    trace_metrics = records.pop()["trace"] if trace else None
    return {
        "setup_s": ready_at - start,
        "wall_s": wall,
        "rss_mib": usage.ru_maxrss / 1024,
        "records": records,
        "trace": trace_metrics,
    }


def check_outputs(ops: list[dict], rounds: list[dict]) -> tuple[int, list[str]]:
    """Failed ops, and the problems found in the outputs of the ops that ran."""
    failed, problems = 0, []
    first = rounds[0]["records"]
    for index, (op, record) in enumerate(zip(ops, first)):
        if record["rc"] not in (0, 1):
            # A traceback, a usage error or a blown budget: the op failed.
            failed += len(rounds)
            continue
        try:
            doc = json.loads(record["out"])
        except json.JSONDecodeError:
            problems.append(f"op {index} ({' '.join(op['argv'][:2])}): output is not JSON")
            continue
        problems += oracles.CHECKERS[op["kind"]](op, record["rc"], doc)
    for number, rnd in enumerate(rounds[1:], start=1):
        for index, (a, b) in enumerate(zip(first, rnd["records"])):
            if (a["rc"], a["out"]) != (b["rc"], b["out"]):
                problems.append(f"round {number} op {index}: output differs from round 0")
    return failed, problems


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g} {cuts[round(p * 10) - 1]:.3f} ms over {n} samples"
    return f"no tail percentile: {n} samples (fewer than 40)"


def end_to_end(workload: str, rounds: list[dict]) -> dict:
    if workload == "report":
        # One op per round, timed from spawn to exit.
        op_ms = [r["wall_s"] * 1e3 for r in rounds]
    else:
        op_ms = [rec["ns"] / 1e6 for r in rounds for rec in r["records"]]
    values = {
        "op_p50_ms": statistics.median(op_ms),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }
    print(f"bench: {workload}: {len(rounds)} rounds; op time {tail(op_ms)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the rounds (which must agree) and median self times."""
    problems = []
    traces = [r["trace"] for r in rounds]
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [t[name] for t in traces]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"trace: {name} differs between rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}
    total = statistics.median(sum(rec["ns"] for rec in r["records"]) / 1e9 for r in rounds)
    print(f"bench: traced {len(rounds)} rounds; median traced round {total:.3f} s")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    build()
    os.makedirs(OUT, exist_ok=True)
    ops = workloads.OPS[args.workload](args.seed)
    tag = f"{args.workload}-{args.seed}{'-trace' if args.trace else ''}"
    ops_file = os.path.join(OUT, f"ops-{tag}.json")
    out_file = os.path.join(OUT, f"out-{tag}.jsonl")
    with open(ops_file, "w") as handle:
        json.dump([op["argv"] for op in ops], handle)
    if args.workload == "gauss":
        share = workloads.pascal_memo_hit_share(ops)
        print(f"bench: gauss: {len(ops)} ops a round; pascal memo hits >= {share:.0%}")

    deadline = time.perf_counter() + args.seconds
    rounds = [run_round(ops_file, out_file, bool(args.trace))]
    while time.perf_counter() < deadline:
        rounds.append(run_round(ops_file, out_file, bool(args.trace)))
    os.remove(ops_file)
    os.remove(out_file)

    failed, problems = check_outputs(ops, rounds)
    if args.trace:
        metrics, trace_problems = per_layer(rounds)
        problems += trace_problems
    else:
        metrics = end_to_end(args.workload, rounds)
    for problem in problems[:20]:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(result, handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
