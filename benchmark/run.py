"""Benchmark driver: run one workload's operations and print its metrics.

    python3 benchmark/run.py --workload agreement --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Each operation runs in its own fresh
worker process (`worker.py`), one at a time, with OpenBLAS held to one
thread, and before each one this process times the workload's reference
computation (`reference.py`), which tracks the speed of the machine. Rounds
start until `--seconds` have passed, then every operation's output is checked
(`checks.py`), outside the timed interval. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and the
metrics that BENCHMARK.json lists, end-to-end ones with `--trace 0` and
per-layer ones with `--trace 1`. A traced run alternates an untraced and a
traced operation on the same seed, so `trace.overhead_s` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, in the workers and in the reference: on a shared host a
# second thread makes an operation wait for whichever core the neighbours
# leave free (+70% with one busy core). Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 60  # about ten times the slowest operation


@dataclass
class Op:
    seed: int
    traced: bool
    out: Path
    error: str | None = None
    wrong: bool = False  # ran, but its output failed a check
    setup_s: float = 0.0
    import_s: float = 0.0
    op_s: float = 0.0
    ref_s: float = 0.0  # mean time of the reference step, timed just before
    rss_mib: float = 0.0
    layers: dict = field(default_factory=dict)


def run_worker(workload: str, seed: int, traced: bool, out: Path, size: dict,
               ref_step=None) -> Op:
    out.mkdir(parents=True)
    op = Op(seed, traced, out)
    if ref_step is not None:
        op.ref_s = reference.seconds(ref_step)
    spec = {"workload": workload, "seed": seed, "traced": traced,
            "out": str(out), "size": size}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(out / "worker.log", "wb") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                  stdout=log, stderr=subprocess.STDOUT, env=env,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            op.error = f"timed out after {OP_TIMEOUT_S} s"
            return op
    if proc.returncode != 0:
        tail = (out / "worker.log").read_text(errors="replace").strip().splitlines()[-5:]
        op.error = f"worker exited with {proc.returncode}: " + " | ".join(tail)
        return op
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    op.setup_s = report["ready"] - spawned
    op.import_s = report["import_s"]
    op.op_s = report["op_s"]
    op.rss_mib = report["maxrss_kib"] / 1024.0
    op.layers = report["layers"] or {}
    return op


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict,
            work: Path) -> list[Op]:
    """Whole rounds of operations until `seconds` have passed."""
    ops: list[Op] = []
    start = time.monotonic()
    ref_step = None if trace else reference.step(workload, size)
    k = 0
    while k == 0 or time.monotonic() - start < seconds:
        op_seed = workloads.op_seed(seed, k)
        for traced in ((False, True) if trace else (False,)):
            ops.append(run_worker(workload, op_seed, traced, work / f"op{len(ops)}", size,
                                  ref_step))
        k += 1
    return ops


def check(workload: str, ops: list[Op], size: dict) -> None:
    """Check every operation's output; print one line per operation to stderr."""
    for op in ops:
        if op.error is None:
            try:
                problems = checks.CHECKS[workload](op.out, op.seed, size)
            except Exception as exc:  # a malformed output fails its operation
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                op.error, op.wrong = "; ".join(problems), True
        status = "ok" if op.error is None else f"FAILED: {op.error}"
        print(f"{workload} seed {op.seed}{' traced' if op.traced else ''}: set-up "
              f"{op.setup_s:.3f} s, operation {op.op_s:.3f} s, reference {op.ref_s:.4f} s, "
              f"{op.rss_mib:.0f} MiB, {status}",
              file=sys.stderr)


def end_to_end(ops: list[Op]) -> dict[str, float]:
    op_p50_s = statistics.median(op.op_s for op in ops)
    ref_p50_s = statistics.median(op.ref_s for op in ops)
    return {
        "setup_s": statistics.median(op.setup_s for op in ops),
        "op_p50_rel": op_p50_s / ref_p50_s,
        "peak_rss_mib": max(op.rss_mib for op in ops),
        # printed, not reported: wall times that move with the machine's speed
        "op_p50_s": op_p50_s,
        "ref_p50_s": ref_p50_s,
    }


def per_layer(ops: list[Op]) -> dict[str, float]:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    values = {name: statistics.median(op.layers[name] for op in traced)
              for name in traced[0].layers}
    values["setup.import_s"] = statistics.median(op.import_s for op in ops)
    values["trace.overhead_s"] = (statistics.median(op.op_s for op in traced)
                                  - statistics.median(op.op_s for op in plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "earlylin" / "__init__.py").is_file():
        print(f"error: no earlylin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:  # the checks regenerate inputs
        sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    size = workloads.SIZES[args.workload]
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=runs))
    try:
        ops = measure(args.workload, args.seed, args.seconds, bool(args.trace), size, work)
        check(args.workload, ops, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if op.error is None]
    if not good or (args.trace and {op.traced for op in good} != {False, True}):
        print("error: no operation left to measure", file=sys.stderr)
        return 1
    values = per_layer(good) if args.trace else end_to_end(good)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
    for name in () if args.trace else ("op_p50_s", "ref_p50_s"):
        print(f"{args.workload:16s} {name:44s} {values[name]:14.6g} s")
    failed = len(ops) - len(good)
    print(f"{args.workload:16s} {'attempted':44s} {len(ops):14d}\n"
          f"{args.workload:16s} {'failed':44s} {failed:14d}")
    print(json.dumps({"correct": not any(op.wrong for op in ops), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
