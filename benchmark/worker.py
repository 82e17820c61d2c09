"""Run one benchmark operation in a fresh interpreter.

    python worker.py '<json spec>'

The spec names the workload, seed, sizes, output directory and whether to
trace. The worker imports `earlylin` (its set-up), notes the monotonic time
at which it is ready, runs the operation, and writes `report.json` into the
output directory: ready time, import and operation seconds, peak resident
set, and the per-layer trace when tracing. Any failure exits non-zero.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import earlylin.cli  # imports every module of the package
    import_s = time.perf_counter() - start

    import workloads

    tracer = None
    if spec["traced"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()

    out = Path(spec["out"])
    start = time.perf_counter()
    workloads.OPERATIONS[spec["workload"]](earlylin.cli, out, spec["seed"], spec["size"])
    op_s = time.perf_counter() - start

    report = {
        "ready": ready,
        "import_s": import_s,
        "op_s": op_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.totals() if tracer else None,
    }
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main()
