"""Training benchmark for tokentune.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports tokentune from ./src and
writes only a temporary directory under the root. The seed is the train
seed and the seed of the synthetic corpus. With --trace 0 the run
times train steps and evaluation with nothing installed, then measures memory
in a separate `tracemalloc` pass, and prints the end-to-end metrics.
With --trace 1 it times untraced and traced steps, and prints the
per-layer metrics and the tracing overhead. Correctness checks run in
both modes and count in "attempted"/"failed".

Standard output ends with two JSON lines: an "info" object (environment,
sample counts, the bases of every ratio, per-region detail), then the
result: {"correct", "attempted", "failed", "metrics"}. Time metrics from
the traced run are medians over steps of per-step totals; counts and
bytes are per example.

Every reported time is calibrated to a fixed host speed: a reference
kernel is timed before each timed operation and once after the last, and
the operation's wall time is scaled by REF_MS over the median of the
kernel times around it (see `harness.Reference`). The raw wall-time
medians and the kernel's times are in the info line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "train_tokens_per_s": "tokens/s",
    "eval_tokens_per_s": "tokens/s",
    "peak_bytes": "B",
    "activation_bytes": "B",
    "loss_final": "nats",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.startswith("model.region_ms.") \
            or name == "optimize.eval_ms_per_example":
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name in ("trace_overhead", "partition.grad_token_share",
                "mem.measured_over_accounted"):
        return "ratio"
    return "count"


def pin_blas_threads() -> int:
    """One BLAS thread, whatever the environment asks; must run before
    numpy is imported. On a shared host a second thread exposes each
    BLAS call to the slower of two CPUs, and the host-speed calibration
    (see `harness.Reference`) tracks one thread's speed closely but two
    threads' only loosely."""
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    from workloads import WORKLOADS, tiny

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy shapes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads = pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import tokentune
    if Path(tokentune.__file__).resolve().parent.parent != src:
        print(f"tokentune imported from {tokentune.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        result = harness.run(workload, args.seed, args.seconds,
                             bool(args.trace), tmp)

    info = result.pop("info")
    info.update(workload=workload.name, tiny=args.tiny,
                blas_threads=threads, cpus=os.cpu_count(),
                affinity_cpus=len(os.sched_getaffinity(0)),
                numpy=numpy.__version__, scipy=scipy.__version__,
                python=platform.python_version(), loop="closed, 1 caller")
    metrics = result["metrics"]
    units = {name: (END_TO_END_UNITS[name] if not args.trace
                    else per_layer_unit(name)) for name in metrics}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    print(json.dumps({"info": info}, default=float))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
