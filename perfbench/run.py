"""Benchmark of deskst: training steps and beam decoding, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_one2many_ctc --seed 1 --seconds 10 --trace 0

Workloads: train_one2many_ctc, train_tied_triangle_adapter,
decode_direct_beam12. ``--trace 0`` measures the end-to-end metrics with no
wrappers installed; ``--trace 1`` is a separate run that wraps deskst's
public functions from outside and reports the per-layer metrics. Both print
one line per metric and check, and as the last line a JSON object with the
keys correct, attempted, failed and metrics. The exit code is 1 when a
correctness check fails and 2 when deskst's source is not beside this
directory. ``--size smoke`` runs every code path in seconds.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def environment() -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the data come from it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "deskst").is_dir():
        print(f"error: no deskst source under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} size {args.size}")
    outcome, tracer = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.SIZES[args.size])
    for line in outcome.notes:
        print(line)
    print(f"metric failed_frac = {outcome.failed / outcome.attempted:.6g} ({outcome.failed} of {outcome.attempted} attempted)")
    if tracer is not None:
        path = TRACE_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        units = dict(tracing.per_layer_names())
    else:
        units = dict(workloads.END_TO_END)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
