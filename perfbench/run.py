"""Run one pairtrack benchmark workload and print its metrics.

From the root of a checkout of the repository:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/`` and nowhere else, in
this one process, with ``OPENBLAS_NUM_THREADS`` pinned before numpy loads.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions and prints the per-layer metrics instead. Before
the result the run prints its environment and a table of the metrics. The
last line of standard output is the result:

    {"correct": true, "attempted": 640, "failed": 0, "metrics": {...}}

Exit codes: 0 on success; 1 when an output check fails or an operation
fails (the result line then reads ``"correct": false``); 2 when the sources
or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, so results name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pairtrack").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pairtrack" / "__init__.py").is_file():
        print(f"perfbench: no pairtrack sources under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # must precede the first numpy import
    sys.path.insert(0, str(SRC))
    import numpy
    import pairtrack

    if Path(pairtrack.__file__).resolve().parent != SRC / "pairtrack":
        print(f"perfbench: imported pairtrack from {pairtrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import CheckFailed, run_workload

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "git_sha": _git_sha(), "src_sha256": _source_digest(),
    }
    print("env " + json.dumps(env), flush=True)

    start = time.perf_counter()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               str(TMP_ROOT))
    except CheckFailed as exc:
        print(f"perfbench: OUTPUT CHECK FAILED on {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    for error in outcome.errors:
        print(f"perfbench: failed operation: {error}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    for name, (value, unit) in outcome.info.items():
        print(f"{name:40s} {value:16.6f} {unit} (printed only)")
    attempted = max(outcome.attempted, 1)
    print(f"{'failed_frac':40s} {outcome.failed / attempted:16.6f} 1 "
          f"({outcome.failed} of {attempted})")
    print(f"run took {time.perf_counter() - start:.1f} s")
    result = {
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
