"""Run one blehop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy. Working files go under
``.perfbench_work/`` in the checkout. With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
The lines above it show the input digests and the workload's own figures
(failure and recovery shares, per-workload latencies), each with its unit.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "track", "survey")


def pin_threads_and_use_source_tree():
    """Pin BLAS/OpenMP to one thread; put the checkout's ``src/`` first on the path."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "blehop" / "__init__.py").is_file():
        sys.exit(f"error: no blehop source tree at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    pin_threads_and_use_source_tree()
    import blehop  # noqa: F401  (the import is part of set-up time)

    from measure import run_workload

    import_s = perf_counter() - _START
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              work_dir, import_s=import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    summary = result.pop("summary")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['failed']} of {result['attempted']} checked operations failed")
    for name, (value, unit) in {**summary, **{
            k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
