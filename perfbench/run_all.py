"""Run every benchmark workload, each in its own process, and print its metrics.

    python3 perfbench/run_all.py [--seed 1] [--seconds 20] [--trace 0]

``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json. Exits
non-zero if any workload run fails or reports a failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
