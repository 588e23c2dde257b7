"""Self-test of the benchmark at tiny input sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that:

* every metric BENCHMARK.json names is produced, with its unit, by an
  untraced and a traced run of every workload, and nothing else is;
* a corrupted output counts as a failed operation: a reconstruction
  report whose ``k_init`` is off by one (sweep, track and survey), and a
  forecast with one wrong channel (track);
* the runner exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark, without the program.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOADS, pin_threads_and_use_source_tree

TINY = {
    "sweep": {"trials": 3},
    "track": {"duration_s": 120, "train_s": 30},
    "survey": {"per_interval": 4, "duration_s": 300},
}
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_metric_names(work):
    from measure import run_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            result = run_workload(name, 7, 0.0, traced, work / name, sizes=TINY[name],
                                  log=lambda line: None)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            numeric = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            check(got == wanted and numeric, f"{name} trace={int(traced)}: {section} metrics "
                  "named in BENCHMARK.json, with units")


def _corrupting(main, edit):
    """``cli.main`` that runs the command, then applies ``edit`` to its out-dir."""

    def corrupted(argv):
        code = main(argv)
        edit(argv[0], Path(argv[argv.index("--out-dir") + 1]))
        return code

    return corrupted


def _bump_k_init(command, out_dir):
    """Move the first error-free CSA#2 report's counter by one."""
    if command != "reconstruct":
        return
    for path in sorted(out_dir.glob("report_*.json")):
        report = json.loads(path.read_text())
        if "k_init" in report and not report["error"]:
            report["k_init"] = (report["k_init"] + 1) % 65536
            path.write_text(json.dumps(report))
            return


def _flip_channel(command, out_dir):
    """Change the channel of one forecast entry."""
    if command != "predict":
        return
    path = out_dir / "forecast.json"
    forecast = json.loads(path.read_text())
    entry = forecast["entries"][len(forecast["entries"]) // 2]
    entry["channel"] = (entry["channel"] + 1) % 37
    path.write_text(json.dumps(forecast))


def check_corruption_fails(work):
    import workloads

    work.mkdir()
    sweep = workloads.make_sweep_inputs(3, work, **TINY["sweep"])
    config = sweep.data["configs"][0]
    timelines, trace = workloads.blehop.simulate(config)
    report = workloads.blehop.reconstruct_connection(trace).to_dict()
    truth = workloads._truth(config.connections[0].params, timelines[0],
                             trace.observations[0].timestamp_ns)
    result = workloads.PassResult(0.0, 0.0, [])
    result.grade(report, truth)
    check(result.failed == 0, "sweep: an untouched report passes")
    report["k_init"] = (report["k_init"] + 1) % 65536
    result.grade(report, truth)
    check(result.failed == 1, "sweep: a report with k_init off by one fails")

    cases = (("track", _bump_k_init), ("track", _flip_channel), ("survey", _bump_k_init))
    for name, edit in cases:
        make_inputs, run_pass = workloads.WORKLOADS[name]
        inputs = make_inputs(3, work, **TINY[name])
        clean = run_pass(inputs, work / f"{name}-clean")
        main = workloads.cli.main
        workloads.cli.main = _corrupting(main, edit)
        try:
            corrupted = run_pass(inputs, work / f"{name}-{edit.__name__}")
        finally:
            workloads.cli.main = main
        check(corrupted.failed > clean.failed,
              f"{name}: {edit.__name__.strip('_')} in the program's output counts as failed "
              f"({clean.failed} -> {corrupted.failed})")


def check_bare_directory(work):
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program the runner exits non-zero and prints no result")


def main():
    pin_threads_and_use_source_tree()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=scratch) as tmp:
        work = Path(tmp)
        check_metric_names(work / "names")
        check_corruption_fails(work / "corrupt")
        check_bare_directory(work)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
