#!/usr/bin/env python3
"""Build and run the admission-service benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload polling_fig3 --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn (with
--trace 1, each run prints its end-to-end and per-layer metrics).

The first call configures and builds perfbench/ (which compiles the
repository's src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. The last line
of standard output is the run's JSON result. A fuller record of every run
goes to .bench_results/, together with the spread of each metric across the
runs recorded there so far.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = ".bench_results"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE} (expected ../src)")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "--build", build_dir, "-j", "4"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "admission_bench")


def spread_across_runs(history, record):
    """IQR over median of every metric, across the recorded runs of the
    same workload and trace mode."""
    same = [r for r in history
            if r["workload"] == record["workload"] and r["trace"] == record["trace"]]
    out = {}
    for name in record["metrics"]:
        values = [r["metrics"][name] for r in same if name in r["metrics"]]
        if len(values) < 4:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"runs": len(values), "median": med,
                     "iqr_over_median": (q3 - q1) / med if med else 0.0}
    return out


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns its report lines and its JSON result."""
    os.makedirs(RESULTS, exist_ok=True)
    result_path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", result_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    with open(result_path) as f:
        record = json.load(f)
    history_path = os.path.join(RESULTS, "history.jsonl")
    history = []
    if os.path.isfile(history_path):
        with open(history_path) as f:
            history = [json.loads(line) for line in f if line.strip()]
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    history.append(entry)
    with open(history_path, "a") as f:
        f.write(json.dumps(entry) + "\n")
    record["spread_across_runs"] = spread_across_runs(history, entry)
    with open(result_path, "w") as f:
        json.dump(record, f, indent=2)

    report = lines[:-1]
    for name, s in record["spread_across_runs"].items():
        report.append(f"  across {s['runs']} runs: {name} median {s['median']:.6g}, "
                      f"IQR/median {s['iqr_over_median']:.3f}")
    report.append(f"record: {result_path}")
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        report, result = run_one(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        print("\n".join(report))
        print(json.dumps(result))
        return

    # Every workload in turn; metric names gain the workload as a prefix.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report, result = run_one(binary, workload, args.seed, args.seconds,
                                 args.trace)
        print("\n".join(report))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
