#!/usr/bin/env python3
"""Build and run the gaia_perf ledger.

One workload (the BENCHMARK.json command); run from the repo root:

    python3 bench/perf/run.py --workload fig14_year --seed 1 \
        --seconds 10 --trace 0

builds build-perf/gaia_perf from source if needed, runs the workload,
relays its `name value unit` lines, and prints as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. The gaia_perf JSON report lands in
build-perf/perf-results/ as <workload>[.traced].s<seed>.json, and for
--trace 1 a Perfetto trace beside it. Exits non-zero when the build
fails, a metric is missing, or any operation failed.

Compare two sets of reports (directories of gaia_perf --json files,
or single files):

    python3 bench/perf/run.py --compare BASE NEW

takes each side's median over its reports of a workload, prints one
row per workload x metric with base, new, ratio and bound, and exits
non-zero when an end-to-end metric is worse than its bound or the
error rate rose.

    python3 bench/perf/run.py --selftest build-perf/gaia_perf

runs every workload with --quick, untraced and traced, and checks that
each metric BENCHMARK.json or WORKLOAD_END_TO_END names for it is
printed and error_rate is 0 (the ctest of the bench/perf project).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
RESULTS = BUILD / "perf-results"
# A benchmark run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170
# End-to-end metrics BENCHMARK.json cannot list, since it lists only
# metrics every workload reports, each with a bound: per-workload
# ones, and ones demoted for their run-to-run spread (bound None;
# README.md, "Steadiness"). --compare prints these beside the others
# and fails only on a bounded one.
JOBS_PER_S = {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher",
              "bound": None}
WORKLOAD_END_TO_END = {
    "fig14_year": [JOBS_PER_S],
    "hybrid_year": [JOBS_PER_S],
    "serve_stream": [
        JOBS_PER_S,
        {"name": "lag_us_p50", "unit": "us", "better": "lower",
         "bound": 0.1},
        {"name": "lag_us_p99", "unit": "us", "better": "lower",
         "bound": None},
    ],
    "serve_socket": [
        JOBS_PER_S,
        {"name": "rtt_us_p50", "unit": "us", "better": "lower",
         "bound": None},
        {"name": "rtt_us_p99", "unit": "us", "better": "lower",
         "bound": None},
    ],
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "gaia_perf"],
                   check=True, stdout=sys.stderr)
    return BUILD / "gaia_perf"


def run_workload(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (args.workload + (".traced" if args.trace else "") +
            f".s{args.seed}")
    report_path = RESULTS / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(report_path)]
    if args.trace:
        cmd += ["--traced", "--trace-out",
                str(RESULTS / f"{stem}.trace.json")]
    # The working directory holds the serve_socket control socket.
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if not report_path.exists():
        sys.exit(f"run.py: gaia_perf exited {proc.returncode} "
                 "without a report")

    report = json.loads(report_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None:
            sys.exit(f"run.py: gaia_perf did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            sys.exit(f"run.py: {metric['name']} is in {got['unit']}, "
                     f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    correct = proc.returncode == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def load_reports(path):
    """{(workload, traced): [report, ...]} from a file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = {}
    for file in files:
        data = json.loads(file.read_text())
        if isinstance(data, dict) and "workload" in data:
            key = (data["workload"], data["traced"])
            reports.setdefault(key, []).append(data)
    return reports


def median_of(runs, name):
    """Median of metric `name` over `runs`; None if any run lacks it."""
    values = [run["metrics"].get(name, {}).get("value") for run in runs]
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def compare(base_path, new_path):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load_reports(base_path), load_reports(new_path)
    failed = False
    header = (f"{'workload':<28} {'metric':<36} {'base':>14} "
              f"{'new':>14} {'ratio':>7} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(base.keys() & new.keys()):
        workload, traced = key
        old_runs, new_runs = base[key], new[key]
        label = (f"{workload}{' traced' if traced else ''} "
                 f"({len(old_runs)}/{len(new_runs)})")
        table = layers if traced else dict(
            bounds, **{m["name"]: m
                       for m in WORKLOAD_END_TO_END.get(workload, [])})
        for name, metric in table.items():
            b = median_of(old_runs, name)
            n = median_of(new_runs, name)
            if b is None or n is None:
                continue
            ratio = n / b if b else float("inf") if n else 1.0
            verdict = ""
            bound = metric.get("bound")
            if bound is not None:
                worse = (ratio < 1 - bound if metric["better"] == "higher"
                         else ratio > 1 + bound)
                verdict = "WORSE" if worse else "ok"
                failed |= worse
            print(f"{label:<28} {name:<36} {b:>14.6g} {n:>14.6g} "
                  f"{ratio:>7.3f} {bound if bound is not None else '-':>6}"
                  f"  {verdict}")
        old_rate = max(run["error_rate"] for run in old_runs)
        new_rate = max(run["error_rate"] for run in new_runs)
        rose = new_rate > old_rate
        failed |= rose
        print(f"{label:<28} {'error_rate':<36} {old_rate:>14.6g} "
              f"{new_rate:>14.6g} {'':>7} {0:>6}  "
              f"{'ROSE' if rose else 'ok'}")
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        print(f"not in both sets: {missing}")
    return 1 if failed else 0


def selftest(binary):
    spec = load_spec()
    binary = Path(binary).resolve()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (False, True):
            cmd = [str(binary), "--workload", workload, "--quick"]
            if traced:
                cmd.append("--traced")
            proc = subprocess.run(cmd, cwd=binary.parent,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            printed = {}
            for line in proc.stdout.splitlines():
                fields = line.split()
                if len(fields) == 3:
                    printed[fields[0]] = fields[1]
            label = f"{workload}{' --traced' if traced else ''}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
            if printed.get("error_rate") != "0":
                problems.append(f"{label}: error_rate "
                                f"{printed.get('error_rate')}")
            wanted = (spec["per_layer"] if traced else
                      spec["end_to_end"] +
                      WORKLOAD_END_TO_END.get(workload, []))
            for metric in wanted:
                if metric["name"] not in printed:
                    problems.append(f"{label}: {metric['name']} missing")
            print(f"{label}: {len(printed)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selftest", metavar="GAIA_PERF")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args.selftest)
    if not args.workload:
        parser.error("--workload, --compare or --selftest is required")
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
