#!/usr/bin/env python3
"""The dbsp benchmark: builds perfbench/ (the engine from ../src plus the
load generator) and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale F] [--results DIR]
    python3 perfbench/run.py report DIR
    python3 perfbench/run.py compare DIR_A DIR_B
    python3 perfbench/run.py selftest

A run prints one JSON object as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
BENCHMARK.json end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1). The full record -- every metric with its sample count, the
failure breakdown, the system's configuration and the run's provenance --
goes to DIR (default .bench_results/) as <workload>-trace<T>-seed<N>.json;
the traced run also writes its spans there as a CSV file.

`report` prints each metric's median and quartiles over the records in DIR;
`compare` prints, per workload and metric, both sides' median and quartiles
and a verdict against the bounds in BENCHMARK.json. A rate taken from the
faster half of a run's time slices is also judged on its whole-window twin
(WINDOW_TWINS): when the whole-window figure is worse, so is the verdict.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dbsp_loadgen"
RUN_TIMEOUT_S = 170
# Faster-half rate -> the same rate over the whole measured window.
WINDOW_TWINS = {"publish_eps": "publish_eps_window"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the load generator; False when it fails."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "dbsp_loadgen"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def clean_env():
    """The environment minus every DBSP_* knob (the generator clears them
    too), so the host cannot change the system measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DBSP_")}


def host_info():
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system(), "release": platform.release()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and "cpu_model" not in info:
                    info["cpu_model"] = value.strip()
                elif key == "cpu MHz" and "cpu_mhz" not in info:
                    info["cpu_mhz"] = float(value)
    except OSError:
        pass
    return info


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def src_lines():
    """Lines of C++ under src/, the size ROADMAP tracks beside perf numbers."""
    total = 0
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with open(path, "rb") as f:
                total += sum(1 for _ in f)
    return total


def run_once(args):
    contract = load_contract()
    if not build():
        return 1

    results = Path(args.results) if args.results else ROOT / ".bench_results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    tmp_dir = ROOT / ".bench_tmp" / f"{stem}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--tmp-dir", str(tmp_dir)]
    if args.trace == 1:
        cmd += ["--spans", str(results / f"{stem}-spans.csv")]
    started = time.time()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: load generator failed (exit {done.returncode})")
        return 1
    record = json.loads(lines[-1])

    wanted = contract["per_layer" if args.trace == 1 else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        if got is None or not isinstance(got.get("value"), (int, float)):
            log(f"perfbench: metric {spec['name']} missing from the run")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}

    record["provenance"] = {
        "host": host_info(), "git_commit": git_commit(), "src_lines": src_lines(),
        "command": cmd, "wall_s": round(time.time() - started, 3),
        "python": platform.python_version(),
    }
    with open(results / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    if record["failed"]:
        log("perfbench: failures:", json.dumps(record["failures"]))
    print(json.dumps(result))
    return 0


# --- report / compare ---------------------------------------------------------

def load_records(directory):
    """{(workload, trace): {metric: [values]}} over every record in DIR."""
    groups = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            with open(path) as f:
                record = json.load(f)
            key = (record["workload"], record["trace"])
            metrics = record["metrics"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
        group = groups.setdefault(key, {})
        for name, m in metrics.items():
            if isinstance(m.get("value"), (int, float)):
                group.setdefault(name, []).append(float(m["value"]))
    return groups


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, better, bound):
    """better / same / worse / unresolved for side B against side A.

    A metric is unresolved when either side's spread exceeds the bound,
    unless every run of one side beats every run of the other. Otherwise B
    is better when its median improves on A's by more than A's spread and B
    wins at least nine tenths of all (a, b) pairs; worse when its median is
    worse by more than the bound; same otherwise. Metrics without a bound
    use A's spread as the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    if ma == 0:
        return "same" if mb == 0 else "unresolved"
    delta = sign * (mb - ma) / abs(ma)
    limit = bound if bound is not None else spread(a)
    b_wins_all = all(sign * (y - x) > 0 for x in a for y in b)
    a_wins_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > limit or spread(b) > limit:
        if b_wins_all:
            return "better"
        if a_wins_all:
            return "worse"
        return "unresolved"
    wins = sum(1 for x in a for y in b if sign * (y - x) > 0)
    if delta > spread(a) and wins >= 0.9 * len(a) * len(b):
        return "better"
    if delta < -limit:
        return "worse"
    return "same"


def metric_specs():
    contract = load_contract()
    specs = {}
    for m in contract["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
        if m["name"] in WINDOW_TWINS:
            specs[WINDOW_TWINS[m["name"]]] = (m["better"], m["bound"])
    for m in contract["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def fmt(x):
    return f"{x:.6g}"


def report(directory):
    groups = load_records(directory)
    if not groups:
        log(f"perfbench: no records in {directory}")
        return 1
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"== {workload} (trace {trace})")
        for name, values in sorted(metrics.items()):
            q1, med, q3 = quartiles(values)
            print(f"  {name:42s} n={len(values):2d} median={fmt(med):>12s}"
                  f"  q1={fmt(q1):>12s}  q3={fmt(q3):>12s}  spread={spread(values):.3f}")
    # The tracing overhead: traced DbspClient::publish against the
    # end-to-end publish latency of the same workload.
    for (workload, trace), metrics in sorted(groups.items()):
        e2e = groups.get((workload, 0), {}).get("publish_us_p50")
        traced = metrics.get("net.client_publish_us_p50")
        if trace == 1 and e2e and traced:
            print(f"tracing overhead {workload}: traced client publish p50 "
                  f"{fmt(statistics.median(traced))} us vs end-to-end "
                  f"{fmt(statistics.median(e2e))} us")
    return 0


def compare(dir_a, dir_b):
    a_groups, b_groups = load_records(dir_a), load_records(dir_b)
    specs = metric_specs()
    print("workload metric: A median [q1, q3] | B median [q1, q3] | delta | verdict")
    for key in sorted(set(a_groups) & set(b_groups)):
        workload, _ = key
        for name in sorted(set(a_groups[key]) & set(b_groups[key])):
            if name not in specs:
                continue
            better, bound = specs[name]
            a, b = a_groups[key][name], b_groups[key][name]
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(f"{workload} {name}: {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] | "
                  f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] | {delta:+.1%} | "
                  f"{judge(a_groups[key], b_groups[key], name, better, bound)}")
    return 0


def judge(a_metrics, b_metrics, name, better, bound):
    """The verdict on `name`; a faster-half rate is worse whenever its
    whole-window twin is worse, even if the faster half is not."""
    result = verdict(a_metrics[name], b_metrics[name], better, bound)
    twin = WINDOW_TWINS.get(name)
    if twin in a_metrics and twin in b_metrics and result != "worse":
        if verdict(a_metrics[twin], b_metrics[twin], better, bound) == "worse":
            return "worse (whole window)"
    return result


def main(argv):
    if argv and argv[0] == "report" and len(argv) == 2:
        return report(argv[1])
    if argv and argv[0] == "compare" and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv and argv[0] == "selftest" and len(argv) == 1:
        if not build():
            return 1
        return subprocess.run([str(BINARY), "--self-test"], env=clean_env()).returncode
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population/prefix multiplier (the tests use a tiny one)")
    parser.add_argument("--results", help="directory for the full records")
    return run_once(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
