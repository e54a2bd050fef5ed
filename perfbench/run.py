#!/usr/bin/env python3
"""DataFlasks benchmark: builds the server and the driver from this checkout
and runs one workload, a summary of all of them, a steadiness report, or the
driver's self-checks.

  python3 perfbench/run.py --workload fleet-read --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --summary [--seed 1] [--seconds 10]
  python3 perfbench/run.py --steadiness 5 --workload sim-churn-1k [--trace 1]
  python3 perfbench/run.py --selfcheck

A workload run prints human-readable lines, then one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). --summary prints every end-to-end metric the benchmark defines
for every workload, traced numbers beside untraced ones, and exits non-zero
when any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fleet-read", "fleet-write-durable", "sim-churn-1k"]
RUN_TIMEOUT_S = 170

# Every end-to-end number the benchmark measures. The ones BENCHMARK.json
# bounds are measured on every workload; the rest belong to some workloads
# and are printed only here.
SUMMARY_METRICS = [
    ("get_p50_us", "us"), ("get_p99_us", "us"),
    ("put_p50_us", "us"), ("put_p99_us", "us"),
    ("max_rate_ops_s", "ops/s"), ("error_ratio", "ratio"),
    ("setup_s", "s"), ("rss_mb", "MB"), ("cpu_us_per_op", "us"),
    ("restart_ms", "ms"), ("lost_acked_writes", "count"),
    ("disk_bytes_per_user_byte", "ratio"), ("msgs_per_op", "msgs"),
    ("maint_msgs_per_node_s", "msgs"), ("sim_ops_per_wall_s", "ops/s"),
    ("alloc_bytes_per_op", "bytes"), ("slice_coverage", "ratio"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the server and the driver; returns
    (driver, server, build_type)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no DataFlasks sources (src/) in " + ROOT)
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench_driver", "dataflasks_server"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "src", "server", "dataflasks_server"),
            "Release")


def commit():
    """The git commit when the checkout is a repository; otherwise a digest
    of the sources the benchmark builds (src/ and perfbench/)."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_driver(binaries, workload, seed, seconds, trace, extra=()):
    """Runs the driver in its own process group (every server it forks dies
    with the group); returns its parsed result."""
    driver, server, _ = binaries
    work = os.path.join(build_dir(), "runs", "%d-%s-%d" % (os.getpid(),
                                                           workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--server-bin", server, "--work-dir", work] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("%s did not finish in %d s" % (workload,
                                                          RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if trace and os.path.isfile(os.path.join(work, "spans.jsonl")):
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.copy(os.path.join(work, "spans.jsonl"),
                    os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed)))
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("%s driver exited with %d" % (workload,
                                                         proc.returncode))
    for line in reversed(stdout.splitlines()):
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line[len("PERFBENCH_RESULT "):])
    raise RuntimeError("%s driver printed no result" % workload)


def result_line(bench, result, trace):
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif trace:
            value = 0  # the layer is not exercised by this workload
        else:
            raise RuntimeError("driver did not measure " + name)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": result["wrong"] == 0,
            "attempted": max(1, int(result["attempted"])),
            "failed": int(result["failed"]),
            "metrics": metrics}


def print_details(workload, result, stamp):
    print("# %s: nproc=%s build=%s commit=%s" % (workload, result["nproc"],
                                                  stamp[0], stamp[1]))
    print("# attempted=%d failed=%d wrong=%d" % (result["attempted"],
                                                 result["failed"],
                                                 result["wrong"]))
    for note in result["notes"]:
        print("# note: " + note)
    for name, value in sorted(result["metrics"].items()):
        print("#   %-40s %.6g" % (name, value))


def cmd_workload(args, bench):
    binaries = build()
    result = run_driver(binaries, args.workload, args.seed, args.seconds,
                        args.trace)
    print_details(args.workload, result, (binaries[2], commit()))
    print(json.dumps(result_line(bench, result, args.trace)))
    return 0


def cmd_summary(args, bench):
    binaries = build()
    stamp = (binaries[2], commit())
    print("# summary: nproc=%d build=%s commit=%s seed=%d seconds=%s" % (
        os.cpu_count() or 0, stamp[0], stamp[1], args.seed, args.seconds))
    bad = 0
    rows = {}
    for workload in WORKLOADS:
        plain = run_driver(binaries, workload, args.seed, args.seconds, False,
                           ["--ladder"] if workload == "fleet-read" else [])
        traced = run_driver(binaries, workload, args.seed, args.seconds, True)
        rows[workload] = (plain, traced)
        lost = plain["metrics"].get("lost_acked_writes", 0)
        if plain["wrong"] or traced["wrong"] or lost:
            bad += 1
            print("# OUTPUT CHECK FAILED on %s: wrong=%d lost_acked=%d" % (
                workload, plain["wrong"] + traced["wrong"], lost))
    print("%-26s %-6s" % ("metric", "unit") +
          "".join("%30s" % w for w in WORKLOADS))
    for name, unit in SUMMARY_METRICS:
        cells = []
        for workload in WORKLOADS:
            plain, traced = rows[workload]
            if name not in plain["metrics"]:
                cells.append("%30s" % "n/a")
                continue
            cell = "%.4g" % plain["metrics"][name]
            if name in traced["metrics"] and name not in (
                    "rss_mb", "cpu_us_per_op", "setup_s"):
                cell += " [%.4g]" % traced["metrics"][name]
            count = plain["metrics"].get(name.split("_p")[0] + "_samples")
            if count is not None and name.endswith("_us") and "_p" in name:
                cell += " n=%d" % count
            cells.append("%30s" % cell)
        print("%-26s %-6s" % (name, unit) + "".join(cells))
    print("# [traced, in-process hosting]; n = samples behind a timing")
    return 1 if bad else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steadiness(args, bench):
    binaries = build()
    names = [(m["name"], m["unit"], m.get("bound"))
             for m in bench["per_layer" if args.trace else "end_to_end"]]
    for workload in ([args.workload] if args.workload else WORKLOADS):
        series = {n: [] for n, _, _ in names}
        for i in range(args.steadiness):
            seed = args.seed + i
            result = run_driver(binaries, workload, seed, args.seconds,
                                args.trace)
            line = result_line(bench, result, args.trace)
            if not line["correct"] or line["failed"]:
                print("# %s seed %d: correct=%s failed=%d" % (
                    workload, seed, line["correct"], line["failed"]))
            for n, _, _ in names:
                series[n].append(line["metrics"][n]["value"])
        print("# %s: %d runs, seeds %d..%d" % (workload, args.steadiness,
                                              args.seed,
                                              args.seed + args.steadiness - 1))
        print("%-36s %-6s %12s %12s %12s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound"))
        for n, unit, bound in names:
            q1, med, q3 = quartiles(series[n])
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if bound is not None and n != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("%-36s %-6s %12.5g %12.5g %12.5g %8.3f %6s%s" % (
                n, unit, med, q1, q3, spread,
                "-" if bound is None else bound, flag))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--steadiness", type=int, default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    try:
        bench = load_benchmark()
        if args.selfcheck:
            driver = build()[0]
            work = os.path.join(build_dir(), "runs", "selfcheck-%d" %
                                os.getpid())
            rc = subprocess.run([driver, "--selfcheck", "--work-dir", work],
                                timeout=RUN_TIMEOUT_S,
                                start_new_session=True).returncode
            shutil.rmtree(work, ignore_errors=True)
            return rc
        if args.summary:
            return cmd_summary(args, bench)
        if args.steadiness > 0:
            return cmd_steadiness(args, bench)
        if not args.workload:
            parser.error("--workload is required")
        return cmd_workload(args, bench)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
