#!/usr/bin/env python3
"""Builds and runs the self-checking middleware benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The benchmark is compiled from ../src into the build directory
($CARGO_TARGET_DIR if set, else .bench_build, under the current directory)
as its own CMake project. One run prints a `report:` line with the full
record (host stamp, per-op-type counts, audit, metrics) and, as the last
line of stdout, one JSON object with exactly the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of the traced run (spans are written next to the
build under traces/).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_rw", "scatter_agg", "proxy_xa_transfer")
RUN_TIMEOUT_S = 170

# The p99 latencies are computed too and stay in the `report:` line, but
# are not end-to-end metrics: on this shared host they moved by 2x and more
# between identical runs with the CPU time the host stole (README.md).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MiB",
}


PER_LAYER = {
    "sql.parse_us": "us",
    "core.cache.lookup_us": "us",
    "core.cache.hits_per_lookup": "ratio",
    "core.cache.evictions_per_op": "count",
    "core.route_us": "us",
    "core.route.units_per_stmt": "count",
    "core.rewrite_us": "us",
    "core.execute_us": "us",
    "core.execute.dispatch_us": "us",
    "engine.node_execute_us": "us",
    "engine.rows_per_unit": "rows",
    "engine.node_parse_hits_per_lookup": "ratio",
    "core.merge_us": "us",
    "core.merge.rows_in_per_row_out": "ratio",
    "storage.mvcc.versions": "count",
    "net.messages_per_op": "count",
    "net.bytes_per_op": "bytes",
    "net.codec_us": "us",
    "adaptor.jdbc.execute_us": "us",
    "adaptor.proxy.execute_us": "us",
    "adaptor.proxy.overhead_us": "us",
    "adaptor.proxy.queue_wait_us": "us",
    "transaction.commit_us": "us",
    "transaction.participants_per_txn": "count",
    "common.allocs_per_op": "count",
    "core.unattributed_us": "us",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the middleware sources (src/) are missing next to perfbench/")
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        log("refusing to report numbers from a %r build" % build_type)
        sys.exit(4)
    return out, build_type


def read_file(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_stamp():
    """CPU count, model, MHz, caches and load average, read from /proc."""
    cpuinfo = read_file("/proc/cpuinfo")
    model, mhz = "", []
    for line in cpuinfo.splitlines():
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key == "model name" and not model:
            model = val
        elif key == "cpu MHz":
            try:
                mhz.append(float(val))
            except ValueError:
                pass
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache_root)):
            d = os.path.join(cache_root, idx)
            level = read_file(os.path.join(d, "level")).strip()
            kind = read_file(os.path.join(d, "type")).strip()
            size = read_file(os.path.join(d, "size")).strip()
            if level:
                caches["L%s %s" % (level, kind)] = size
    except OSError:
        pass
    if not caches:
        for line in cpuinfo.splitlines():
            if line.startswith("cache size"):
                caches["last level"] = line.partition(":")[2].strip()
                break
    try:
        allowed = len(os.sched_getaffinity(0))
    except AttributeError:
        allowed = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_allowed": allowed,
        "model": model,
        "mhz": round(sum(mhz) / len(mhz), 1) if mhz else None,
        "caches": caches,
        "loadavg": read_file("/proc/loadavg").split()[:3],
        "kernel": platform.release(),
    }


def run_binary(out, workload, seed, seconds, trace, plant=False):
    binary = os.path.join(out, "perfbench_traced" if trace else "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_file = None
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_file = os.path.join(out, "traces", "%s-%s.json" % (workload, seed))
        cmd += ["--trace-out", trace_file]
    if plant:
        cmd.append("--plant")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run timed out")
        sys.exit(5)
    if proc.returncode != 0:
        log("benchmark exited with code %d" % proc.returncode)
        sys.exit(proc.returncode or 1)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log("benchmark printed no report")
        sys.exit(1)
    report = json.loads(lines[-1])
    if trace_file:
        report["trace_file"] = os.path.relpath(trace_file)
    return report


def self_check(out):
    """Plants one wrong physical row per workload; each run must fail."""
    ok = True
    for workload in WORKLOADS:
        r = run_binary(out, workload, 1, 1, 0, plant=True)
        expected = sum(v["failed"] for v in r["ops"].values()
                       if v["known_fault"])
        caught_op = r["failed"] > expected
        caught_audit = not r["audit"]["ok"]
        good = caught_op and caught_audit and not r["correct"]
        ok &= good
        print("self-check %-18s failed op: %-5s failed audit: %-5s -> %s" % (
            workload, caught_op, caught_audit, "ok" if good else "NOT CAUGHT"))
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="prove that a planted wrong row fails every workload")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    out, build_type = build()
    if args.self_check:
        return self_check(out)

    started = time.time()
    report = run_binary(out, args.workload, args.seed, args.seconds, args.trace)
    if report.get("build_type") != build_type:
        log("binary build type %r does not match the cache" %
            report.get("build_type"))
        return 4
    report["host"] = host_stamp()
    report["elapsed_s"] = round(time.time() - started, 3)

    units = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in units if n not in report["metrics"]]
    if missing:
        log("metrics missing from the report: %s" % ", ".join(missing))
        return 1
    metrics = {n: {"value": report["metrics"][n], "unit": u}
               for n, u in units.items()}

    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    record = os.path.join(out, "runs", "%s-%s-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(report, f, indent=1)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
