#!/usr/bin/env python3
"""dnsbs benchmark: one command per workload run.

    python3 perfbench/run.py --workload replay_cold|retrain_hourly|live_udp|all \
        --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --stamp     # rewrite perfbench/environment.json

Run from the repository root.  The script builds the libraries, dnsbs_cli and
the benchmark binary from source into .bench_build/ (Release), makes the
workload's jp_ditl log from the seed with `dnsbs_cli generate` (cached by seed
and scale, checked against a SHA-256 digest), and runs the workload.  The last
line of stdout is the result object; a failed build or a wrong output exits
non-zero without one.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_cold", "retrain_hourly", "live_udp")
# World scale of every workload's log (scale 1.0 is the paper's full JP-ditl
# shape).  At 0.4 a log holds about 370k-400k records, of which the benchmark
# uses the first 300k (kInputRecords in src/workloads.hpp).
SCALE = 0.4
# The benchmark measures single-core efficiency (see README.md).
THREADS = "1"
# Logs kept in the cache: enough for two sets of ten seeds, so no set
# regenerates a log the set before it made.
KEEP_LOGS = 32
# Per-layer metrics that are exact functions of the seed and the code.
EXACT_COUNTS = ("dns.parse.skipped", "dns.decode.accepted_frac", "core.dedup.admitted_frac",
                "core.features.reuse_frac", "core.state.originators", "core.state.dedup_entries",
                "ml.fit.count", "ml.fit.split_candidates")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark package; returns bin dir."""
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "dnsbs_perfbench", "dnsbs_cli"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("build failed: " + " ".join(cmd))
    return cmake_dir


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def query_log(cli, out, seed):
    """The seed's jp_ditl log: from the cache when its digest checks out."""
    logs = os.path.join(out, "logs")
    os.makedirs(logs, exist_ok=True)
    path = os.path.join(logs, "jp_seed%d_scale%g.tsv" % (seed, SCALE))
    digest = path + ".sha256"
    if os.path.exists(path) and os.path.exists(digest):
        with open(digest) as f:
            if f.read().strip() == sha256(path):
                os.utime(path)
                return path
    tmp = path + ".tmp"
    subprocess.run([cli, "generate", "--scenario", "jp", "--scale", str(SCALE),
                    "--seed", str(seed), "--out", tmp],
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(digest, "w") as f:
        f.write(sha256(tmp) + "\n")
    os.replace(tmp, path)
    cached = sorted((p for p in os.listdir(logs) if p.endswith(".tsv")),
                    key=lambda p: os.path.getmtime(os.path.join(logs, p)))
    for old in cached[:-KEEP_LOGS]:
        for victim in (old, old + ".sha256"):
            if os.path.exists(os.path.join(logs, victim)):
                os.remove(os.path.join(logs, victim))
    return path


def compiler(cmake_dir):
    cache = open(os.path.join(cmake_dir, "CMakeCache.txt")).read()
    cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    kind = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    version = ""
    if cxx:
        version = subprocess.run([cxx.group(1), "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    return version, kind.group(1) if kind else ""


def spin(n):
    x = 0
    for i in range(n):
        x += i * i
    return x


def parallelism_probe(work=3_000_000):
    """Wall time of one spin process against nproc of them, same work each."""
    nproc = os.cpu_count() or 1
    t0 = time.perf_counter()
    spin(work)
    one = time.perf_counter() - t0
    with multiprocessing.Pool(nproc) as pool:
        t0 = time.perf_counter()
        pool.map(spin, [work] * nproc)
        many = time.perf_counter() - t0
    return {"one_thread_s": round(one, 4), "nproc_threads_s": round(many, 4),
            "effective_cores": round(nproc * one / many, 2)}


def environment(cmake_dir, probe):
    version, kind = compiler(cmake_dir)
    env = {"nproc": os.cpu_count(), "compiler": version, "build_type": kind,
           "DNSBS_THREADS": THREADS, "scale": SCALE, "machine": platform.machine()}
    if probe:
        env["parallelism_probe"] = parallelism_probe()
    return env


def run_workload(workload, a, cmake_dir, out):
    """Runs one workload; returns its result object or exits non-zero."""
    cli = os.path.join(cmake_dir, "dnsbs_cli")
    bench = os.path.join(cmake_dir, "dnsbs_perfbench")
    log_path = query_log(cli, out, a.seed)
    work = os.path.join(out, "runs", workload)
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    env = dict(os.environ, DNSBS_THREADS=THREADS)
    # Own process group, so a run cut short takes the daemons it spawned along.
    proc = subprocess.Popen([bench, "--workload", workload, "--log", log_path, "--cli", cli,
                             "--work-dir", work, "--seed", str(a.seed), "--scale", str(SCALE),
                             "--seconds", str(a.seconds), "--trace", str(a.trace)],
                            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("%s timed out" % workload)
    lines = stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise SystemExit("malformed result: " + lines[-1])
    return result


def check_counts(workload, seed, result, cmake_dir, out):
    """The work counters of a traced run must repeat exactly on every run of
    the same binaries with the same seed: the first run records them, later
    runs compare."""
    counts = {k: v["value"] for k, v in result["metrics"].items() if k in EXACT_COUNTS}
    code = hashlib.sha256()
    for binary in ("dnsbs_perfbench", "dnsbs_cli"):
        code.update(sha256(os.path.join(cmake_dir, binary)).encode())
    path = os.path.join(out, "counts", "%s_seed%d_%s.json" % (workload, seed,
                                                               code.hexdigest()[:16]))
    if os.path.exists(path):
        with open(path) as f:
            expected = json.load(f)
        if expected != counts:
            raise SystemExit("work counters differ from an earlier run of the same code: "
                             "%s vs %s" % (counts, expected))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--stamp", action="store_true",
                   help="measure the environment into perfbench/environment.json")
    a = p.parse_args()
    if not a.stamp and not a.workload:
        p.error("--workload is required")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cmake_dir = build(out)
    if a.stamp:
        env = environment(cmake_dir, probe=True)
        with open(os.path.join(HERE, "environment.json"), "w") as f:
            json.dump(env, f, indent=2)
            f.write("\n")
        print(json.dumps(env))
        return 0

    print("environment: " + json.dumps(environment(cmake_dir, probe=False)), flush=True)
    for workload in WORKLOADS if a.workload == "all" else (a.workload,):
        result = run_workload(workload, a, cmake_dir, out)
        if a.trace:
            check_counts(workload, a.seed, result, cmake_dir, out)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
