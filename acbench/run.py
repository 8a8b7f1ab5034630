#!/usr/bin/env python3
"""Build and run one acbench workload; print its metrics as JSON.

Run from the repository root:

    python3 acbench/run.py --workload cold|edit [--seed N]
                           [--seconds S] [--trace 0|1]

The first run configures and builds acbench/ (the program's libraries
from src/ plus the benchmark binary) into .bench_build/ and runs the benchmark's
self-tests. Every run then starts the binary with the program's
environment knobs (AC_JOBS, AC_CACHE*, AC_TRACE*, AC_CERT*, AC_FAULTS)
cleared: the binary pins jobs and cache settings itself. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; a copy with the run's
provenance (commit, source digest, build type, nproc, seed, checks) is
kept under .bench_out/results/ for acbench/compare.py.

Exits non-zero, without a result line, when the program's sources are
missing, the build or a self-test fails, or the run fails; exits 1 after
printing the result when any answer was wrong.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("cold", "edit")
# The seed the recorded figures use, and the one held out while the
# benchmark was tuned (see acbench/README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
CLEARED_PREFIXES = ("AC_JOBS", "AC_CACHE", "AC_TRACE", "AC_CERT", "AC_FAULTS")
RUN_TIMEOUT_S = 175


def log(msg):
    print("acbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "ab") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures once, then lets the build tool decide what is stale."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], build_log):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "acbench", "acbench_selftest"], build_log):
        return None
    binary = os.path.join(build_dir, "acbench")
    selftest = os.path.join(build_dir, "acbench_selftest")
    stamp = os.path.join(build_dir, "selftest.ok")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        if run_logged([selftest], build_log):
            log("self-test failed; see " + build_log)
            return None
        with open(stamp, "w") as f:
            f.write("ok\n")
    return binary


def provenance(args):
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"commit": commit, "src_digest": digest.hexdigest()[:16],
            "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
            "seed": args.seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED}


def untraced_p50(workload, seed):
    """p50_ms of the newest untraced run of this workload and seed."""
    pattern = os.path.join(ROOT, OUT_DIR, "results",
                           "%s-t0-s%d-*.json" % (workload, seed))
    paths = sorted(glob.glob(pattern), key=os.path.getmtime)
    if not paths:
        return None
    with open(paths[-1]) as f:
        p50 = json.load(f)["result"]["metrics"].get("p50_ms")
    return p50["value"] if p50 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources under src/; run from a full checkout")
        return 2
    binary = build()
    if not binary:
        log("build failed; see %s/build.log" % BUILD_DIR)
        return 2

    env = {k: v for k, v in os.environ.items()
           if not k.startswith(CLEARED_PREFIXES)}
    # Pins the retry jitter of busy answers to the workload seed.
    env["AC_RETRY_SEED"] = str(args.seed)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ".", "--out", OUT_DIR]
    started = time.time()
    # Its own process group, so a timeout also stops its set-up children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stdout.write(out)
        sys.stderr.write(err)
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(out)
        log("acbench exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    info = provenance(args)
    for line in lines[:-1]:
        if line.startswith('{"info"'):
            info.update(json.loads(line)["info"])
        else:
            print(line)
    if args.trace and "traced_p50_ms" in info:
        # The tracing overhead: this run's loop beside the untraced one.
        info["untraced_p50_ms"] = untraced_p50(args.workload, args.seed)
        if info["untraced_p50_ms"]:
            print("# traced loop p50 %.2f ms, untraced %.2f ms"
                  % (info["traced_p50_ms"], info["untraced_p50_ms"]))
    print(json.dumps({"info": info}))

    results = os.path.join(ROOT, OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-t%d-s%d-%d.json" % (args.workload, args.trace, args.seed,
                                   int(time.time() * 1000))
    with open(os.path.join(results, name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "started": started, "info": info,
                   "result": result}, f)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
