#!/usr/bin/env python3
"""rexbench: build the REX benchmark and run one workload.

    python3 rexbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rexbench/run.py --self-check
    python3 rexbench/run.py --record-fingerprints

Run from the root of a checkout. The first call configures and builds
rexbench/ (and the library sources under src/) in Release mode into
.bench_build/rexbench; later calls only rebuild what changed. The last line
of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced repetition (--trace 1). Every run checks its exact work counters
against the fingerprints committed for seeds 1 and 2
(rexbench/fingerprints.json) and, for any other seed, against the first run
of the same binary and seed in this checkout. See rexbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "rexbench")
BINARY = os.path.join(BUILD_DIR, "rexbench")
COMMITTED_FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
LOCAL_FINGERPRINTS = os.path.join(BUILD_ROOT, "fingerprints")

WORKLOADS = ("ms_dpsgd_er", "rex_sgx_dpsgd_er", "engine_10k", "loopback_sgx")
END_TO_END = ("setup_s", "node_epochs_per_s", "events_per_s", "peak_rss_mib",
              "query_p50_us")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
COMMITTED_SEEDS = (1, 2)
# One invocation of the binary must finish well inside the 180 s a run may
# take once built.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def scratch_env():
    """Environment for child processes: temporary files stay in the
    checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(HERE, "CMakeLists.txt")):
        log("rexbench: no REX sources next to rexbench/ (expected src/); "
            "run from a full checkout")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    commands.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(build_log, "a") as out:
        for command in commands:
            if subprocess.call(command, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=scratch_env()) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log("rexbench: build failed (log: %s)" % build_log)
                sys.exit(1)
    build_type = ""
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type not in OPTIMIZED_BUILD_TYPES:
        log("rexbench: refusing to time a %r build" % build_type)
        sys.exit(3)


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def run_binary(workload, seed, seconds, trace):
    """Runs one workload in a fresh scratch directory; returns its report,
    with the share of CPU time the hypervisor stole meanwhile added to its
    provenance (a noisy host shows there)."""
    work_root = os.path.join(BUILD_ROOT, "work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=workload + "-", dir=work_root)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir]
    ticks_before = cpu_ticks()
    # A session of its own, so a timeout can stop the daemons it forked too.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                               env=scratch_env(), start_new_session=True,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log("rexbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        log("rexbench: %s exited with code %d" % (workload,
                                                   process.returncode))
        return None
    report = json.loads(lines[-1])
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        report["provenance"]["host_steal_pct"] = round(
            100.0 * (ticks_after[0] - ticks_before[0]) /
            (ticks_after[1] - ticks_before[1]), 2)
    return report


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check_fingerprint(workload, seed, counters, record):
    """Returns (ok, source): counters against the committed fingerprint of
    this seed, else against this binary's first recorded run of it. A run
    with failures (`record` false) never becomes the reference."""
    committed = (load_json(COMMITTED_FINGERPRINTS) or {}).get(workload, {})
    if str(seed) in committed:
        expected, source = committed[str(seed)], "committed"
    else:
        path = os.path.join(LOCAL_FINGERPRINTS, binary_digest(),
                            "%s-%d.json" % (workload, seed))
        expected, source = load_json(path), "recorded"
        if expected is None:
            if not record:
                return True, "not recorded (run failed)"
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                json.dump(counters, f, indent=1, sort_keys=True)
            return True, "first run, recorded"
    mismatched = sorted(k for k in set(expected) | set(counters)
                        if expected.get(k) != counters.get(k))
    for key in mismatched:
        log("fingerprint mismatch (%s) %s: expected %s, got %s" % (
            source, key, expected.get(key), counters.get(key)))
    return not mismatched, source


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, full report or None)."""
    report = run_binary(workload, seed, seconds, trace)
    if report is None:
        return None, None
    fingerprint_ok, source = check_fingerprint(
        workload, seed, report["counters"], record=report["failed"] == 0)
    failed = report["failed"] + (0 if fingerprint_ok else 1)
    metrics = report["metrics"]
    values_ok = all(isinstance(m["value"], (int, float)) for m in
                    metrics.values())
    if not trace:
        values_ok = values_ok and all(
            name in metrics and isinstance(metrics[name]["value"], (int, float))
            and metrics[name]["value"] > 0 for name in END_TO_END)
    result = {
        "correct": failed == 0 and values_ok,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    report["fingerprint"] = source
    return result, report


def self_check():
    """Runs every workload at the committed seed and the held-out seed and
    checks both against the committed fingerprints."""
    all_ok = True
    for workload in WORKLOADS:
        for seed in COMMITTED_SEEDS:
            result, report = run_workload(workload, seed, 1, 0)
            ok = bool(result and result["correct"] and
                      report["fingerprint"] == "committed")
            all_ok = all_ok and ok
            print("%-18s seed %d: %s (%s failed of %s attempted; "
                  "fingerprint %s)" % (
                      workload, seed, "ok" if ok else "FAILED",
                      result and result["failed"],
                      result and result["attempted"],
                      report and report["fingerprint"]), flush=True)
    print("self-check %s" % ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def record_fingerprints():
    """Rewrites fingerprints.json from fresh runs of the committed seeds."""
    fingerprints = {}
    for workload in WORKLOADS:
        for seed in COMMITTED_SEEDS:
            report = run_binary(workload, seed, 1, 0)
            if report is None or report["failed"]:
                log("rexbench: %s seed %d failed; nothing recorded" % (
                    workload, seed))
                return 1
            fingerprints.setdefault(workload, {})[str(seed)] = \
                report["counters"]
    with open(COMMITTED_FINGERPRINTS, "w") as f:
        json.dump(fingerprints, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % COMMITTED_FINGERPRINTS)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at seeds 1 and 2 against "
                             "the committed fingerprints")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="rewrite rexbench/fingerprints.json")
    args = parser.parse_args()
    if not (args.workload or args.self_check or args.record_fingerprints):
        parser.error("--workload is required")

    started = time.monotonic()
    build()
    if args.self_check:
        return self_check()
    if args.record_fingerprints:
        return record_fingerprints()

    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    if result is None:
        return 1
    provenance = report["provenance"]
    print("rexbench %s seed %d trace %d: %d repetitions, %.1f s wall" % (
        args.workload, args.seed, args.trace, provenance["reps"],
        time.monotonic() - started))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("counters (fingerprint %s): %s" % (
        report["fingerprint"], json.dumps(report["counters"], sort_keys=True)))
    print("samples: " + json.dumps(report["samples"], sort_keys=True))
    for error in report["errors"]:
        print("error: " + error)
    for name, metric in result["metrics"].items():
        print("  %-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
