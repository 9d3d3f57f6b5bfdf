#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload bulk-write|auth-read|db-mixed \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. The build goes to .bench_build at
the checkout root (configured once, rebuilt incrementally). The benchmark's
report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). With --trace 1 the host-clock spans are
written to .bench_build/spans/.

Besides the checks vdebench makes inside one run, this script compares the
sim-clock signature of every run with the one recorded by an earlier run of
the same binary, workload, seed and --seconds: they must be bit-identical,
traced or not.
The exit code is 0 only when the build, the run and every check passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vdebench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SIGNATURE_PREFIX = "sim_signature: "


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and compiler children included), waits for it, and re-raises."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at the checkout root; cannot build the program" % need)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "vdebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout is the benchmark's report.
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr)
        except subprocess.TimeoutExpired:
            fail("build did not finish within %d s" % BUILD_TIMEOUT_S)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))


def check_signature(lines, args):
    """Same binary, workload, seed and length must give the same sim figures
    in every run. Returns an error message, or None."""
    sig = [l[len(SIGNATURE_PREFIX):] for l in lines
           if l.startswith(SIGNATURE_PREFIX)]
    if not sig:
        return None  # the run failed before reporting; vdebench said why
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()
    folder = os.path.join(BUILD, "signatures")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-seed%d-s%d.txt" %
                        (args.workload, args.seed, args.seconds))
    if os.path.exists(path):
        with open(path) as f:
            prev_binary, _, prev_sig = f.read().rstrip("\n").partition(" ")
        if prev_binary == binary and prev_sig != sig[0]:
            return ("sim-clock figures differ from an earlier run of the same "
                    "binary and seed:\n  before: %s\n  now:    %s"
                    % (prev_sig, sig[0]))
    with open(path, "w") as f:
        f.write("%s %s\n" % (binary, sig[0]))
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("vdebench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("vdebench exited %d without a result line" % code)
    for line in lines[:-1]:
        print(line)

    error = check_signature(lines, args)
    if error:
        print("FAILED: " + error)
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    ok = code == 0 and result.get("correct") is True
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
