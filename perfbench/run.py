#!/usr/bin/env python3
"""PowerPlay end-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload browse|edit|explore --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --check      # correctness only, all workloads
    python3 perfbench/run.py --selftest   # the harness's own unit tests

Builds perfbench/ (which builds ../src) into .bench_build/perfbench, then
runs the ppbench driver.  The site's library lives on a private tmpfs
mounted over .bench_build/perfbench-work inside a private mount
namespace when the machine allows one; otherwise it stays on the
checkout's own filesystem, and the facts line says which (data_fs).
The last line of standard output is the driver's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def private_tmpfs_prefix():
    """unshare + mount prefix putting WORK on a private tmpfs, or []."""
    os.makedirs(WORK, exist_ok=True)
    if not shutil.which("unshare"):
        return []
    mount = 'mount -t tmpfs -o size=1g,mode=0700 perfbench "$0"'
    probe = subprocess.run(["unshare", "-m", "sh", "-c", mount, WORK],
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    if probe.returncode != 0:
        log("no private tmpfs; the library stays on the checkout's disk")
        return []
    return ["unshare", "-m", "sh", "-c", mount + ' && exec "$@"', WORK]


def run_driver(args):
    """Run ppbench with `args`; forward its output; return its exit code."""
    cmd = private_tmpfs_prefix() + [os.path.join(BUILD, "ppbench")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["browse", "edit", "explore"])
    ap.add_argument("--seed", type=int, default=1)
    # The default is BENCHMARK.json's run_seconds, the length the bounds
    # were set on.
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not (a.check or a.selftest or a.workload):
        ap.error("give --workload, --check or --selftest")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("build failed")
        return 2
    if a.selftest or a.check:
        rc = subprocess.run([os.path.join(BUILD, "harness_test")],
                            stdout=sys.stderr).returncode
        if rc != 0 or a.selftest:
            return rc
    common = ["--work", WORK, "--out", OUT]
    if a.check:
        return run_driver(["check"] + common)
    return run_driver(["run", "--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", repr(a.seconds), "--trace", str(a.trace)]
                      + common)


if __name__ == "__main__":
    sys.exit(main())
