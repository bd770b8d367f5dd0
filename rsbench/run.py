#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 rsbench/run.py --workload <small_put|large_put|read_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 rsbench/run.py --selftest

The first call configures and builds rsbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, default .bench_build; later calls only check the build is
current. Build output goes to stderr. The benchmark's stdout is passed through,
so the last line is the result object. The cluster's data lives under the
build directory and is removed when the run ends, also on SIGINT/SIGTERM.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # a run still going after this is stopped and fails
_child = None  # the process group now running, if any
_stopped_by = 0  # the SIGINT/SIGTERM received, if any


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds rsbench and its self-tests; False on failure."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_child(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "rsbench", "rsbench_selftest"]
    return run_child(cmd, stdout=sys.stderr) == 0


def commit_id():
    if not os.path.isdir(".git"):
        return "unknown"  # checkouts made without git history
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def signal_child(sig):
    """Sends sig to every process of the running child's group."""
    if _child is not None:
        try:
            os.killpg(_child.pid, sig)
        except ProcessLookupError:
            pass


def forward(sig, _frame):
    global _stopped_by
    _stopped_by = sig
    signal_child(sig)


def run_child(cmd, limit_s=None, stdout=None):
    """Runs cmd in a process group of its own and returns its exit code.
    SIGINT/SIGTERM reach the whole group, so neither the build's compilers
    nor the benchmark outlive this script; so does the stop after limit_s."""
    global _child
    if _stopped_by:
        return 128 + _stopped_by
    _child = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    if _stopped_by:  # arrived while the child was being started
        signal_child(_stopped_by)
    try:
        return _child.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        print(f"rsbench: no result after {limit_s} s, stopping", file=sys.stderr)
        signal_child(signal.SIGTERM)
        try:
            _child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            signal_child(signal.SIGKILL)
            _child.wait()
        return 1
    finally:
        _child = None


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["small_put", "large_put", "read_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    out = build_dir()
    if not build(out):
        print("rsbench: build failed", file=sys.stderr)
        return 1
    if a.selftest:
        return run_child([os.path.join(out, "rsbench_selftest")])

    cmd = [os.path.join(out, "rsbench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--data-root", os.path.join(out, "rsbench_data"), "--commit", commit_id()]
    if a.trace:
        spans = os.path.join(out, "rsbench_spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{a.workload}.csv")]
    sys.stdout.flush()
    return run_child(cmd, limit_s=RUN_LIMIT_S)


if __name__ == "__main__":
    sys.exit(main())
