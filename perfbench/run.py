#!/usr/bin/env python3
"""Builds the txml benchmark from source and runs one workload.

    python3 perfbench/run.py --workload history_reads --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.cc; --smoke and
--dump-inputs are accepted too). The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root) from perfbench/CMakeLists.txt, which configures the
repository's sources exactly like the default top-level build. Build output
goes to build.log there; the benchmark's own output goes to stdout, whose
last line is the JSON result. Exit status: the binary's, or 1 when the
build fails (nothing is printed on stdout then).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "txml_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                log.write(f"{error}\n")
                code = 1
            if code != 0:
                # A failed configure must not leave a cache that skips the
                # configure step next time.
                cache = os.path.join(out_dir, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write(f"perfbench: build failed ({' '.join(step)})\n"
                                 f"{tail}\n")
                return None
    return os.path.join(out_dir, "txml_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def flag_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    workload = flag_value(args, "--workload", "unknown")
    seed = flag_value(args, "--seed", "0")
    extra = ["--git-sha", git_sha(),
             "--work-dir", os.path.join(out_dir, "work",
                                        f"{workload}-{seed}-{os.getpid()}")]
    if flag_value(args, "--trace", "0") == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out",
                  os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run([binary] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
