#!/usr/bin/env python3
"""Build temco_bench from this checkout and run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload fig11-b4 --seed 1 --seconds 20 --trace 0

Every flag is passed to temco_bench (see benchmark/main.cpp).  The build
lives in build-bench/; with --trace 1 the Chrome trace goes to
build-bench/traces/ unless --trace-out names a file.  Build output goes to
stderr, so the last line of stdout is the benchmark's result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), "build-bench")
BINARY = os.path.join(BUILD, "temco_bench")
RUN_TIMEOUT_S = 170


def step(command):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def revision():
    """HEAD of the git checkout the benchmark sits in, or None.  git is not
    allowed to look above the checkout root for a repository."""
    root = os.path.dirname(HERE)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(args):
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        code = step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            print("run.py: configuring the benchmark failed", file=sys.stderr)
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    code = step(["cmake", "--build", BUILD, "-j", jobs, "--target", "temco_bench"])
    if code != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return code

    args = list(args)
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    if "--scratch" not in args:
        args += ["--scratch", os.path.join(BUILD, "scratch")]
    rev = revision()
    if rev and "--rev" not in args:
        args += ["--rev", rev]
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: temco_bench exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
