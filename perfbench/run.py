#!/usr/bin/env python3
"""ctk's benchmark: build from source, compute the oracle, measure.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Run from the root of a ctk checkout. Builds the ctk library, ctkd and
the ctkbench program (Release) under .bench_build/ (or $CARGO_TARGET_DIR),
runs the workload's oracle in its own process, then the measured run.
The last line of standard output is the result object. Exits nonzero,
without a result, when the source tree or the build is missing.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kb-cold", "kb-edit", "ctkd-fanout", "gate-grade")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(os.getcwd(), base))


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (ctkbench's ctkd child included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ctk source tree next to perfbench/ (expected %s/src)" % ROOT)
    out_dir = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        code, _ = run_group(cmd, 850, stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))
    return out_dir


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out_dir = build(["ctkbench_selftest"])
        code, _ = run_group([os.path.join(out_dir, "ctkbench_selftest")], 600)
        return code
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build(["ctkbench", "ctkd"])
    ctkbench = os.path.join(out_dir, "ctkbench")
    # Relative paths: ctkd's socket path must fit in sockaddr_un.
    runs = os.path.join(build_root(), "runs")
    workdir = os.path.relpath(
        os.path.join(runs, "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    traces = os.path.join(build_root(), "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        refs = os.path.join(workdir, "refs.txt")
        code, _ = run_group([ctkbench, "oracle", "--out", refs] + common, 170)
        if code != 0:
            fail("oracle failed")
        print("provenance: source_sha256=" + source_digest())
        sys.stdout.flush()
        cmd = [ctkbench, "run", "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--refs", refs,
               "--workdir", workdir,
               "--ctkd", os.path.join(out_dir, "ctk", "ctkd"),
               "--trace-out", os.path.join(
                   traces, "%s-%d.json" % (args.workload, args.seed)),
               "--git-sha", git_sha()] + common
        code, out = run_group(cmd, 170, stdout=subprocess.PIPE, text=True)
        lines = out.rstrip("\n").splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            fail("run failed with exit code %d" % code)
        result = json.loads(lines[-1])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
