#!/usr/bin/env python3
"""Build and run the netclust benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
repository's libraries and the benchmark binary (Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build; later calls only
re-check the build. Build output goes to stderr, the benchmark's report
to stdout; its last line is the JSON result.

--self-test runs paper_cdn with one expected answer corrupted, untraced and
traced, and checks that both runs fail the oracle check, then checks that
an uncorrupted run passes.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840
WORKLOADS = ("paper_cdn", "dfz_batch", "dfz_churn")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def call(cmd, timeout, capture):
    """Runs cmd from the checkout root in its own process group and waits
    for it; a timeout, SIGTERM or SIGINT kills the whole group first, so no
    compiler or benchmark process outlives this script.
    Returns (exit code, stdout)."""
    child = subprocess.Popen(cmd, cwd=ROOT, text=True, start_new_session=True,
                             stdout=subprocess.PIPE if capture else sys.stderr,
                             stderr=sys.stderr)

    def kill():
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out or ""
    except subprocess.TimeoutExpired:
        kill()
        sys.stderr.write("perfbench: %s exceeded %d s\n" % (cmd[0], timeout))
        return 1, ""
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no netclust sources next to perfbench/; "
                         "run from the root of a full checkout\n")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "netclust_perfbench",
                  "-j", jobs])
    for step in steps:
        code, _ = call(step, BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, "netclust_perfbench")


def run(binary, args):
    """Runs the binary; returns (exit code, last stdout line, stdout)."""
    code, stdout = call([binary] + args, RUN_TIMEOUT_S, capture=True)
    lines = stdout.rstrip("\n").split("\n")
    return code, lines[-1], stdout


def self_test(binary):
    base = ["--workload", "paper_cdn", "--seed", "7", "--seconds", "3",
            "--trace-dir", os.path.join(build_dir(), "traces")]
    cases = [("corrupted, untraced", ["--trace", "0", "--corrupt-oracle"], False),
             ("corrupted, traced", ["--trace", "1", "--corrupt-oracle"], False),
             ("clean, untraced", ["--trace", "0"], True)]
    ok = True
    for name, extra, want in cases:
        code, last, _ = run(binary, base + extra)
        try:
            correct = json.loads(last)["correct"]
        except (ValueError, KeyError):
            correct = None
        passed = correct is want and (code == 0) == want
        ok = ok and passed
        print("self-test %-20s correct=%s exit=%d -> %s"
              % (name, correct, code, "ok" if passed else "WRONG"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, _, stdout = run(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", os.path.join(build_dir(), "traces")])
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
