#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The engine is built from source (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output
goes to stderr. The benchmark binary then runs the named workload with the
seed; it prints every metric by name with its unit and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the metrics are the per-layer ones.

Exit status is the binary's: non-zero on a failed answer check, a failed
operation, or a metric that could not be reported. A build failure (for
example in a directory without the engine sources) exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # a run (after the build) must end within 180 s


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (cmd, ["cmake", "--build", out, "-j", jobs, "--target", "rdfa_perfbench"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("benchmark build failed")
    return os.path.join(out, "rdfa_perfbench")


def run_binary(binary, args, timeout_s):
    """Runs the binary, echoing its output; returns (exit code, last line)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.Popen([binary, "--work-dir", work] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout_s, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("benchmark run timed out")
    lines = stdout.splitlines()
    return proc.returncode, lines


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def selftest(binary):
    """Unit self-tests in the binary, then every workload at tiny scale in
    both modes: every metric of BENCHMARK.json is emitted with its unit.
    mixed-rw is not among BENCHMARK.json's workloads (its figures did not
    repeat closely enough between runs), but it still runs by name and is
    tested here."""
    code, lines = run_binary(binary, ["--selftest"], DEADLINE_S)
    print("\n".join(lines))
    failures = 0 if code == 0 else 1
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]] + ["mixed-rw"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", trace, "--shrink", "50", "--setup-reps", "1"], DEADLINE_S)
            want = {m["name"]: m["unit"] for m in spec[key]}
            try:
                got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
            except (IndexError, ValueError, KeyError):
                got = {}
            ok = code == 0 and got == want
            failures += 0 if ok else 1
            print("%s %s trace=%s: %d metrics with units%s" % (
                "ok  " if ok else "FAIL", workload, trace, len(got),
                "" if ok else " (exit %d, want %d)" % (code, len(want))))
    print("%d failure(s)" % failures)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace], DEADLINE_S)
    print("\n".join(lines))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
