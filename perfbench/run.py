#!/usr/bin/env python3
"""Entry point of the performance ledger.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds the benchmark package
(perfbench/CMakeLists.txt, which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only rebuild what changed. The workload's output is
passed through after checking that its result names exactly the metrics
BENCHMARK.json declares for the mode, with the same units. The last line
printed is the benchmark's JSON result; it is withheld if that check fails.

Exit status: the benchmark's own (0 = every correctness gate passed, 1 = a
gate failed), 2 when the build fails, 3 when the result does not match
BENCHMARK.json or the run times out.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build. Compiler output goes to stderr, so the
    last line on stdout stays the benchmark's result."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
            return None
    return out


def declared_metrics():
    """{trace mode: {name: unit}} from BENCHMARK.json; mode 0 = end_to_end."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def result_problems(result, expected):
    """Why a parsed result line breaks the contract (empty list = it holds)."""
    missing = [k for k in ("correct", "attempted", "failed", "metrics") if k not in result]
    if missing:
        return [f"result has no '{k}'" for k in missing]
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"metric {n} is missing" for n in sorted(set(expected) - set(got))]
    problems += [f"metric {n} is not in BENCHMARK.json" for n in sorted(set(got) - set(expected))]
    problems += [f"metric {n} has unit {got[n]}, BENCHMARK.json says {expected[n]}"
                 for n in sorted(set(got) & set(expected)) if got[n] != expected[n]]
    return problems


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-dir", os.path.dirname(binary)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        problems = result_problems(json.loads(lines[-1]), declared_metrics()[trace])
    except (ValueError, AttributeError) as e:
        problems = [f"the last line is not a JSON result ({e}): {lines[-1]!r}"]
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 3
    print(lines[-1], flush=True)
    return done.returncode


def selftest(out):
    """The harness tests, the metric catalogue against BENCHMARK.json, and a
    short run of one simulator workload and the runtime workload in each
    mode (run_workload checks that every declared name is in the output)."""
    failures = 0
    if subprocess.run([os.path.join(out, "perfbench_tests")], check=False).returncode != 0:
        failures += 1
    binary = os.path.join(out, "perfbench")
    listed = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE, text=True,
                            check=True).stdout
    catalogue = {0: {}, 1: {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        catalogue[1 if kind == "per_layer" else 0][name] = unit
    if catalogue != declared_metrics():
        print("FAIL: the benchmark's metric catalogue differs from BENCHMARK.json")
        failures += 1
    for workload in ("line-1024", "rt-tcp-4"):
        for trace in (0, 1):
            if run_workload(binary, workload, 1, 1.0, trace) != 0:
                print(f"FAIL: {workload} --trace {trace}")
                failures += 1
    print("selftest:", "PASS" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    out = build()
    if out is None:
        return 2
    if args.selftest:
        return selftest(out)
    return run_workload(os.path.join(out, "perfbench"), args.workload, args.seed,
                        args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
