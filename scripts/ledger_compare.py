#!/usr/bin/env python3
"""Same-runner performance gate: a parent checkout against a change checkout.

    scripts/ledger_compare.py PARENT_DIR CHANGE_DIR [--allow-regression]

Runs each checkout's own `perfbench/run.py --trace 0 --seed 1` on every
workload of CHANGE_DIR/BENCHMARK.json for its `run_seconds`, in PAIRS
alternating pairs (the side that runs first swaps each pair), prints every
run's result line, then each end-to-end metric's medians and verdict:
REGRESSION when the change is worse by more than the metric's bound;
unresolved when the parent's quartile spread (IQR / median) is wider than
the bound, unless every change run beats every parent run; ok otherwise.
A run fails when it prints no correct result or counts failed operations.

Exit status 1 on a resolved regression or a larger failed-run share in the
change; --allow-regression prints the same report and exits 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def parse(line):
    """A run's JSON result, or None when the run failed."""
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return None
    ok = isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0
    return result if ok else None


def spread(values):
    """Quartile distance over the median's magnitude; unknown below 2 runs."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def decide(metrics, parent_lines, change_lines):
    """Compare one workload's runs: `metrics` is BENCHMARK.json's end_to_end
    list, the other two each side's result lines. Returns (report, regressed)."""
    parent = [r for r in map(parse, parent_lines) if r]
    change = [r for r in map(parse, change_lines) if r]
    parent_failed = 1 - len(parent) / len(parent_lines)
    change_failed = 1 - len(change) / len(change_lines)
    regressed = change_failed > parent_failed
    report = [f"  failed runs: parent {parent_failed:.0%}, change {change_failed:.0%}"
              + (" REGRESSION" if regressed else "")]
    if not parent or not change:
        return report + ["  no successful runs on one side: metrics not compared"], regressed
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if metric["better"] == "lower" else -1
        p_med, c_med, p_spread = statistics.median(p), statistics.median(c), spread(p)
        worse = sign * (c_med - p_med) / abs(p_med)
        beats_all = max(sign * v for v in c) < min(sign * v for v in p)
        if p_spread > bound and not beats_all:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            regressed = True
        else:
            verdict = "ok"
        report.append(f"  {name:22} parent {p_med:<12.6g} change {c_med:<12.6g} "
                      f"worse {worse:+7.1%}  parent IQR {p_spread:6.1%}  "
                      f"bound {bound:.0%}  {verdict}")
    return report, regressed


def run(checkout, workload, seconds):
    """One timed run in `checkout`; returns its last stdout line."""
    # Each checkout builds into its own .bench_build: a shared
    # CARGO_TARGET_DIR would let one side's build overwrite the other's.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    return (done.stdout.strip().splitlines() or [""])[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--allow-regression", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    regressed = []
    for workload in (w["name"] for w in spec["workloads"]):
        lines = {"parent": [], "change": []}
        for pair in range(PAIRS):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                lines[side].append(run(sides[side], workload, spec["run_seconds"]))
                print(f"{workload} pair {pair} {side}: {lines[side][-1]}", flush=True)
        report, bad = decide(spec["end_to_end"], lines["parent"], lines["change"])
        print(f"{workload}: {PAIRS} pairs of {spec['run_seconds']} s runs, medians")
        print("\n".join(report), flush=True)
        if bad:
            regressed.append(workload)
    print("ledger gate:", f"regression on {', '.join(regressed)}" if regressed else "pass")
    return 1 if regressed and not args.allow_regression else 0


if __name__ == "__main__":
    sys.exit(main())
