#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 40 --trace 0

builds perfbench/ (and with it the optimizer from src/) into
.bench_build/perfbench, runs one workload pinned to one CPU, and passes the
program's output through: the last line of standard output is the JSON
result. --seconds defaults to run_seconds in BENCHMARK.json. With --trace 1
the spans of the traced run go to .bench_build/perfbench/spans/.

A/A self-check of one build:

    python3 perfbench/run.py --aa

runs every workload of BENCHMARK.json in two passes of ten runs each: all
ten at one fixed seed (host noise alone), then at seeds 1 to 10 (host noise
plus what the seed changes). Runs alternate between sides A and B of the
same binary. For each pass it prints every end-to-end metric's median,
quartiles and spread (quartile distance over median) against the bound in
BENCHMARK.json, plus how far side B's median sits from side A's, and exits
1 if any spread (setup_s excepted) or side difference reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
AA_RUNS = 10
AA_FIXED_SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pin_to_one_cpu():
    """Runs in the child before exec: the client and the serve worker then
    share one CPU, so a request's handoff does not wait for another vCPU to
    wake up (on a shared VM the noisiest cost the benchmark saw)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: optimizer sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    return cmd


def run_once(workload, seed, seconds):
    """One untraced run; returns the parsed result line."""
    out = subprocess.run(command(workload, seed, seconds, 0), stdout=subprocess.PIPE,
                         text=True, timeout=RUN_TIMEOUT_S, check=True,
                         preexec_fn=pin_to_one_cpu).stdout
    return json.loads(out.strip().splitlines()[-1])


def print_pass(title, workloads, metrics, results):
    """Prints one pass's table per workload; returns True if any run failed
    or any bound was reached."""
    flagged = False
    for w in workloads:
        runs = results[w]
        bad = [r for _, r in runs if not r["correct"] or r["failed"]]
        print(f"\n{w}, {title}: {len(runs)} runs, {len(bad)} incorrect")
        flagged |= bool(bad)
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'B-vs-A':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            side = {s: statistics.median([r["metrics"][name]["value"]
                                          for t, r in runs if t == s])
                    for s in "AB"}
            diff = (side["B"] - side["A"]) / side["A"] if side["A"] else 0.0
            if m["better"] == "higher":
                diff = -diff
            verdict = "ok"
            if (spread >= bound and name != "setup_s") or diff >= bound:
                verdict = "FLAG"
                flagged = True
            elif spread >= bound / 3:
                verdict = "above bound/3"
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:6.3f} {diff:+7.3f}  {verdict}")
    return flagged


def self_check(spec):
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    passes = [(f"seed {AA_FIXED_SEED}", lambda i: AA_FIXED_SEED),
              (f"seeds 1-{AA_RUNS}", lambda i: i + 1)]
    flagged = False
    for title, seed_of in passes:
        results = {w: [] for w in workloads}  # (side, result) per run
        for i in range(AA_RUNS):
            for w in workloads:  # interleave workloads so drift hits them alike
                r = run_once(w, seed_of(i), seconds)
                side = "AB"[i % 2]
                results[w].append((side, r))
                print(f"{title}: run {i + 1}/{AA_RUNS} {w} seed={seed_of(i)} "
                      f"side={side} correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr)
        flagged |= print_pass(title, workloads, spec["end_to_end"], results)
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", action="store_true", help="A/A self-check")
    args = p.parse_args()

    build()
    spec = load_spec()
    if args.aa:
        return self_check(spec)
    if not args.workload:
        p.error("--workload is required")
    cmd = command(args.workload, args.seed, args.seconds or spec["run_seconds"],
                  args.trace)
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                          preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main())
