#!/usr/bin/env python3
"""Compares two checkouts on the repository benchmark in order-alternated pairs.

usage: python3 tools/perf_pairs.py BASE CHANGE [--workloads W,...] [--pairs N]
                                   [--seconds S] [--trace 0|1] [--seed N] [--json FILE]

BASE and CHANGE are the roots of two full checkouts (for example the parent
commit, unpacked with `git archive`, and the working tree). Pair i runs
`perfbench/run.py` of both on seed SEED + i, BASE first in even pairs and
CHANGE first in odd ones, so that a drift in host speed over the session
falls on both sides alike. Each checkout builds its own benchmark into its
own .bench_build/ the first time; that build happens before any pair.

For every end-to-end metric of BENCHMARK.json (read from BASE, never
written) it prints both medians, both min-max ranges, the pairs in which
CHANGE was better, the spread of BASE (its interquartile range), and whether
CHANGE's median is worse than BASE's by more than the metric's bound. With
--trace 1 each run is traced and the per-layer metrics are listed too,
without a bound. The operations that failed are summed per side.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(message):
    print(f"perf_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_bench(checkout, workload, seed, seconds, trace, log):
    """Runs one benchmark invocation; returns its result object."""
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=log, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(command)} in {checkout} exited with {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(name, better, bound, base, change):
    """One table row for a metric measured in every pair."""
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    if not pairs:
        return None
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    mb, mc = statistics.median(base), statistics.median(change)
    wins = sum(1 for b, c in pairs if (c < b if better == "lower" else c > b))
    q1, q3 = quartiles(base)
    delta = (mc - mb) / mb if mb else 0.0
    verdict = ""
    if bound is not None:
        worse = mc > mb * (1 + bound) if better == "lower" else mc < mb * (1 - bound)
        verdict = f"WORSE beyond {bound:.0%}" if worse else f"within {bound:.0%}"
    beyond_iqr = abs(mc - mb) > q3 - q1 and (mc < mb) == (better == "lower")
    return (f"  {name:24} base {mb:<11.5g} [{min(base):.5g}-{max(base):.5g}]  "
            f"change {mc:<11.5g} [{min(change):.5g}-{max(change):.5g}]  "
            f"{delta:+6.1%}  better {wins}/{len(pairs)}  base IQR {q3 - q1:.3g}"
            f"{' (gain > IQR)' if beyond_iqr else ''}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=int, help="run length; default: BENCHMARK.json's")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", help="also write every run's result object here")
    args = parser.parse_args()

    base, change = os.path.abspath(args.base), os.path.abspath(args.change)
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    e2e = spec["end_to_end"]
    layer = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    sides = {"base": base, "change": change}

    log_path = os.path.join(change, ".bench_build", "perf_pairs.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        for root in sides.values():  # build both before the first timed pair
            run_bench(root, workloads[0], args.seed, 1, 0, log)
        raw = {w: {"base": [], "change": []} for w in workloads}
        for w in workloads:
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    result = run_bench(sides[side], w, args.seed + i, seconds, args.trace, log)
                    raw[w][side].append(result)
                    print(f"{w} pair {i + 1}/{args.pairs} {side}: "
                          f"correct={result['correct']} failed={result['failed']}",
                          file=sys.stderr)

    for w in workloads:
        print(f"{w}: {args.pairs} order-alternated pairs of {seconds} s "
              f"(trace {args.trace}, seeds {args.seed}-{args.seed + args.pairs - 1})")
        for side in ("base", "change"):
            runs = raw[w][side]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            print(f"  {side}: {failed} of {attempted} operations failed, "
                  f"{wrong} runs failed their output check")

        def values(side, name):
            return [r["metrics"].get(name, {}).get("value") for r in raw[w][side]]

        rows = [compare(m["name"], m["better"], m["bound"], values("base", m["name"]),
                        values("change", m["name"])) for m in e2e]
        if args.trace:
            rows += [compare(name, better, None, values("base", name), values("change", name))
                     for name, better in layer.items()]
        for row in rows:
            if row is not None:
                print(row)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
