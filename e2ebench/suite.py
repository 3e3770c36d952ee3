#!/usr/bin/env python3
"""Runs the end-to-end benchmark's workloads through run.py and summarizes.

Run from the root of a checkout:

  python3 e2ebench/suite.py all
      One untraced run of every workload (seed 1); prints every end-to-end metric by
      name with its unit.

  python3 e2ebench/suite.py steady [--out f] [--baseline f]
      Steadiness check on one build: ten rounds, each running every
      workload once (workloads alternate), seed 1 + round. Prints each
      end-to-end metric's median, quartiles, min/max and quartile spread
      against its bound. --out saves the values; --baseline compares this
      set's medians with a saved set's, in both directions: two sets of one
      build agree only if each median is within its bound of the other.

  python3 e2ebench/suite.py layers
      Traced-run reporter: runs every workload untraced and traced with
      seed 1, prints every per-layer metric by name and unit, the
      per-layer self-time split, and the tracing overhead (traced vs
      untraced qps).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
STEADY_RUNS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    command = ["python3", os.path.join("e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"suite.py: {workload} seed {seed} trace {trace} failed")
    lines = out.stdout.rstrip("\n").split("\n")
    provenance = next((l for l in lines if l.startswith("provenance ")), "")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(provenance[len("provenance "):] or "{}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def print_result(workload, result):
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:16.6f} {metric['unit']}")


def cmd_all(spec, args):
    for w in spec["workloads"]:
        print_result(w["name"], run_once(spec, w["name"], SEED, 0))


def cmd_steady(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    for r in range(STEADY_RUNS):
        seed = SEED + r
        for w in workloads:
            result = run_once(spec, w, seed, 0)
            print(f"run {r + 1}/{STEADY_RUNS} {w} seed {seed}: "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads:
        print(f"\n== {w} ({STEADY_RUNS} runs)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}"
              + ("  drift" if baseline else ""))
        for name, vals in values[w].items():
            m = bounds[name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            s = spread(vals)
            verdict = "ok" if s <= m["bound"] / 3 else (
                "WIDE" if s <= m["bound"] else "FAIL")
            worst = max(worst, s / m["bound"])
            line = (f"  {name:22s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                    f"{min(vals):12.5g} {max(vals):12.5g} {s:7.3f} "
                    f"{m['bound']:6.3f} {verdict}")
            if baseline and name in baseline.get(w, {}):
                base = statistics.median(baseline[w][name])
                worse = (median - base) / base if m["better"] == "lower" \
                    else (base - median) / base
                # Either side may be the parent, so a drift that would be
                # an improvement one way round is a regression the other.
                drift = max(abs(median - base) / base,
                            abs(base - median) / median)
                line += (f"  {worse:+.3f} "
                         f"{'ok' if drift <= m['bound'] else 'FAIL'}")
            print(line)
    print(f"\nlargest spread / bound: {worst:.3f}")


def cmd_layers(spec, args):
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        plain = run_once(spec, w["name"], SEED, 0)
        traced = run_once(spec, w["name"], SEED, 1)
        metrics = traced["metrics"]
        print(f"== {w['name']} (seed {SEED}, traced)")
        for name in layer_names:
            value = metrics[name]["value"] if name in metrics else float("nan")
            print(f"  {name:36s} {value:16.6f} {units[name]}")
        selfs = {n: metrics[n]["value"] for n in layer_names
                 if n.startswith("self.") and n in metrics}
        total = sum(selfs.values())
        split = ", ".join(f"{n[len('self.'):-len('_us')]} {v / total:.1%}"
                          for n, v in selfs.items() if total > 0)
        print(f"  self-time split: {split}")
        untraced_qps = plain["metrics"]["qps"]["value"]
        traced_qps = metrics["trace.qps"]["value"]
        print(f"  tracing overhead: untraced qps {untraced_qps:.1f}, traced "
              f"qps {traced_qps:.1f}: traced is "
              f"{1 - traced_qps / untraced_qps:+.1%} slower "
              f"(within run-to-run noise when negative)\n")


def main():
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark runner (see module docstring).")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("all")
    p_steady = sub.add_parser("steady")
    p_steady.add_argument("--out", default="")
    p_steady.add_argument("--baseline", default="")
    sub.add_parser("layers")
    args = parser.parse_args()
    spec = load_spec()
    {"all": cmd_all, "steady": cmd_steady, "layers": cmd_layers}[args.command](
        spec, args)


if __name__ == "__main__":
    main()
