#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/main.exe from source with dune and runs it from the
root of the checkout; its last stdout line is the result object.

Helpers for people working on the repository:

    python3 perfbench/run.py --all [--seconds S] [--seed N]
        one untraced run per workload; prints every named metric of each
        workload with its unit and sample count, and failed/attempted ops.
    python3 perfbench/run.py --collect OUT.jsonl [--runs 10] [--trace 0|1]
        [--seconds S] [--workloads a,b]
        runs every workload with seeds 1..N and appends each run's record.
    python3 perfbench/run.py --spread RUNS.jsonl
        run-to-run spread (IQR / median) of every end-to-end metric.
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
        one row per workload x end-to-end metric with a verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Every workload main.exe runs. advise-cold-warm is not in BENCHMARK.json:
# its store-heavy cold pass follows the host's disk more than the probe
# (see README.md), so its spread exceeds any allowed bound.
ALL_WORKLOADS = ["hdiff-auto", "offsite-heat2d", "advise-cold-warm"]


def scratch_env():
    """Keep dune's and the compilers' temporary files inside the checkout."""
    tmp = os.path.join(ROOT, "_perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build():
    env = scratch_env()
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    return r.returncode == 0 and os.path.exists(EXE)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    """Run main.exe once; returns (exit code, record, result)."""
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, env=scratch_env())
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    record = result = None
    if r.returncode == 0 and len(lines) >= 2:
        record = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    return r.returncode, record, result


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["record"]["trace"]:
                    continue
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def cmd_all(args):
    bad = 0
    for w in ALL_WORKLOADS:
        code, record, result = run_one(w, args.seed, args.seconds, 0)
        if record is None:
            print("%s: run failed (exit %d)" % (w, code))
            bad += 1
            continue
        print("\n%s  (seed %d, %ss, %d/%d ops failed, correct=%s)" % (
            w, args.seed, args.seconds, result["failed"], result["attempted"],
            result["correct"]))
        print("  %-20s %12s %12s %-7s %5s  %s" % (
            "metric", "value", "plain host", "unit", "n", "clock"))

        def num(v):
            return "%12.4f" % v if v is not None else "%12s" % "n/a"
        for row in record["detail"]["report"]:
            print("  %-20s %s %s %-7s %5s  %s%s" % (
                row["name"], num(row["value"]), num(row["host"]), row["unit"],
                row["n"], row["clock"],
                ("  (" + row["note"] + ")") if row.get("note") else ""))
        bad += result["failed"] > 0 or not result["correct"]
    return 1 if bad else 0


def cmd_collect(args):
    bench = spec()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    with open(args.collect, "a") as out:
        for seed in range(1, args.runs + 1):
            for w in names:
                code, record, result = run_one(w, seed, args.seconds, args.trace)
                if record is None:
                    print("%s seed %d: failed (exit %d)" % (w, seed, code), file=sys.stderr)
                    continue
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "record": record, "result": result}) + "\n")
                out.flush()
                print("%s seed %d: %s" % (w, seed, json.dumps(result["metrics"])), file=sys.stderr)
    return 0


def cmd_spread(args):
    bench = spec()
    runs = load(args.spread)
    print("%-18s %-20s %4s %12s %8s %8s" % ("workload", "metric", "n", "median", "spread", "bound/3"))
    worst = 0.0
    for w, recs in sorted(runs.items()):
        for m in bench["end_to_end"]:
            vals = values(recs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("%-18s %-20s %4d %12.4f %8.4f %8.4f%s" % (
                w, m["name"], len(vals), med, spread, m["bound"] / 3,
                "  !" if spread > m["bound"] / 3 and m["name"] != "setup_s" else ""))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


def verdict(p, c, bound, better):
    """choosing-metrics section 8: gains need 9/10 paired wins and a median
    gap beyond the parent's own IQR; regressions are judged against the
    bound; a spread wider than the bound leaves the metric unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(p)
    _, cmed, _ = quartiles(c)
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    all_better = max(sign * x for x in c) < min(sign * x for x in p)
    worse_by = sign * (cmed - pmed) / pmed
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1):
        return "improved"
    if (pq3 - pq1) / pmed > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "no worse"


def cmd_compare(args):
    bench = spec()
    parent, change = load(args.compare[0]), load(args.compare[1])
    print("%-18s %-20s %28s %28s %+8s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "delta", "verdict"))
    for w in sorted(set(parent) | set(change)):
        pr = sorted(parent.get(w, []), key=lambda r: r["seed"])
        cr = sorted(change.get(w, []), key=lambda r: r["seed"])
        for m in bench["end_to_end"]:
            p, c = values(pr, m["name"]), values(cr, m["name"])
            if not p or not c:
                print("%-18s %-20s missing on one side" % (w, m["name"]))
                continue
            pq = quartiles(p)
            cq = quartiles(c)
            print("%-18s %-20s %28s %28s %+7.1f%%  %s" % (
                w, m["name"],
                "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq,
                100 * (cq[1] - pq[1]) / pq[1],
                verdict(p, c, m["bound"], m["better"])))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--collect")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--spread")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        return cmd_compare(args)
    if args.spread:
        return cmd_spread(args)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        print("run from the root of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.all:
        return cmd_all(args)
    if args.collect:
        return cmd_collect(args)
    if not args.workload:
        ap.error("--workload is required")
    # The result line is main.exe's own stdout; hand the process over.
    sys.stdout.flush()
    os.execve(EXE, [EXE, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
              scratch_env())


if __name__ == "__main__":
    sys.exit(main())
