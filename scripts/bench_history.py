#!/usr/bin/env python3
"""Fold benchmark runs into BENCH_history.jsonl, and check that file.

BENCH_history.jsonl is the repository's performance trajectory: one JSON
object a line, appended, never edited. A line records one side of a
measurement (a commit) as `benchmark run --out FILE` wrote it, over
however many seeds were run:

  commit, label, date, seeds
  nproc                                 CPUs this process may run on (what
                                        `nproc` prints)
  workloads.<name>.runs / .failed       runs folded, failed checks summed
  workloads.<name>.host.<metric>        p25, median and p75 over the runs
                                        (host-time metrics: noisy)
  workloads.<name>.exact.<metric>       the value at each seed (exact
                                        metrics repeat to the byte for a
                                        seed, so only same-seed values
                                        compare across lines)
  compare.<name>.<metric>               optional: the verdict and the
                                        median change `benchmark compare`
                                        printed for this side

Usage:
  bench_history.py fold RUNS.json --commit SHA [--label TEXT]
                   [--compare COMPARE.txt]
      Prints the line; append it with `>> BENCH_history.jsonl`.
  bench_history.py check [--base-ref REV]
      Exits 1 if a line of BENCH_history.jsonl does not parse or lacks a
      field, or if the file as committed at REV is not a prefix of it (a
      line was edited or deleted).

Standard library only.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

# Measured on the host's clocks; every other end-to-end metric is exact.
HOST_TIME = ("commits_per_s", "cpu_us_per_round", "setup_s")
HISTORY = "BENCH_history.jsonl"
FIELDS = ("commit", "label", "date", "nproc", "seeds", "workloads")


def quartiles(values):
    """p25, median and p75 as `benchmark compare` computes them."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def read_runs(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_compare(path):
    """Per workload and metric, the verdict and change of a compare table."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            words = line.split()
            pct = [w for w in words if w.endswith("%") and w[:1] in "+-"]
            if len(words) < 3 or "|" not in words or not pct:
                continue
            row = {"verdict": words[-1], "change_pct": float(pct[0].rstrip("%"))}
            out.setdefault(words[0], {})[words[1]] = row
    return out


def fold(args):
    runs = read_runs(args.runs)
    if not runs:
        sys.exit(f"{args.runs}: no runs")
    seeds = sorted({int(r["seed"]) for r in runs})
    workloads = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        host, exact = {}, {}
        for metric in mine[0]["metrics"]:
            if metric in HOST_TIME:
                values = [r["metrics"][metric] for r in mine]
                p25, median, p75 = quartiles(values)
                host[metric] = {"p25": p25, "median": median, "p75": p75}
            else:
                exact[metric] = {str(int(r["seed"])): r["metrics"][metric] for r in mine}
        workloads[name] = {
            "runs": len(mine),
            "failed": sum(int(r["checks_failed"]) for r in mine),
            "host": host,
            "exact": exact,
        }
    line = {
        "commit": args.commit,
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": seeds,
        "workloads": workloads,
    }
    if args.compare:
        line["compare"] = read_compare(args.compare)
    print(json.dumps(line, separators=(",", ":")))


def check(args):
    try:
        with open(HISTORY, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        sys.exit(f"{HISTORY}: {e}")
    bad = 0
    for n, text in enumerate(lines, 1):
        try:
            line = json.loads(text)
            if not isinstance(line, dict):
                raise ValueError("not a JSON object")
            missing = [k for k in FIELDS if k not in line]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            if not isinstance(line["workloads"], dict) or not line["workloads"]:
                raise ValueError("no workloads")
        except ValueError as e:
            print(f"{HISTORY}:{n}: {e}")
            bad = 1
    if args.base_ref:
        known = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{args.base_ref}^{{commit}}"],
            capture_output=True,
        )
        if known.returncode != 0:
            sys.exit(f"{args.base_ref}: not a commit")
        shown = subprocess.run(
            ["git", "show", f"{args.base_ref}:{HISTORY}"],
            capture_output=True,
            text=True,
        )
        # A file the base commit does not have yet has nothing to keep.
        base = shown.stdout.splitlines() if shown.returncode == 0 else []
        if lines[: len(base)] != base:
            changed = next(
                (i for i, (a, b) in enumerate(zip(base, lines), 1) if a != b),
                len(lines) + 1,
            )
            print(f"{HISTORY}:{changed}: a line at {args.base_ref} was edited or deleted")
            bad = 1
    if not bad:
        print(f"{HISTORY}: {len(lines)} lines parse")
    sys.exit(bad)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("fold", help="fold a runs file into one line")
    p.add_argument("runs")
    p.add_argument("--commit", required=True)
    p.add_argument("--label", default="")
    p.add_argument("--compare")
    p.set_defaults(run=fold)
    c = verbs.add_parser("check", help="parse the file; with a base, refuse edits")
    c.add_argument("--base-ref")
    c.set_defaults(run=check)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
