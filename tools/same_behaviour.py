#!/usr/bin/env python3
"""Checks that two checkouts behave the same: the paper tables and perfbench's exact counters.

    python3 tools/same_behaviour.py --parent DIR --change DIR

The engine is deterministic, so a refactor that keeps its behaviour keeps
every printed table and every counter. In each checkout, one after the
other, this

  - runs the six paper bench suites through sbt and keeps the output lines
    that do not start with ``[`` (sbt's ``[info]``/``[warn]`` lines, timings
    included, differ between any two runs);
  - runs ``perfbench/run.py --seed 201 --seconds 8 --trace 1`` per workload
    and copies ``.bench_build/perfbench/exact/<w>-seed201.txt`` out after
    the run (a rebuild of changed sources deletes the ledger).

It then prints IDENTICAL or DIFFERENT for the tables and for each ledger,
with the first differing lines, and exits 1 on any difference or failed
run. sbt inherits this process's environment (``SBT_OPTS``,
``COURSIER_MODE`` and so on). Every output is kept in a new temporary
directory, whose path is printed last.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile

SUITES = [
    "repro.bench.Table1Bench",
    "repro.bench.Fig345PartitionSweepBench",
    "repro.bench.Fig678ParamChoiceBench",
    "repro.bench.Fig91011InsertionBench",
    "repro.bench.Fig12GrowthPolicyBench",
    "repro.bench.Fig1317VictimBench",
]
WORKLOADS = ["engine_fit", "engine_spill", "spark_sf01"]
SEED = 201
SECONDS = 8
SHOWN_DIFF_LINES = 20


def tables(checkout, out):
    """The suites' table lines, or None if sbt failed."""
    cmd = ["sbt", "-batch", "-Dsbt.log.noformat=true", "bench/testOnly " + " ".join(SUITES)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with open(os.path.join(out, "suites.log"), "w") as fh:
        fh.write(proc.stdout)
    if proc.returncode != 0:
        print(f"  {checkout}: sbt exited with {proc.returncode}; see {out}/suites.log", file=sys.stderr)
        return None
    lines = [l for l in proc.stdout.splitlines(keepends=True) if not l.startswith("[")]
    with open(os.path.join(out, "tables.txt"), "w") as fh:
        fh.writelines(lines)
    return lines


def ledger(checkout, workload, out):
    """The exact-counter ledger of one traced run, or None if the run failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with open(os.path.join(out, f"{workload}.log"), "w") as fh:
        fh.write(proc.stderr + proc.stdout)
    if proc.returncode != 0:
        print(f"  {checkout} {workload}: run.py exited with {proc.returncode}; see {out}/{workload}.log",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] > 0:
        print(f"  {checkout} {workload}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        return None
    name = f"{workload}-seed{SEED}.txt"
    src = os.path.join(checkout, ".bench_build", "perfbench", "exact", name)
    shutil.copy(src, os.path.join(out, name))
    with open(src) as fh:
        return fh.readlines()


def compare(item, old, new):
    """Prints the verdict for one item; returns True when identical."""
    if old is None or new is None:
        print(f"{item}: FAILED (a run failed, nothing compared)")
        return False
    if old == new:
        print(f"{item}: IDENTICAL ({len(new)} lines)")
        return True
    diff = list(difflib.unified_diff(old, new, "parent", "change", n=0))
    print(f"{item}: DIFFERENT; first differing lines:")
    sys.stdout.writelines("    " + l if l.endswith("\n") else "    " + l + "\n" for l in diff[:SHOWN_DIFF_LINES])
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    a = ap.parse_args()
    out = tempfile.mkdtemp(prefix="same-behaviour-")

    got = {}
    for side, checkout in (("parent", a.parent), ("change", a.change)):
        checkout = os.path.abspath(checkout)
        side_out = os.path.join(out, side)
        os.makedirs(side_out, exist_ok=True)
        print(f"{side}: {checkout}", flush=True)
        got[side] = {"paper tables": tables(checkout, side_out)}
        for w in WORKLOADS:
            got[side][f"{w} seed {SEED} exact counters"] = ledger(checkout, w, side_out)

    same = [compare(item, got["parent"][item], got["change"][item]) for item in got["parent"]]
    print(f"outputs in {out}")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
