#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in alternating pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR --workload W \\
        --pairs 10 --first-seed 211 [--seconds 15] [--json FILE]

Pair i runs ``perfbench/run.py --trace 0`` on seed ``first-seed + i`` in
both checkouts, the parent first on even pairs and the change first on odd
ones, so drift on a shared machine does not favour one side. It prints every
pair, then each side's median and quartiles of ``join_s_p50``, the share of
pairs the change won (ties count for neither side), and whether ``io_mb``
matched on every seed. A gain is claimed only when the change won at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range. Each checkout builds its own program on its
first run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRIC = "join_s_p50"


def run(checkout, workload, seed, seconds):
    """One untraced run; returns its result dict, or None if it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"  {checkout} seed {seed}: run.py exited with {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] > 0:
        print(f"  {checkout} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--json", help="also write every run's metrics to this file")
    a = ap.parse_args()

    sides = {"parent": os.path.abspath(a.parent), "change": os.path.abspath(a.change)}
    rows = []
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {side: run(sides[side], a.workload, seed, a.seconds) for side in order}
        rows.append({"seed": seed, "first": order[0], **got})
        p, c = got["parent"], got["change"]
        if p is None or c is None:
            print(f"seed {seed} ({order[0]} first): a run failed")
            continue
        print(f"seed {seed} ({order[0]} first): {METRIC} {p[METRIC]:.3f} -> {c[METRIC]:.3f} s, "
              f"setup_s {p['setup_s']:.2f} -> {c['setup_s']:.2f} s, io_mb {p['io_mb']:.2f} / {c['io_mb']:.2f}",
              flush=True)

    if a.json:
        with open(a.json, "w") as fh:
            json.dump({"workload": a.workload, "seconds": a.seconds, "pairs": rows}, fh, indent=1)

    done = [r for r in rows if r["parent"] is not None and r["change"] is not None]
    if not done:
        print("no pair completed")
        return 1
    summary = {}
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles([r[side][METRIC] for r in done])
        summary[side] = (q1, q2, q3)
        print(f"{side}: {METRIC} median {q2:.3f} s, quartiles {q1:.3f} / {q3:.3f} s")
    wins = sum(r["change"][METRIC] < r["parent"][METRIC] for r in done)
    io_same = all(r["change"]["io_mb"] == r["parent"]["io_mb"] for r in done)
    parent_iqr = summary["parent"][2] - summary["parent"][0]
    gap = summary["parent"][1] - summary["change"][1]
    print(f"change won {wins}/{len(done)} pairs ({wins / len(done):.0%}); {len(rows) - len(done)} pairs failed")
    print(f"median gap {gap:.3f} s vs parent IQR {parent_iqr:.3f} s; ratio parent/change "
          f"{summary['parent'][1] / summary['change'][1]:.2f}x")
    print(f"io_mb identical on every seed: {io_same}")
    gain = len(done) == len(rows) and wins >= 0.9 * len(done) and gap > parent_iqr
    print(f"gain claimable: {gain}")
    return 0 if len(done) == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
