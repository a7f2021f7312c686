#!/usr/bin/env python3
"""Compares two checkouts on perfbench workloads in alternating pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR \\
        --workload W [--workload W2 ...] --pairs 10 --first-seed 211 \\
        [--seconds 15] [--json FILE]

For each workload, pair i runs ``perfbench/run.py --trace 0`` on seed
``first-seed + i`` in both checkouts, the parent first on even pairs and the
change first on odd ones, so drift on a shared machine does not favour one
side. It prints every pair, then one row per workload over every end-to-end
metric ``BENCHMARK.json`` gates:

- ``join_s_p50``: each side's median and quartiles, the pairs the change won
  (ties count for neither side), and whether a gain may be claimed: the
  change won at least nine tenths of the pairs and its median beats the
  parent's by more than the parent's interquartile range;
- ``setup_s``: each side's median and quartiles;
- ``io_mb``: on how many seeds both sides read the same value (it is
  deterministic per seed, so anything short of all of them is a change in
  behaviour).

Every metric also shows the change's median against the parent's. Every
metric but ``io_mb`` also shows

- ``spread``: the parent's interquartile range as a share of its median;
- ``second worse k/n``: in how many pairs the side that ran second read
  worse than the side that ran first (a side that loses most pairs when it
  runs second, whichever checkout it is, points at drift on the machine,
  not at the change).

A metric is flagged ``UNRESOLVED`` when its spread exceeds the metric's
bound, unless every change run beats every parent run: runs that spread
that wide cannot show a change within the bound, so the metric is neither
worse nor unchanged. Otherwise it is flagged ``WORSE`` when the change's
median is worse than the parent's by more than the bound. ``io_mb`` is
flagged ``WORSE`` on its median alone. Each checkout builds its own program
on its first run.

``--json FILE`` writes every run, in the form a perf change commits as its
``BENCH_<name>.json`` trajectory point::

    {"seconds": 15.0,                    # --seconds, the length of every run
     "workloads": {
       "engine_spill": [                 # one key per --workload, one entry per pair
         {"seed": 301,                   # the pair's seed
          "first": "parent",             # the side that ran first in this pair
          "parent": {"setup_s": 0.35, "join_s_p50": 0.72, "io_mb": 5053.5},
          "change": {"setup_s": 0.34, "join_s_p50": 0.51, "io_mb": 5053.5}},
         ...]}}

``parent`` and ``change`` hold that side's end-to-end metrics as
``perfbench/run.py`` reports them (every metric ``BENCHMARK.json`` gates, in
its units), or ``null`` if that run failed or gave a wrong answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CLAIM = "join_s_p50"
# Deterministic per seed: compared for identity, not spread.
EXACT = {"io_mb"}
# Each side of a pair to the other.
SIDES = {"parent": "change", "change": "parent"}


def run(checkout, workload, seed, seconds):
    """One untraced run; returns its end-to-end metrics, or None if it failed."""
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


def gated(checkout):
    """The end-to-end metrics ``BENCHMARK.json`` gates, as (name, better, bound)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def pairs(sides, workload, n, first_seed, seconds):
    rows = []
    for i in range(n):
        seed = first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {side: run(sides[side], workload, seed, seconds) for side in order}
        rows.append({"seed": seed, "first": order[0], **got})
        p, c = got["parent"], got["change"]
        if p is None or c is None:
            print(f"{workload} seed {seed} ({order[0]} first): a run failed", flush=True)
            continue
        print(f"{workload} seed {seed} ({order[0]} first): "
              + ", ".join(f"{m} {p[m]:.3f} -> {c[m]:.3f}" for m in p), flush=True)
    return rows


def summarize(workload, rows, metrics):
    """One report row for a workload; returns (text, whether every pair ran)."""
    done = [r for r in rows if r["parent"] is not None and r["change"] is not None]
    cells = [f"{workload:<13} pairs {len(done)}/{len(rows)}"]
    if not done:
        return "  ".join(cells), False
    for name, better, bound in metrics:
        par = [r["parent"][name] for r in done]
        chg = [r["change"][name] for r in done]
        pq, cq = quartiles(par), quartiles(chg)
        beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
        worse = (cq[1] - pq[1]) if better == "lower" else (pq[1] - cq[1])
        flag = " WORSE" if pq[1] and worse / abs(pq[1]) > bound else ""
        rel = f"{(cq[1] / pq[1] - 1):+.1%}" if pq[1] else "n/a"
        if name in EXACT:
            same = sum(r["parent"][name] == r["change"][name] for r in done)
            cells.append(f"{name} identical on {same}/{len(done)} seeds ({rel}){flag}")
            continue
        spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
        if spread > bound and not all(beats(c, p) for c in chg for p in par):
            flag = " UNRESOLVED"
        second = sum(beats(r[r["first"]][name], r[SIDES[r["first"]]][name]) for r in done)
        cell = (f"{name} {pq[1]:.3f} [{pq[0]:.3f} {pq[2]:.3f}] -> {cq[1]:.3f} [{cq[0]:.3f} {cq[2]:.3f}] ({rel}), "
                f"spread {spread:.1%}, second worse {second}/{len(done)}{flag}")
        if name == CLAIM:
            wins = sum(beats(c, p) for p, c in zip(par, chg))
            gap = -worse
            iqr = pq[2] - pq[0]
            gain = len(done) == len(rows) and wins >= 0.9 * len(done) and gap > iqr
            cell += f" won {wins}/{len(done)}, gap {gap:.3f} vs IQR {iqr:.3f}, gain {'claimable' if gain else 'not claimable'}"
        cells.append(cell)
    return "  ".join(cells), len(done) == len(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append", help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--json", help="also write every run's metrics to this file")
    a = ap.parse_args()

    sides = {"parent": os.path.abspath(a.parent), "change": os.path.abspath(a.change)}
    metrics = gated(sides["change"])
    runs = {w: pairs(sides, w, a.pairs, a.first_seed, a.seconds) for w in a.workload}

    if a.json:
        with open(a.json, "w") as fh:
            json.dump({"seconds": a.seconds, "workloads": runs}, fh, indent=1)

    complete = True
    print()
    for w in a.workload:
        text, ok = summarize(w, runs[w], metrics)
        complete = complete and ok
        print(text)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
