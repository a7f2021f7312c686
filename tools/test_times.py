#!/usr/bin/env python3
"""Prints where the test suite's time goes, from sbt's JUnit reports.

    python3 tools/test_times.py [--top N] DIR [DIR ...]
    python3 tools/test_times.py [--top N] --parent DIR [--parent DIR ...] --change DIR [--change DIR ...]

Each DIR is a checkout whose ``target/test-reports/TEST-*.xml`` sbt wrote
on its last ``sbt test``/``testOnly`` run, or a directory holding a copy of
those files (copy them out after each run to keep several runs of one
checkout). sbt rewrites only the reports of the suites it runs, so delete
that directory before a full run. Given several DIRs for one side, every
time printed for that side is the median over them.

It prints each suite's time, the total and the test and failure counts,
then the N slowest tests (by the change's time when two sides are given).
With ``--parent`` and ``--change`` the two sides stand side by side with
their ratio. A suite's time includes whatever it starts first: the shared
SparkSession is built inside the first Spark suite that runs.
"""

import argparse
import glob
import os
import statistics
import sys
import xml.etree.ElementTree as ET


def read_run(path):
    """(suite -> seconds, (suite, test) -> seconds, tests, failed) of one run."""
    reports = os.path.join(path, "target", "test-reports")
    if not os.path.isdir(reports):
        reports = path
    files = sorted(glob.glob(os.path.join(reports, "TEST-*.xml")))
    if not files:
        sys.exit(f"no TEST-*.xml in {reports}")
    suites, tests, count, failed = {}, {}, 0, 0
    for f in files:
        root = ET.parse(f).getroot()
        name = root.get("name")
        suites[name] = float(root.get("time"))
        count += int(root.get("tests"))
        failed += int(root.get("failures")) + int(root.get("errors"))
        for tc in root.iter("testcase"):
            tests[(name, tc.get("name"))] = float(tc.get("time"))
    return suites, tests, count, failed


def side(paths):
    """Median suite and test times, and the median total, over `paths`."""
    runs = [read_run(p) for p in paths]
    med = lambda key, i: statistics.median(r[i][key] for r in runs if key in r[i])
    suites = {s: med(s, 0) for r in runs for s in r[0]}
    tests = {t: med(t, 1) for r in runs for t in r[1]}
    total = statistics.median(sum(r[0].values()) for r in runs)
    counts = sorted({(r[2], r[3]) for r in runs})
    return suites, tests, total, counts


def fmt(x):
    return "-" if x is None else f"{x:.1f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dirs", nargs="*", help="checkouts or report directories of one side")
    ap.add_argument("--parent", action="append", default=[], help="a parent checkout or report directory")
    ap.add_argument("--change", action="append", default=[], help="a change checkout or report directory")
    ap.add_argument("--top", type=int, default=10, help="how many of the slowest tests to print")
    args = ap.parse_args()
    if bool(args.parent) != bool(args.change) or (args.parent and args.dirs):
        ap.error("give DIRs of one side, or both --parent and --change")
    labels = ["parent", "change"] if args.parent else ["run"]
    sides = [side(p) for p in ([args.parent, args.change] if args.parent else [args.dirs or ["."]])]

    width = max(len(s) for sd in sides for s in sd[0])
    head = "".join(f"{l:>10}" for l in labels) + ("     ratio" if len(sides) == 2 else "")
    print(f"{'suite (s)':<{width}}{head}")

    def row(name, vals):
        ratio = ""
        if len(vals) == 2 and vals[0] and vals[1] is not None:
            ratio = f"{vals[1] / vals[0]:>10.2f}"
        print(f"{name:<{width}}" + "".join(f"{fmt(v):>10}" for v in vals) + ratio)

    for s in sorted({s for sd in sides for s in sd[0]}):
        row(s, [sd[0].get(s) for sd in sides])
    row("total", [sd[2] for sd in sides])
    for l, sd in zip(labels, sides):
        print(f"{l}: " + ", ".join(f"{n} tests, {f} failed" for n, f in sd[3]))

    last = sides[-1][1]
    print(f"\n{args.top} slowest tests ({labels[-1]}, s):")
    for key in sorted(last, key=last.get, reverse=True)[: args.top]:
        vals = "".join(f"{fmt(sd[1].get(key)):>8}" for sd in sides)
        print(f"{vals}  {key[0].rsplit('.', 1)[-1]}: {key[1]}")


if __name__ == "__main__":
    main()
