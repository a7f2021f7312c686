#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the checkout root. The first run builds the program (see
``build.py``); later runs reuse the build. The workload itself runs in one
JVM (``repro.perfbench.Main``) whose temporary files, spill files and Spark
directories all live under ``.bench_build`` and are removed when it ends.
The JVM's last output line is checked against ``BENCHMARK.json`` (the
metric names of the requested mode) before it is printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("engine_fit", "engine_spill", "spark_sf01")
JVM_TIMEOUT_S = 170
HEAP = "3g"
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def expected_metrics(trace):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    try:
        java, classpath = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    expected = expected_metrics(a.trace)

    work = os.path.join(build.OUT, "runs", f"{a.workload}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    cmd = [
        # -UsePerfData: no hsperfdata file in the system temp dir.
        java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
        "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
        *[f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS],
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--work", work, "--state", build.OUT,
    ]
    t0 = time.time()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def on_signal(signum, _frame):
        stop()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print(f"[perfbench] {a.workload} did not finish within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(f"[perfbench] {a.workload}: JVM ran {time.time() - t0:.1f} s", file=sys.stderr)
    if proc.returncode != 0:
        print(f"[perfbench] {a.workload} exited with {proc.returncode}", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print(f"[perfbench] metric set {sorted(got)} differs from BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 5
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
