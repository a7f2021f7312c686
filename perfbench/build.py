#!/usr/bin/env python3
"""Build file of the perfbench package.

Compiles the join program (``src/main/scala``) together with the benchmark's
own sources (``perfbench/src``) with the Scala compiler that ships in the
Spark distribution, into ``.bench_build/perfbench`` under the checkout. A
stamp over every source file makes a rebuild of unchanged sources a no-op.

The DuckDB result oracle (``repro/Oracle.scala``) is left out: it is a test
dependency, and the benchmark checks Spark results against Spark's own join.

Spark is found through ``SPARK_HOME``, or else through ``spark-submit`` on
``PATH``. Usage: ``python3 perfbench/build.py`` from the checkout root.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "stamp")
EXCLUDED = {os.path.join("repro", "Oracle.scala")}


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "spark-sql_2.13-*.jar")):
        raise BuildError("Spark 2.13 jars not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        raise BuildError("program sources not found under src/main/scala")
    prog = sorted(
        p for p in glob.glob(os.path.join(main, "**", "*.scala"), recursive=True)
        if os.path.relpath(p, main) not in EXCLUDED
    )
    bench = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    if not prog or not bench:
        raise BuildError("no Scala sources to compile")
    return prog + bench


def stamp_of(files, jars):
    h = hashlib.sha256()
    h.update(jars.encode())
    for f in files + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compile if needed; returns (java executable, runtime classpath)."""
    jars = spark_jars()
    exe = java()
    files = sources()
    stamp = stamp_of(files, jars)
    classpath = CLASSES + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return exe, classpath
    compiler = [
        os.path.join(jars, n)
        for n in ("scala-compiler-2.13.17.jar", "scala-library-2.13.17.jar", "scala-reflect-2.13.17.jar")
    ]
    if not all(os.path.exists(j) for j in compiler):
        compiler = sorted(
            glob.glob(os.path.join(jars, "scala-compiler-2.13.*.jar"))
            + glob.glob(os.path.join(jars, "scala-library-2.13.*.jar"))
            + glob.glob(os.path.join(jars, "scala-reflect-2.13.*.jar"))
        )
    if len(compiler) != 3:
        raise BuildError("Scala 2.13 compiler jars not found beside Spark")
    # Exact counters recorded by another build are not comparable.
    shutil.rmtree(os.path.join(OUT, "exact"), ignore_errors=True)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    argfile = os.path.join(OUT, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = [
        exe, "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
        "-nowarn", "-d", CLASSES, "-classpath", os.path.join(jars, "*"), "@" + argfile,
    ]
    print(f"[perfbench] compiling {len(files)} Scala files", file=log, flush=True)
    res = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log)
    if res.returncode != 0:
        raise BuildError(f"scalac exited with {res.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    return exe, classpath


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
