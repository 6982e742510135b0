"""Build file of the benchmark.

Compiles the program's sources (``src/main/scala``, ``jobs``) together with
the benchmark's own (``perfbench/src``) with the Scala compiler that ships
in the Spark distribution, into ``.bench_build/classes`` under the checkout
root. Nothing outside the checkout is written. A build is skipped when the
sources and the Spark jars are unchanged since the last one.

Run from the checkout root:  python3 perfbench/build.py
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

PROGRAM_SOURCES = ("src/main/scala", "jobs")
BENCH_SOURCES = ("perfbench/src",)
BUILD_DIR = ".bench_build"
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME/jars, else the
    one beside the ``spark-submit`` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def duckdb_jar():
    """DuckDB's JDBC driver (the program's oracle dependency) from the
    coursier cache the program's own build resolves it into."""
    roots = [os.environ.get("COURSIER_CACHE"), os.path.expanduser("~/.cache/coursier")]
    for root in filter(None, roots):
        hits = glob.glob(os.path.join(root, "**", DUCKDB_JAR), recursive=True)
        if hits:
            return sorted(hits)[0]
    raise BuildError(f"{DUCKDB_JAR} not found in the coursier cache")


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME)")
    return exe


def sources(root):
    found = {}
    for group in (PROGRAM_SOURCES, BENCH_SOURCES):
        files = []
        for d in group:
            files += glob.glob(os.path.join(root, d, "**", "*.scala"), recursive=True)
        found[group] = sorted(files)
    if not found[PROGRAM_SOURCES]:
        raise BuildError("program sources (src/main/scala) not found: run from the repo root")
    if not found[BENCH_SOURCES]:
        raise BuildError("benchmark sources (perfbench/src) not found")
    return found[PROGRAM_SOURCES] + found[BENCH_SOURCES]


def build(root="."):
    """Compiles if needed; returns the runtime classpath entries."""
    root = os.path.abspath(root)
    jars = spark_jars()
    srcs = sources(root)
    duck = duckdb_jar()
    out = os.path.join(root, BUILD_DIR)
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "stamp")

    h = hashlib.sha256()
    for f in srcs:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    stamp = h.hexdigest()

    if not (os.path.exists(stamp_file) and open(stamp_file).read() == stamp
            and os.path.isdir(classes)):
        shutil.rmtree(classes, ignore_errors=True)
        os.makedirs(classes)
        argfile = os.path.join(out, "sources.txt")
        with open(argfile, "w") as fh:
            fh.write("\n".join(srcs))
        compiler = os.pathsep.join(
            glob.glob(os.path.join(jars, f"scala-{m}-2.13*.jar"))[0]
            for m in ("compiler", "library", "reflect"))
        cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", compiler,
               "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(jars, "*"),
               "-d", classes, "@" + argfile]
        print(f"[perfbench] compiling {len(srcs)} sources", file=sys.stderr)
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=800)
        if res.returncode != 0:
            raise BuildError("scalac failed:\n" + res.stdout[-4000:])
        with open(stamp_file, "w") as fh:
            fh.write(stamp)
    return [classes, os.path.join(jars, "*"), duck], stamp


if __name__ == "__main__":
    try:
        cp, _ = build()
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
    print(os.pathsep.join(cp))
