"""Evaporate runtime benchmark: lake-to-table time for Evaporate-Code+,
Evaporate-Direct and the paper-table sweep.

Run from the repo root:

    python3 perfbench/run.py --workload codeplus-lake [--seed 42] [--seconds 16] [--trace 0|1]
    python3 perfbench/run.py --all      # every workload, untraced then traced

Builds the program and the benchmark from source (perfbench/build.py), runs
the benchmark JVM (repro.perfbench.Main) for one workload, checks every op's
output, and prints the metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import build  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("codeplus-lake", "direct-lake", "table-sweep")
REFERENCE_SEED = 42
REFERENCE_FILE = os.path.join(HERE, "reference", f"seed{REFERENCE_SEED}.json")
HEAP = "3g"
JVM_TIMEOUT_S = 170

# The module openings Spark's own launcher passes on Java 17.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit(root):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def run_jvm(root, classpath, workload, seed, seconds, trace):
    out_dir = os.path.join(root, build.BUILD_DIR, "out")
    tmp = os.path.join(root, build.BUILD_DIR, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", *JAVA_OPENS,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Djava.io.tmpdir=" + tmp,
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.local.dir=" + os.path.join(root, build.BUILD_DIR, "spark-local"),
           "-Dspark.sql.warehouse.dir=" + os.path.join(root, build.BUILD_DIR, "warehouse"),
           "-cp", os.pathsep.join(classpath), "repro.perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    env = dict(os.environ, SPARK_MASTER=f"local[{nproc()}]")
    res = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                         timeout=JVM_TIMEOUT_S)
    if res.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"benchmark JVM exited with code {res.returncode}")
    with open(out) as fh:
        return json.load(fh)


def load_committed(workload):
    if not os.path.exists(REFERENCE_FILE):
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(workload, {})


def record_reference(raw):
    data = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            data = json.load(fh)
    data[raw["workload"]] = {r["op"]: {"fp": r["fp"], "pair": r["pair"]}
                             for r in raw["ops"]
                             if r["pass"] == stats.REFERENCE_PASS and not r["traced"] and not r["error"]}
    os.makedirs(os.path.dirname(REFERENCE_FILE), exist_ok=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def report(raw, root, trace, stamp):
    """Prints the config and every metric; returns the result object."""
    seed = raw["seed"]
    committed = load_committed(raw["workload"]) if seed == REFERENCE_SEED else None
    trace_data = raw.get("trace_data") or {}
    attempted, failed, problems = stats.count_failures(
        raw["ops"], raw["check_errors"], committed, trace_data.get("replay_errors", ()))
    cfg = raw["config"]
    config = {
        "workload": raw["workload"], "seed": seed, "trace": trace, "nproc": nproc(),
        "heap": HEAP, "heap_max_mb": round(cfg["heap_max_mb"]), "spark": cfg["spark_version"],
        "master": cfg["master"], "shuffle_partitions": cfg["shuffle_partitions"],
        "java": cfg["java_version"], "git_commit": git_commit(root), "source_sha256": stamp,
        "loop": "closed, 1 client thread", "spark_conf": cfg["spark_conf"],
    }
    print("config " + json.dumps(config, sort_keys=True))
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"ops_failed_frac = {failed / attempted:.4f} ({failed}/{attempted} ops)")
    reference = [r for r in raw["ops"] if r["pass"] == stats.REFERENCE_PASS and not r["traced"]]
    checks = [r for r in reference if r.get("pair")]
    print(f"verification: pass {stats.REFERENCE_PASS} fingerprinted {len(reference)} ops, "
          f"{len(checks)} pair-F1 counts cross-checked against DuckDB"
          + (f", compared with {os.path.relpath(REFERENCE_FILE, root)}" if committed is not None else ""))

    if not trace:
        values, counts = stats.end_to_end(raw)
        units = stats.END_TO_END
        printed = units | stats.NOT_GATED
    else:
        values, counts = stats.per_layer(raw), {}
        units = printed = stats.PER_LAYER
    for name, unit in printed.items():
        n = f" (n={counts[name]})" if name in counts else ""
        gate = "" if name in units else " [printed, not gated]"
        print(f"{name} = {values[name]:.6g} {unit}{n}{gate}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced, then traced")
    p.add_argument("--record-reference", action="store_true",
                   help=f"store the verification fingerprints of seed {REFERENCE_SEED}")
    a = p.parse_args(argv)
    if not a.all and not a.workload:
        p.error("give --workload or --all")
    if a.record_reference and a.seed != REFERENCE_SEED:
        p.error(f"--record-reference needs --seed {REFERENCE_SEED}")

    root = os.getcwd()
    try:
        classpath, stamp = build.build(root)
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    runs = ([(w, t) for t in (0, 1) for w in WORKLOADS] if a.all else [(a.workload, a.trace)])
    result = None
    for workload, trace in runs:
        t0 = time.time()
        try:
            raw = run_jvm(root, classpath, workload, a.seed, a.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"[perfbench] {workload}: {e}", file=sys.stderr)
            return 1
        if a.record_reference:
            record_reference(raw)
        result = report(raw, root, trace, stamp)
        print(f"# {workload} trace={trace}: {time.time() - t0:.1f} s wall", file=sys.stderr)
        if a.all:
            print(json.dumps({"workload": workload, **result}))
    if not a.all:
        print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
