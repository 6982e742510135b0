"""Statistics of the benchmark: turns the raw samples the benchmark JVM
writes into the end-to-end and per-layer metrics, and counts failed ops.

Kept free of I/O so that ``perfbench/tests`` can drive it with synthetic
samples.
"""

import statistics
from collections import defaultdict

# name -> unit, in print order. `better` and bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "run_s.p50": "s",
    "eval_s.p50": "s",
    "pass_s": "s",
    "docs_per_s": "docs/s",
    "driver_heap_mb": "MB",
}

# End-to-end metrics that are printed but left out of the result object, so
# nothing is gated on them. `run_s.tail` over a workload's eight ops is the
# slowest op alone, and that op's time moves with the shared host's CPU
# throughput by more than any bound a gate may use (see README.md).
NOT_GATED = {
    "run_s.tail": "s",
}

# Span names whose per-pass total time is a per-layer metric (name + "_s").
SPAN_LAYERS = (
    "docs.sample", "llm.schema", "fn.synth", "llm.label", "ws.select", "fn.votes",
    "ws.aggregate", "llm.validate", "core.materialize", "llm.open_extract",
    "llm.closed_extract", "eval.pair_f1", "eval.closed_f1",
)
# Counters whose per-pass total is a per-layer metric.
COUNT_LAYERS = (
    "llm.label_calls", "fn.candidates", "fn.extract_calls", "ws.collect_rows",
    "llm.open_extract_calls", "llm.closed_extract_calls",
)
TOKEN_SITES = ("schema", "synthesis", "eval", "validate", "direct", "closed")

PER_LAYER = (
    {"docs.render_s": "s", "docs.chars": "count"}
    | {f"{n}_s": "s" for n in SPAN_LAYERS}
    | {n: "count" for n in COUNT_LAYERS}
    | {"fn.extract_us_per_call": "us", "fn.kept_frac": "frac", "fn.empty_vote_frac": "frac",
       "core.direct_rest_s": "s"}
    | {"spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count",
       "spark.shuffle_bytes": "bytes", "spark.executor_s": "s", "spark.gc_s": "s",
       "spark.core_util": "frac"}
    | {f"llm.tokens.{k}": "tokens" for k in TOKEN_SITES}
    | {"trace.overhead_frac": "frac"}
)

METRIC_TOLERANCE = 1e-9

# The warm-up and verification pass; its outputs are the run's reference.
REFERENCE_PASS = 0


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    no percentile qualifies; the maximum is returned, labelled 100, with the
    number of samples beyond it, zero.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def fingerprint_mismatch(got, want):
    """Why `got` differs from the reference fingerprint `want`, or None.

    Token ledgers, tuple counts and tuple hashes must match exactly; metric
    values to METRIC_TOLERANCE (Text F1 is a floating-point average whose
    summation order may vary with Spark's partitioning).
    """
    if got is None:
        return "no fingerprint"
    if got["tokens"] != want["tokens"]:
        return f"token ledger {got['tokens']} != {want['tokens']}"
    if want["tuples"] > 0 and got["tuples"] == 0:
        return "empty table where the reference has rows"
    if got["tuples"] != want["tuples"]:
        return f"tuple count {got['tuples']} != {want['tuples']}"
    if got["tuple_hash"] != want["tuple_hash"]:
        return "tuple set differs (hash)"
    if len(got["metric"]) != len(want["metric"]) or any(
            abs(a - b) > METRIC_TOLERANCE for a, b in zip(got["metric"], want["metric"])):
        return f"metric {got['metric']} != {want['metric']}"
    return None


def reference_problems(reference, check_errors=None, committed=None):
    """op -> reason the reference pass's output of that op cannot serve as the
    reference: the op raised, a cross-check failed, or (for the committed
    seed) it disagrees with the committed fingerprint or pair counts."""
    check_errors = check_errors or {}
    bad = {}
    for r in reference:
        op = r["op"]
        if r.get("error"):
            bad[op] = f"raised {r['error']}"
        elif op in check_errors:
            bad[op] = check_errors[op]
        elif committed is not None:
            want = committed.get(op)
            if want is None:
                bad[op] = "no committed fingerprint"
            else:
                why = fingerprint_mismatch(r["fp"], want["fp"])
                if why is None and want.get("pair") != r.get("pair"):
                    why = f"pair counts {r.get('pair')} != {want.get('pair')}"
                if why:
                    bad[op] = f"committed reference: {why}"
    return bad


def count_failures(ops, check_errors=None, committed=None, replay_errors=()):
    """(attempted, failed, problems) over every op record of a run.

    The untraced REFERENCE_PASS is the reference. An op fails when it raised, when its
    reference is bad (see `reference_problems`), when its fingerprint
    differs from the reference's, when its table is empty where the
    reference has rows, or when the traced replay of it diverged from the
    real call.
    """
    reference = [r for r in ops if r["pass"] == REFERENCE_PASS and not r["traced"]]
    ref = {r["op"]: r for r in reference}
    bad_ref = reference_problems(reference, check_errors, committed)
    replay_bad = {e.split(":", 1)[0] for e in replay_errors}
    problems = []
    failed = 0
    for rec in ops:
        op = rec["op"]
        why = rec.get("error") or bad_ref.get(op)
        if why is None and op not in ref:
            why = "no reference"
        if why is None and rec is not ref[op]:
            why = fingerprint_mismatch(rec.get("fp"), ref[op]["fp"])
        if why is None and rec.get("key") in replay_bad:
            why = "traced replay diverged from the real call"
        if why:
            failed += 1
            problems.append(f"pass {rec['pass']} {op}: {why}")
    problems += list(replay_errors)
    return len(ops), failed, problems


def core_util(tasks, op_walls, slots):
    """Busy task-core-seconds / (task slots x op wall), pooled over ops.

    `tasks` are listener task records ({"op", "launch_ms", "finish_ms"}),
    `op_walls` maps op key -> wall seconds; tasks of other groups are
    ignored.
    """
    busy = sum((t["finish_ms"] - t["launch_ms"]) / 1000.0 for t in tasks if t["op"] in op_walls)
    wall = sum(op_walls.values())
    return busy / (slots * wall) if wall > 0 else 0.0


def _ok(rec):
    return not rec.get("error")


def end_to_end(raw):
    """End-to-end metrics (name -> value) and sample counts (name -> n).

    Each op's time is its median over the timed passes, so that the
    percentiles are taken over the same ops whatever the number of passes a
    run fits in. The program time of the warm-up pass (REFERENCE_PASS)
    counts toward set-up.
    """
    untraced = [r for r in raw["ops"] if not r["traced"] and _ok(r)]
    warmup = sum(r["run_s"] + r["eval_s"] for r in untraced if r["pass"] == REFERENCE_PASS)
    ops = [r for r in untraced if r["pass"] > REFERENCE_PASS]
    if not ops:
        raise ValueError("no successful timed op")
    per_op = defaultdict(list)
    passes = defaultdict(float)
    for r in ops:
        per_op[r["op"]].append(r)
        passes[r["pass"]] += r["run_s"] + r["eval_s"]
    run = [statistics.median(r["run_s"] for r in rs) for rs in per_op.values()]
    heap = [r["heap_mb"] for r in ops if r.get("heap_mb") is not None]
    ev = [statistics.median(r["eval_s"] for r in rs) for rs in per_op.values()]
    st = raw["setup"]
    tail_v, tail_pct, beyond = tail(run)
    values = {
        "setup_s": st["session_s"] + statistics.median(st["render_s"]) + warmup,
        "run_s.p50": statistics.median(run),
        "run_s.tail": tail_v,
        "eval_s.p50": statistics.median(ev),
        "pass_s": statistics.median(passes.values()),
        "docs_per_s": sum(r["docs"] for r in ops) / sum(r["run_s"] for r in ops),
        "driver_heap_mb": max(heap),
    }
    each = f"{len(run)} ops x {len(passes)} passes"
    counts = {
        "setup_s": f"{len(st['render_s'])} lake set-ups",
        "run_s.p50": each,
        "run_s.tail": f"{each}, p{tail_pct:.0f} of ops, {beyond} beyond",
        "eval_s.p50": each,
        "pass_s": f"{len(passes)} passes",
        "docs_per_s": f"{len(ops)} calls",
        "driver_heap_mb": f"{len(heap)} calls",
    }
    return values, counts


def per_layer(raw):
    """Per-layer metrics (name -> value) of a traced run. Times and counts
    are totals per traced pass; spark.* are means per traced op."""
    t = raw["trace_data"]
    traced = [r for r in raw["ops"] if r["traced"] and _ok(r)]
    baseline = [r for r in raw["ops"]
                if r["pass"] > REFERENCE_PASS and not r["traced"] and _ok(r)]
    n_pass = max(1, len({r["pass"] for r in traced}))
    keys = {r["key"] for r in traced}

    span_s = defaultdict(float)
    for s in t["spans"]:
        if s["op"] in keys:
            span_s[s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
    count = defaultdict(float)
    for c in t["counters"]:
        if c["op"] in keys:
            count[c["name"]] += c["value"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"docs.render_s": statistics.median(raw["setup"]["render_s"]),
         "docs.chars": t["docs_chars"]}
    m |= {f"{n}_s": span_s[n] / n_pass for n in SPAN_LAYERS}
    m |= {n: count[n] / n_pass for n in COUNT_LAYERS}
    m["fn.extract_us_per_call"] = ratio(count["fn.extract_ns"], count["fn.extract_calls"]) / 1000.0
    m["fn.kept_frac"] = ratio(count["fn.kept"], count["fn.candidates"])
    m["fn.empty_vote_frac"] = ratio(count["fn.empty_votes"], count["fn.extract_calls"])
    m["core.direct_rest_s"] = (span_s["core.direct_run"] - span_s["llm.open_extract"]
                               - span_s["llm.closed_extract"]) / n_pass

    n_ops = max(1, len(keys))
    tasks = [x for x in t["tasks"] if x["op"] in keys]
    m["spark.jobs"] = sum(1 for j in t["jobs"] if j["op"] in keys) / n_ops
    m["spark.stages"] = sum(1 for s in t["stages"] if s["op"] in keys) / n_ops
    m["spark.tasks"] = len(tasks) / n_ops
    m["spark.shuffle_bytes"] = sum(x["shuffle_write_bytes"] for x in tasks) / n_ops
    m["spark.executor_s"] = sum(x["run_ms"] for x in tasks) / 1000.0 / n_ops
    m["spark.gc_s"] = sum(x["gc_ms"] for x in tasks) / 1000.0 / n_ops
    m["spark.core_util"] = core_util(
        tasks, {r["key"]: r["run_s"] + r["eval_s"] for r in traced},
        raw["config"]["default_parallelism"])
    m |= {f"llm.tokens.{k}": count[f"llm.tokens.{k}"] / n_pass for k in TOKEN_SITES}

    base = {r["op"]: r["run_s"] + r["eval_s"] for r in baseline}
    walls = [(r["wall_s"], base[r["op"]]) for r in traced if r["op"] in base]
    m["trace.overhead_frac"] = ratio(sum(w for w, _ in walls), sum(b for _, b in walls)) - 1.0
    return m
