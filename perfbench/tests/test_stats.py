"""Tests of the benchmark's statistics. Run from the repo root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


def fp(tokens=None, tuples=3, tuple_hash=7, metric=(0.5, 0.5, 0.5)):
    return {"tokens": tokens or {"schema": 10, "synthesis": 20}, "tuples": tuples,
            "tuple_hash": tuple_hash, "metric": list(metric)}


def op(pass_, name, traced=False, **kw):
    rec = {"pass": pass_, "op": name, "traced": traced, "docs": 100, "run_s": 1.0,
           "eval_s": 0.5, "heap_mb": 100.0, "fp": fp(), "error": None}
    rec.update(kw)
    return rec


class TailTest(unittest.TestCase):

    def test_ten_or_fewer_samples_give_the_maximum_with_none_beyond(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail(list(range(10))), (9, 100.0, 0))

    def test_eleven_samples_give_the_smallest_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(11))), (0, 100.0 / 11, 10))

    def test_hundred_samples_give_p90_with_ten_beyond(self):
        value, pct, beyond = stats.tail(list(range(100, 0, -1)))
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class FailureCountTest(unittest.TestCase):

    def test_matching_passes_do_not_fail(self):
        ops = [op(0, "a"), op(0, "b"), op(1, "a"), op(1, "b")]
        self.assertEqual(stats.count_failures(ops), (4, 0, []))

    def test_forced_fingerprint_mismatch_fails_that_op_only(self):
        ops = [op(0, "a"), op(0, "b"), op(1, "a", fp=fp(tuple_hash=8)), op(1, "b")]
        attempted, failed, problems = stats.count_failures(ops)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertIn("pass 1 a: tuple set differs", problems[0])

    def test_token_ledger_change_fails(self):
        ops = [op(0, "a"), op(1, "a", fp=fp(tokens={"schema": 10, "synthesis": 21}))]
        self.assertEqual(stats.count_failures(ops)[1], 1)

    def test_empty_table_where_reference_has_rows_fails(self):
        ops = [op(0, "a"), op(1, "a", fp=fp(tuples=0))]
        _, failed, problems = stats.count_failures(ops)
        self.assertEqual(failed, 1)
        self.assertIn("empty table", problems[0])

    def test_metric_within_tolerance_passes_and_beyond_fails(self):
        close = fp(metric=(0.5, 0.5, 0.5 + 1e-12))
        far = fp(metric=(0.5, 0.5, 0.51))
        self.assertEqual(stats.count_failures([op(0, "a"), op(1, "a", fp=close)])[1], 0)
        self.assertEqual(stats.count_failures([op(0, "a"), op(1, "a", fp=far)])[1], 1)

    def test_exception_fails(self):
        ops = [op(0, "a"), op(1, "a", error="java.lang.RuntimeException: boom")]
        self.assertEqual(stats.count_failures(ops)[1], 1)

    def test_bad_reference_fails_every_instance_of_the_op(self):
        ops = [op(0, "a"), op(1, "a"), op(2, "a"), op(0, "b"), op(1, "b")]
        attempted, failed, problems = stats.count_failures(
            ops, check_errors={"a": "DuckDB cross-check: mismatch"})
        self.assertEqual((attempted, failed), (5, 3))
        self.assertTrue(all("DuckDB" in p for p in problems))

    def test_committed_reference_mismatch_fails(self):
        committed = {"a": {"fp": fp(tuple_hash=9), "pair": None}}
        ops = [op(0, "a", pair=None), op(1, "a")]
        _, failed, problems = stats.count_failures(ops, committed=committed)
        self.assertEqual(failed, 2)
        self.assertIn("committed reference", problems[0])

    def test_committed_pair_counts_are_compared(self):
        pair = {"match": 1, "pred": 2, "gold": 3}
        committed = {"a": {"fp": fp(), "pair": pair}}
        ok = [op(0, "a", pair=pair)]
        bad = [op(0, "a", pair={"match": 1, "pred": 2, "gold": 4})]
        self.assertEqual(stats.count_failures(ok, committed=committed)[1], 0)
        self.assertEqual(stats.count_failures(bad, committed=committed)[1], 1)

    def test_diverged_replay_fails_the_traced_op(self):
        ops = [op(0, "a"), op(1, "a"), op(2, "a", traced=True, key="p2/a")]
        _, failed, problems = stats.count_failures(
            ops, replay_errors=["p2/a: replay token ledger {} != Some({})"])
        self.assertEqual(failed, 1)
        self.assertIn("p2/a: replay token ledger", problems[-1])


class CoreUtilTest(unittest.TestCase):

    def test_synthetic_listener_trace(self):
        tasks = [
            # op p1/a: 4 tasks of 1 s on 4 slots during a 2 s op -> 4 / 8
            *({"op": "p1/a", "launch_ms": 1000 * i, "finish_ms": 1000 * i + 1000} for i in range(4)),
            # op p1/b: one 0.5 s task during a 2 s op
            {"op": "p1/b", "launch_ms": 0, "finish_ms": 500},
            # tasks of other job groups are ignored
            {"op": "perfbench-aux", "launch_ms": 0, "finish_ms": 60000},
        ]
        util = stats.core_util(tasks, {"p1/a": 2.0, "p1/b": 2.0}, slots=4)
        self.assertAlmostEqual(util, 4.5 / (4 * 4.0))

    def test_no_wall_time_gives_zero(self):
        self.assertEqual(stats.core_util([], {}, slots=4), 0.0)


class EndToEndTest(unittest.TestCase):

    def raw(self, ops):
        return {"setup": {"session_s": 2.0, "render_s": [5.0, 1.0, 1.5]}, "ops": ops}

    def test_pass_zero_is_set_up_and_ops_take_their_median_over_passes(self):
        ops = [op(0, "a", run_s=9.0, eval_s=1.0), op(0, "b", run_s=9.0, eval_s=1.0),
               op(1, "a", run_s=1.0, eval_s=0.2, heap_mb=90.0),
               op(2, "a", run_s=3.0, eval_s=0.4, heap_mb=95.0),
               op(3, "a", run_s=2.0, eval_s=0.3, heap_mb=80.0),
               op(1, "b", run_s=4.0, eval_s=0.1), op(2, "b", run_s=4.0, eval_s=0.1),
               op(3, "b", run_s=4.0, eval_s=0.1)]
        values, counts = stats.end_to_end(self.raw(ops))
        self.assertAlmostEqual(values["setup_s"], 2.0 + 1.5 + 20.0)
        self.assertAlmostEqual(values["run_s.p50"], 3.0)   # median of per-op 2.0 and 4.0
        self.assertAlmostEqual(values["run_s.tail"], 4.0)  # two ops: the maximum
        self.assertAlmostEqual(values["eval_s.p50"], 0.2)  # median of 0.3 and 0.1
        self.assertAlmostEqual(values["pass_s"], 6.4)      # passes 5.3, 7.5, 6.4
        self.assertAlmostEqual(values["docs_per_s"], 600 / 18.0)
        self.assertEqual(values["driver_heap_mb"], 100.0)
        self.assertEqual(counts["run_s.p50"], "2 ops x 3 passes")

    def test_failed_ops_are_left_out_of_timings(self):
        ops = [op(0, "a"), op(1, "a", run_s=2.0), op(1, "b", error="boom", run_s=None)]
        values, _ = stats.end_to_end(self.raw(ops))
        self.assertEqual(values["run_s.p50"], 2.0)

    def test_every_end_to_end_metric_is_positive(self):
        values, _ = stats.end_to_end(self.raw([op(0, "a"), op(1, "a")]))
        self.assertEqual(set(values), set(stats.END_TO_END) | set(stats.NOT_GATED))
        self.assertTrue(all(v > 0 for v in values.values()))


class BenchmarkFileTest(unittest.TestCase):

    def test_gated_metrics_are_the_ones_benchmark_json_lists(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, stats.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, stats.PER_LAYER)
        self.assertFalse(set(stats.NOT_GATED) & set(stats.END_TO_END))


if __name__ == "__main__":
    unittest.main()
