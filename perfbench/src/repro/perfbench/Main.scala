package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.functions._
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}
import repro.core.CodeConfig
import repro.eval.Harness
import repro.jobs.JobSession

/** Benchmark JVM: sets up one workload, then times whole passes of its ops
  * in a closed loop (one client thread, one op at a time) and writes every
  * raw sample to `--out` as JSON. `perfbench/run.py` builds this program,
  * runs it and turns the samples into metrics.
  *
  * Pass 0 is the warm-up and the verification pass: after each op, its
  * output is fingerprinted, and once the pass ends the pair-F1 counts of
  * every OpenIE op are cross-checked against DuckDB (`OracleDocs`). The
  * timed passes after it must reproduce pass 0's fingerprints. With
  * `--trace 1`, one untimed pass is followed by traced passes (see
  * `Replay`), which must reproduce pass 0 too.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out FILE
  */
object Main {

  /** Lake set-ups per run; `setup_s` takes their median. */
  val SetupReps: Int = 3

  /** Documents per OpenIE op whose pair-F1 counts DuckDB recomputes.
    * `Oracle` inserts row by row (a few thousand rows per second), so whole
    * lakes would add about 10 s to a run; the counts over the whole table
    * are checked against `Metrics.pairF1`'s precision and recall instead.
    */
  val OracleDocs: Int = 20

  private def obj(kv: (String, JValue)*): JObject = JObject(kv.toList)
  private def arr(xs: Iterable[JValue]): JArray  = JArray(xs.toList)
  private def num(x: Double): JValue             = JDouble(x)
  private def secs(t0: Long): Double             = (System.nanoTime() - t0) / 1e9

  private def heapAfterGcMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def fingerprint(tokens: Map[String, Long], rows: Array[Workloads.Tuple],
                          metric: Seq[Double]): JObject =
    obj("tokens" -> obj(tokens.toSeq.sorted.map { case (k, v) => k -> (JLong(v): JValue) }: _*),
      "tuples" -> JLong(rows.length.toLong), "tuple_hash" -> JLong(Workloads.tupleHash(rows)),
      "metric" -> arr(metric.map(num)))

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    def arg(k: String) = args.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w       = Workloads.byName(arg("workload"))
    val seed    = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val traced  = arg("trace") == "1"
    val out     = Paths.get(arg("out"))

    val spark    = JobSession.spark("perfbench")
    val sessionS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    val sc       = spark.sparkContext
    val listener = new SparkCounters
    if (traced) sc.addSparkListener(listener)
    val tr = new Tracer

    // -- set-up: render and cache the lakes, several times --------------------
    var lakes: Map[String, Lake] = Map.empty
    val renderS = (0 until SetupReps).map { i =>
      if (i > 0) Workloads.dropLakes(lakes)
      val t0 = System.nanoTime()
      lakes = Workloads.loadLakes(spark, w, seed)
      secs(t0)
    }
    val docsChars =
      if (!traced) 0L
      else lakes.values.toSeq.map(_.docs.agg(sum(length(col("text")))).collect()(0).getLong(0)).sum
    Console.err.println(f"[perfbench] session $sessionS%.1f s, lake set-ups " +
      renderS.map(x => f"$x%.2f").mkString(", ") + " s")

    // -- timed passes ---------------------------------------------------------
    val records      = mutable.ArrayBuffer.empty[JValue]
    val replayErrors = mutable.ArrayBuffer.empty[String]
    val groups       = mutable.ArrayBuffer.empty[String]
    val refTokens    = mutable.Map.empty[String, Map[String, Long]]
    val refSets      = mutable.Map.empty[String, Set[Workloads.Tuple]]
    val duckInputs   = mutable.ArrayBuffer.empty[Workloads.PairCheck]
    val checkErrors  = mutable.Map.empty[String, String]

    def failed(pass: Int, op: Op, n: Int, traced: Boolean, e: Throwable): JValue =
      obj("pass" -> JInt(pass), "op" -> JString(op.id), "traced" -> JBool(traced), "docs" -> JInt(n),
        "error" -> JString(e.toString))

    def untracedOp(pass: Int, op: Op): JValue = {
      val lake = lakes(op.lake)
      val (_, gold, n) = Workloads.inputs(op, lake)
      try {
        val o    = Workloads.execute(spark, op, lake)
        val rows = Workloads.collectTuples(o.view.table)
        val fp   = fingerprint(o.view.tokenBreakdown, rows, o.metric)
        val heap: JValue = if (pass == 1) num(heapAfterGcMb()) else JNull
        val pair: JValue =
          if (pass > 0 || !op.call.open) JNull
          else {
            val goldRows = Workloads.collectTuples(gold)
            val c        = Workloads.pairCounts(rows, goldRows)
            val ids      = Harness.sampleIds(lake.setting, OracleDocs).toSet
            val (p, g)   = (rows.filter(t => ids(t._1)), goldRows.filter(t => ids(t._1)))
            duckInputs += Workloads.PairCheck(op.id, Workloads.pairCounts(p, g), p, g)
            if (Workloads.prfOf(c) != o.metric)
              checkErrors(op.id) = s"pair counts $c do not give Metrics.pairF1 ${o.metric}"
            obj("match" -> JLong(c.nMatch), "pred" -> JLong(c.nPred), "gold" -> JLong(c.nGold))
          }
        if (pass == 0) {
          refTokens(op.id) = o.view.tokenBreakdown
          if (traced && op.call.code) refSets(op.id) = rows.toSet
        }
        if (!op.call.code) o.view.table.unpersist(true)
        obj("pass" -> JInt(pass), "op" -> JString(op.id), "traced" -> JBool(false), "docs" -> JInt(n),
          "run_s" -> num(o.runS), "eval_s" -> num(o.evalS), "heap_mb" -> heap, "fp" -> fp,
          "pair" -> pair, "error" -> JNull)
      } catch { case NonFatal(e) => failed(pass, op, n, traced = false, e) }
    }

    def tracedOp(pass: Int, op: Op): JValue = {
      val lake            = lakes(op.lake)
      val (docs, gold, n) = Workloads.inputs(op, lake)
      val key             = s"p$pass/${op.id}"
      val s               = lake.setting
      groups += key
      try {
        val t0 = System.nanoTime()
        val (table, tokens, runS) =
          if (op.call.code) {
            sc.setJobGroup(key, key)
            val cfg = op.call match {
              case Call.CodeOpen(mode) => CodeConfig(mode = mode)
              case _                   => CodeConfig()
            }
            val schema = if (op.call.open) None else Some(s.goldAttrs)
            val t1     = System.nanoTime()
            val r = tr.span("core.code_run", key)(
              Replay.code(spark, s, docs, Workloads.Profile0, Workloads.SystemSeed, s.goldAttrs.size, cfg, schema,
                tr, key))
            val runS = secs(t1)
            if (!refTokens.get(op.id).contains(r.breakdown))
              replayErrors += s"$key: replay token ledger ${r.breakdown} != EvaporateCode.run ${refTokens.get(op.id)}"
            if (!refSets.get(op.id).contains(r.tuples))
              replayErrors += s"$key: replay tuple set (${r.tuples.size}) differs from EvaporateCode.run (${refSets.get(op.id).map(_.size)})"
            (r.table, r.breakdown, runS)
          } else {
            // The replayed LLM pass runs outside the op's job group, so the
            // spark.* counters describe the real call alone.
            sc.setJobGroup("perfbench-aux", "direct LLM pass replay")
            val attrs = if (op.call.open) None else Some(s.goldAttrs)
            val span  = if (op.call.open) "llm.open_extract" else "llm.closed_extract"
            val (llmTokens, calls) =
              tr.span(span, key)(Replay.directLlmPass(s, docs, Workloads.Profile0, Workloads.SystemSeed, attrs))
            tr.count(key, s"${span}_calls", calls.toDouble)
            sc.setJobGroup(key, key)
            val t1 = System.nanoTime()
            val view = tr.span("core.direct_run", key) {
              val v = Workloads.call(spark, op, s, docs)
              v.table.count()
              v
            }
            val runS = secs(t1)
            if (llmTokens != view.tokens)
              replayErrors += s"$key: Direct LLM pass tokens $llmTokens != view.tokens ${view.tokens}"
            (view.table, view.tokenBreakdown, runS)
          }
        val t2     = System.nanoTime()
        val metric = tr.span(if (op.call.open) "eval.pair_f1" else "eval.closed_f1", key)(
          Workloads.evaluate(spark, op, table, gold))
        val evalS = secs(t2)
        val wallS = secs(t0)
        sc.setJobGroup("perfbench-check", "fingerprint")
        tokens.foreach { case (k, v) => tr.count(key, s"llm.tokens.$k", v.toDouble) }
        val fp = fingerprint(tokens, Workloads.collectTuples(table), metric)
        if (!op.call.code) table.unpersist(true)
        sc.clearJobGroup()
        obj("pass" -> JInt(pass), "op" -> JString(op.id), "key" -> JString(key), "traced" -> JBool(true),
          "docs" -> JInt(n), "run_s" -> num(runS), "eval_s" -> num(evalS), "wall_s" -> num(wallS),
          "fp" -> fp, "error" -> JNull)
      } catch {
        case NonFatal(e) =>
          sc.clearJobGroup()
          failed(pass, op, n, traced = true, e)
      }
    }

    val verifyStart = System.nanoTime()
    w.ops.foreach(op => records += untracedOp(0, op))
    try Workloads.duckCheck(spark, duckInputs.toSeq)
    catch {
      case NonFatal(e) =>
        duckInputs.foreach(c => checkErrors.getOrElseUpdate(c.op, s"DuckDB cross-check: ${e.getMessage}"))
    }
    Console.err.println(f"[perfbench] verification pass ${secs(verifyStart)}%.1f s")
    // Leave nothing of the checks on the heap the first timed op is measured on.
    duckInputs.clear()
    System.gc()
    System.runFinalization()

    val timedStart = System.nanoTime()
    var pass       = 1
    if (!traced) {
      while (pass == 1 || secs(timedStart) < seconds) {
        w.ops.foreach(op => records += untracedOp(pass, op))
        pass += 1
      }
    } else {
      // Pass 1 is the untraced baseline the tracing overhead is taken from.
      w.ops.foreach(op => records += untracedOp(pass, op))
      pass += 1
      val tracedStart = System.nanoTime()
      while (pass == 2 || secs(tracedStart) < seconds) {
        w.ops.foreach(op => records += tracedOp(pass, op))
        pass += 1
      }
      listener.drain(sc, groups.toSeq)
    }
    Console.err.println(f"[perfbench] ${pass - 1} passes in ${secs(timedStart)}%.1f s")

    // -- write the raw samples ------------------------------------------------
    val volatileConf = Set("spark.app.id", "spark.app.startTime", "spark.app.submitTime",
      "spark.driver.port", "spark.driver.host", "spark.executor.id")
    val conf = sc.getConf.getAll.toSeq.sorted.filterNot { case (k, _) => volatileConf(k) }
    val config = obj(
      "spark_version" -> JString(spark.version),
      "master" -> JString(sc.master),
      "shuffle_partitions" -> JString(spark.conf.get("spark.sql.shuffle.partitions")),
      "default_parallelism" -> JInt(sc.defaultParallelism),
      "jvm_cores" -> JInt(Runtime.getRuntime.availableProcessors),
      "heap_max_mb" -> num(Runtime.getRuntime.maxMemory / 1048576.0),
      "java_version" -> JString(System.getProperty("java.version")),
      "spark_conf" -> obj(conf.map { case (k, v) => k -> (JString(v): JValue) }: _*))
    val trace: JValue =
      if (!traced) JNull
      else obj(
        "docs_chars" -> JLong(docsChars),
        "spans" -> arr(tr.spans.map(sp => obj("id" -> JInt(sp.id), "name" -> JString(sp.name),
          "start_ns" -> JLong(sp.startNs), "end_ns" -> JLong(sp.endNs), "parent" -> JInt(sp.parent),
          "op" -> JString(sp.op)))),
        "counters" -> arr(tr.counters.map { case ((op, name), v) =>
          obj("op" -> JString(op), "name" -> JString(name), "value" -> num(v)) }),
        "jobs" -> arr(listener.jobs.asScala.map { case (g, id) => obj("op" -> JString(g), "job" -> JInt(id)) }),
        "stages" -> arr(listener.stages.asScala.map { case (g, id) => obj("op" -> JString(g), "stage" -> JInt(id)) }),
        "tasks" -> arr(listener.tasks.asScala.map(t => obj("op" -> JString(t.group), "stage" -> JInt(t.stage),
          "launch_ms" -> JLong(t.launchMs), "finish_ms" -> JLong(t.finishMs), "run_ms" -> JLong(t.runMs),
          "gc_ms" -> JLong(t.gcMs), "shuffle_write_bytes" -> JLong(t.shuffleWriteBytes),
          "shuffle_read_bytes" -> JLong(t.shuffleReadBytes)))),
        "replay_errors" -> arr(replayErrors.map(JString(_))))
    val result = obj(
      "workload" -> JString(w.name), "seed" -> JLong(seed), "trace" -> JBool(traced),
      "config" -> config,
      "setup" -> obj("session_s" -> num(sessionS), "render_s" -> arr(renderS.map(num))),
      "check_errors" -> obj(checkErrors.toSeq.sorted.map { case (k, v) => k -> (JString(v): JValue) }: _*),
      "ops" -> arr(records), "trace_data" -> trace)
    Files.write(out, compact(render(result)).getBytes(StandardCharsets.UTF_8))
    replayErrors.foreach(e => Console.err.println(s"[perfbench] REPLAY MISMATCH $e"))
    spark.stop()
  }
}
