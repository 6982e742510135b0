package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{CodeConfig, SchemaSynthesis}
import repro.docs.{DocLake, Naming, Setting}
import repro.fn.{Extractor, Synthesizer}
import repro.llm.{Profile, SimLM}
import repro.ws.Aggregation

/** The traced run's stand-ins for calls whose stages are not public.
  *
  * `code` replays `EvaporateCode.run` (Evaporate-Code+) stage by stage from
  * public functions, in the same order and with the same arguments, so each
  * stage gets its own span. `directLlmPass` repeats Evaporate-Direct's LLM
  * UDF pass alone. The traced run checks both against the real calls'
  * outputs, so the layer numbers never describe a diverged copy.
  */
object Replay {

  final case class CodeOut(table: DataFrame, tuples: Set[Workloads.Tuple], breakdown: Map[String, Long])

  private val tupleSchema = StructType(Seq(
    StructField("doc_id", StringType), StructField("attr", StringType),
    StructField("value", StringType)))

  def code(spark: SparkSession, setting: Setting, docs: DataFrame, profile: Profile, seed: Long,
           k: Int, cfg: CodeConfig, givenSchema: Option[Seq[String]], tr: Tracer,
           op: String): CodeOut = {
    require(!cfg.singleFunction, "the replay covers Evaporate-Code+ only")
    val lm     = SimLM(profile, setting, seed)
    val sample = tr.span("docs.sample", op)(DocLake.sample(setting, cfg.sampleDocs, seed))

    val (schemaRanked, schemaTokens) = givenSchema match {
      case Some(attrs) => (attrs.map(Naming.normalize), 0L)
      case None =>
        val r = tr.span("llm.schema", op)(SchemaSynthesis.synthesize(sample, lm))
        (r.ranked, r.tokens)
    }
    val attrs = if (givenSchema.isDefined) schemaRanked else schemaRanked.take(k)

    var synthTokens = 0L
    var evalTokens  = 0L
    val plan: Seq[(String, Seq[Extractor], Double)] = attrs.map { attr =>
      val spec = setting.attrByName(attr)
      val (cands, t) = tr.span("fn.synth", op)(
        Synthesizer.candidates(spec, attr, sample, cfg.perPrompt, profile, seed, cfg.prompts))
      synthTokens += t
      val labeled = tr.span("llm.label", op)(sample.map(d => lm.closedExtract(d.id, d.text, attr)))
      evalTokens += labeled.map(_._2).sum
      val lmLabels = labeled.map(_._1)
      val (keptIdx, e) = tr.span("ws.select", op) {
        val e           = Aggregation.estimateE(lmLabels)
        val evalOutputs = cands.map(c => sample.map(d => c.extract(d.text)))
        (Aggregation.selectFunctions(evalOutputs, lmLabels, e, cfg.mode)._1, e)
      }
      tr.count(op, "llm.label_calls", sample.size)
      tr.count(op, "fn.candidates", cands.size)
      tr.count(op, "fn.kept", keptIdx.size)
      (attr, keptIdx.map(cands), e)
    }

    val active      = plan.filter(_._2.nonEmpty)
    val activeAttrs = active.map(_._1)
    val activeFns   = active.map(_._2.toIndexedSeq)
    val extractNs   = spark.sparkContext.longAccumulator("perfbench.extract_ns")
    val votesUdf = udf { (text: String) =>
      activeFns.map(fs => fs.map { f =>
        val t0 = System.nanoTime()
        val v  = f.extract(text)
        extractNs.add(System.nanoTime() - t0)
        v
      })
    }
    val collected: Array[Row] = tr.span("fn.votes", op) {
      if (active.isEmpty) Array.empty
      else docs.select(col("doc_id"), votesUdf(col("text")) as "votes").collect()
    }
    val votes = collected.iterator.flatMap(_.getAs[Seq[Seq[String]]]("votes").iterator.flatten).toSeq
    tr.count(op, "fn.extract_calls", votes.size)
    tr.count(op, "fn.extract_ns", extractNs.sum.toDouble)
    tr.count(op, "fn.empty_votes", votes.count(_.isEmpty))
    tr.count(op, "ws.collect_rows", collected.length)

    val eByAttr = active.map { case (a, _, e) => a -> e }.toMap
    val predictions: Seq[(String, String, String)] = tr.span("ws.aggregate", op) {
      activeAttrs.zipWithIndex.flatMap { case (attr, ai) =>
        val rows = collected.toSeq.map { r =>
          (r.getString(0), r.getAs[Seq[Seq[String]]]("votes")(ai).toIndexedSeq)
        }
        Aggregation.aggregate(rows, eByAttr(attr), cfg.mode)
          .collect { case (id, v) if v.trim.nonEmpty => (id, attr, v.trim) }
      }
    }

    var validateTokens = 0L
    val validAttrs: Set[String] = tr.span("llm.validate", op) {
      if (!cfg.validate) activeAttrs.toSet
      else activeAttrs.filter { a =>
        val vals = predictions.collect { case (_, `a`, v) => v }.take(5)
        vals.nonEmpty && {
          val (ok, t) = lm.validateAttr(a, vals)
          validateTokens += t
          ok
        }
      }.toSet
    }

    val finalTuples = predictions.filter { case (_, a, _) => validAttrs.contains(a) }
    val table = tr.span("core.materialize", op) {
      val df = spark.createDataFrame(
        spark.sparkContext.parallelize(finalTuples.map { case (d, a, v) => Row(d, a, v) }, 4),
        tupleSchema)
      df.count()
      df
    }
    CodeOut(table, finalTuples.toSet, Map(
      "schema" -> schemaTokens, "synthesis" -> synthTokens,
      "eval" -> evalTokens, "validate" -> validateTokens))
  }

  /** Evaporate-Direct's LLM pass alone: (summed tokens, LLM calls). With
    * `attrs` it is the ClosedIE pass (one closed-extraction call per
    * document and attribute), otherwise the OpenIE pass.
    */
  def directLlmPass(setting: Setting, docs: DataFrame, profile: Profile, seed: Long,
                    attrs: Option[Seq[String]]): (Long, Long) = {
    val lm = SimLM(profile, setting, seed)
    val tokensUdf = udf { (id: String, text: String) =>
      attrs match {
        case Some(as) => as.map(a => lm.closedExtract(id, text, a)._2).sum
        case None     => lm.openExtract(id, text).tokens
      }
    }
    val row = docs.select(tokensUdf(col("doc_id"), col("text")) as "t")
      .agg(coalesce(sum(col("t")), lit(0L)), count(lit(1))).collect()(0)
    (row.getLong(0), row.getLong(1) * attrs.map(_.size.toLong).getOrElse(1L))
  }
}
