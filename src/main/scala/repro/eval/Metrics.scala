package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.docs.Naming

/** The paper's metrics (Appendix A).
  *
  *  - **Text F1** (ClosedIE): SQuAD-style token-level F1 over normalized
  *    tokens, exactly as in Rajpurkar et al. [50].
  *  - **Pair F1** (OpenIE): set F1 over (document, attribute, value)
  *    tuples with exact matching and no partial credit; systems are scored
  *    at k = the number of gold attributes for the setting.
  *  - **F1@k** (schema identification): set F1 between the top-k predicted
  *    attribute names and the gold attribute names.
  */
object Metrics {

  /** SQuAD normalization: lowercase, strip punctuation and articles. */
  def normalizeAnswer(s: String): Seq[String] =
    s.toLowerCase
      .replaceAll("[^a-z0-9\\s]", " ")
      .split("\\s+")
      .filter(t => t.nonEmpty && t != "a" && t != "an" && t != "the")
      .toSeq

  /** Token-level F1 between a prediction and a gold answer. Empty-vs-empty
    * scores 1 (both agree there is nothing to extract).
    */
  def textF1(pred: String, gold: String): Double = {
    val p = normalizeAnswer(Option(pred).getOrElse(""))
    val g = normalizeAnswer(Option(gold).getOrElse(""))
    if (p.isEmpty && g.isEmpty) 1.0
    else if (p.isEmpty || g.isEmpty) 0.0
    else {
      val gCounts = g.groupBy(identity).view.mapValues(_.size).toMap
      var overlap = 0
      val seen    = scala.collection.mutable.Map.empty[String, Int]
      p.foreach { t =>
        val used = seen.getOrElse(t, 0)
        if (used < gCounts.getOrElse(t, 0)) { overlap += 1; seen(t) = used + 1 }
      }
      if (overlap == 0) 0.0
      else {
        val prec = overlap.toDouble / p.size
        val rec  = overlap.toDouble / g.size
        2 * prec * rec / (prec + rec)
      }
    }
  }

  final case class Prf(precision: Double, recall: Double, f1: Double)

  private def prf(nMatch: Long, nPred: Long, nGold: Long): Prf = {
    val p  = if (nPred == 0) 0.0 else nMatch.toDouble / nPred
    val r  = if (nGold == 0) 0.0 else nMatch.toDouble / nGold
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f1)
  }

  /** Pair F1 between predicted and gold tuple DataFrames, both with columns
    * (doc_id, attr, value). Attribute names are compared after
    * normalization, values after trimming — exact matches only, no partial
    * credit (Appendix A). Runs as one aggregation (one Spark action, nothing
    * cached) over both sides tagged and unioned; a tuple with a null doc_id or
    * attr counts toward its side but never matches, as under an equi-join.
    */
  def pairF1(pred: DataFrame, gold: DataFrame): Prf = {
    // Internal whitespace is canonicalized on both sides: multi-line values
    // (e.g. RFC-822 continuation headers) are otherwise unmatchable even
    // when every token is extracted correctly.
    def canon(df: DataFrame, isPred: Int): DataFrame =
      df.select(col("doc_id"), Naming.normalizeCol(col("attr")) as "attr",
          trim(regexp_replace(col("value"), "\\s+", " ")) as "value",
          lit(isPred) as "p", lit(1 - isPred) as "g")
        .where(col("value") =!= "")
    val tuples = canon(pred, 1).unionByName(canon(gold, 0))
      .groupBy("doc_id", "attr", "value")
      .agg(max("p") as "p", max("g") as "g")
    val matched = when(col("doc_id").isNotNull && col("attr").isNotNull, col("p") * col("g"))
    val row = tuples.agg(sum(matched), sum("p"), sum("g")).collect()(0)
    def n(i: Int): Long = if (row.isNullAt(i)) 0L else row.getLong(i)
    prf(n(0), n(1), n(2))
  }

  /** ClosedIE Text F1: average token F1 over every (doc, gold attribute)
    * slot where either side has content, value by value (Appendix A).
    */
  def closedTextF1(spark: SparkSession, pred: DataFrame, gold: DataFrame): Double = {
    val attr = Naming.normalizeCol(col("attr")) as "attr"
    val p = pred.select(col("doc_id"), attr, col("value") as "pv").where(col("pv") =!= "")
    val g = gold.select(col("doc_id"), attr, col("value") as "gv")
    val f1Udf  = udf((pv: String, gv: String) => textF1(pv, gv))
    val joined = g.join(p, Seq("doc_id", "attr"), "full_outer")
      .select(f1Udf(coalesce(col("pv"), lit("")), coalesce(col("gv"), lit(""))) as "f1")
    val row = joined.agg(avg(col("f1")) as "m").collect()(0)
    if (row.isNullAt(0)) 0.0 else row.getDouble(0)
  }

  /** Schema F1@k: the top-k predicted attribute names vs. the gold set. */
  def f1AtK(predicted: Seq[String], goldAttrs: Seq[String], k: Int): Double = {
    val p = predicted.take(k).map(Naming.normalize).toSet
    val g = goldAttrs.map(Naming.normalize).toSet
    val m = p.intersect(g).size.toLong
    prf(m, p.size.toLong, g.size.toLong).f1
  }
}
