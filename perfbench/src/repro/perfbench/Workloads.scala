package repro.perfbench

import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.Oracle
import repro.core.{CodeConfig, EvaporateCode, EvaporateDirect, StructuredView}
import repro.docs.{Corpora, Naming, Setting}
import repro.eval.{Harness, Metrics}
import repro.llm.Profile
import repro.ws.Aggregation

/** One public system call the benchmark times. */
sealed trait Call { def open: Boolean; def code: Boolean }
object Call {
  final case class CodeOpen(mode: Aggregation.Mode) extends Call { val open = true; val code = true }
  case object CodeClosed extends Call { val open = false; val code = true }
  case object DirectOpen extends Call { val open = true; val code = false }
  case object DirectClosed extends Call { val open = false; val code = false }
}

/** One op: a system call on one lake, followed by its metric.
  *
  * @param sample when set, the call sees only the lake's first `sample`
  *               documents and is scored against their gold tuples (the
  *               paper's 10-document Direct protocol)
  */
final case class Op(id: String, lake: String, call: Call, sample: Option[Int] = None)

final case class Workload(name: String, lakes: Seq[(String, Int)], ops: Seq[Op])

/** A rendered, cached lake: documents plus gold tuples. */
final case class Lake(setting: Setting, nDocs: Int, docs: DataFrame, gold: DataFrame)

/** Output of one op, before checking. */
final case class Outcome(view: StructuredView, runS: Double, evalS: Double, metric: Seq[Double])

object Workloads {

  /** Four document shapes: long TXT, short TXT, long nested HTML, SWDE HTML. */
  val Shapes: Seq[String] = Seq("fda", "enron", "wiki-nba", "swde-movie-imdb")
  val LakeDocs: Int       = 500

  /** Three of the shapes (TXT, Wiki HTML, SWDE HTML) at the paper tables'
    * scale: 100-doc lakes and a 10-doc Direct sample. All 16 settings would
    * make one pass about 40 s, longer than a run can afford.
    */
  val SweepSettings: Seq[String] = Seq("fda", "wiki-nba", "swde-movie-imdb")
  val SweepDocs: Int   = 100
  val SweepSample: Int = 10

  /** The system's own settings: the paper's default LLM and the seed the
    * paper tables use. The workload seed only generates the lakes; the
    * program receives the lakes and nothing derived from that seed. (Code+
    * regenerates its 10-document sample from (setting, seed) rather than
    * reading it from the lake, so for workload seeds other than 42 the
    * sample comes from the seed-42 corpus of the same setting.)
    */
  val Profile0: Profile = Profile.davinci
  val SystemSeed: Long  = 42L

  import Call._

  val all: Seq[Workload] = Seq(
    Workload("codeplus-lake", Shapes.map(_ -> LakeDocs), Shapes.flatMap(s => Seq(
      Op(s"code-open/$s", s, CodeOpen(Aggregation.WsFull)),
      Op(s"code-closed/$s", s, CodeClosed)))),
    Workload("direct-lake", Shapes.map(_ -> LakeDocs), Shapes.flatMap(s => Seq(
      Op(s"direct-open/$s", s, DirectOpen),
      Op(s"direct-closed/$s", s, DirectClosed)))),
    Workload("table-sweep", SweepSettings.map(_ -> SweepDocs), SweepSettings.flatMap(s => Seq(
      Op(s"code-ws/$s", s, CodeOpen(Aggregation.WsFull)),
      Op(s"code-mv/$s", s, CodeOpen(Aggregation.MajorityVote)),
      Op(s"direct-10/$s", s, DirectOpen, Some(SweepSample))))),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"))

  // ---------------------------------------------------------------- lakes --

  def loadLakes(spark: SparkSession, w: Workload, seed: Long): Map[String, Lake] =
    w.lakes.map { case (name, n) =>
      val s            = Corpora.byName(name)
      val (docs, gold) = Harness.lake(spark, s, n, seed)
      name -> Lake(s, n, docs, gold)
    }.toMap

  def dropLakes(lakes: Map[String, Lake]): Unit =
    lakes.values.foreach { l => l.docs.unpersist(true); l.gold.unpersist(true) }

  /** Documents and gold the op sees, and how many documents it structures. */
  def inputs(op: Op, lake: Lake): (DataFrame, DataFrame, Int) = op.sample match {
    case Some(n) =>
      val ids = Harness.sampleIds(lake.setting, n)
      (Harness.restrict(lake.docs, ids), Harness.restrict(lake.gold, ids), n)
    case None => (lake.docs, lake.gold, lake.nDocs)
  }

  // ------------------------------------------------------------ execution --

  def call(spark: SparkSession, op: Op, s: Setting, docs: DataFrame): StructuredView =
    op.call match {
      case CodeOpen(mode) =>
        EvaporateCode.run(spark, s, docs, Profile0, SystemSeed, s.goldAttrs.size, CodeConfig(mode = mode))
      case CodeClosed =>
        EvaporateCode.run(spark, s, docs, Profile0, SystemSeed, s.goldAttrs.size,
          givenSchema = Some(s.goldAttrs))
      case DirectOpen   => EvaporateDirect.run(spark, s, docs, Profile0, SystemSeed, s.goldAttrs.size)
      case DirectClosed => EvaporateDirect.runClosed(spark, s, docs, Profile0, SystemSeed, s.goldAttrs)
    }

  /** Pair F1 (precision, recall, f1) for OpenIE ops, Text F1 for ClosedIE. */
  def evaluate(spark: SparkSession, op: Op, table: DataFrame, gold: DataFrame): Seq[Double] =
    if (op.call.open) {
      val p = Metrics.pairF1(table, gold)
      Seq(p.precision, p.recall, p.f1)
    } else Seq(Metrics.closedTextF1(spark, table, gold))

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Times the call up to its materialised table (`run_s`), then its metric. */
  def execute(spark: SparkSession, op: Op, lake: Lake): Outcome = {
    val (docs, gold, _) = inputs(op, lake)
    val t0     = System.nanoTime()
    val view   = call(spark, op, lake.setting, docs)
    view.table.count()
    val runS   = seconds(t0)
    val t1     = System.nanoTime()
    val metric = evaluate(spark, op, view.table, gold)
    Outcome(view, runS, seconds(t1), metric)
  }

  // --------------------------------------------------------- correctness --

  type Tuple = (String, String, String)

  def collectTuples(table: DataFrame): Array[Tuple] =
    table.select("doc_id", "attr", "value").collect()
      .map(r => (r.getString(0), r.getString(1), r.getString(2)))

  /** Order-independent 64-bit hash of a tuple multiset: the wrapping sum of
    * one 64-bit hash per tuple.
    */
  def tupleHash(rows: Array[Tuple]): Long = rows.iterator.map { case (d, a, v) =>
    val key = s"$d\u0001$a\u0001$v"
    (MurmurHash3.stringHash(key, 1).toLong << 32) | (MurmurHash3.stringHash(key, 2) & 0xffffffffL)
  }.sum

  final case class PairCounts(nMatch: Long, nPred: Long, nGold: Long)

  /** Pair-F1 counts, with `Metrics.pairF1`'s canonical form: normalised
    * attribute, whitespace runs collapsed, spaces trimmed, empties dropped.
    */
  def pairCounts(pred: Array[Tuple], gold: Array[Tuple]): PairCounts = {
    def canon(rows: Array[Tuple]): Set[Tuple] = rows.iterator.collect {
      case (d, a, v) if v != null =>
        (d, Naming.normalize(a), v.replaceAll("\\s+", " ").replaceAll("^ +| +$", ""))
    }.filter(_._3.nonEmpty).toSet
    val p = canon(pred)
    val g = canon(gold)
    PairCounts(p.count(g.contains).toLong, p.size.toLong, g.size.toLong)
  }

  /** Every op's pair-F1 counts, recomputed by DuckDB from the raw tuples. */
  private val DuckPairSql =
    """WITH p AS (SELECT DISTINCT op, doc_id,
      |                  trim(regexp_replace(lower(attr), '[^a-z0-9]+', ' ', 'g')) AS attr,
      |                  trim(regexp_replace(value, '\s+', ' ', 'g')) AS value FROM pred),
      |     g AS (SELECT DISTINCT op, doc_id,
      |                  trim(regexp_replace(lower(attr), '[^a-z0-9]+', ' ', 'g')) AS attr,
      |                  trim(regexp_replace(value, '\s+', ' ', 'g')) AS value FROM gold),
      |     p2 AS (SELECT * FROM p WHERE value <> ''),
      |     g2 AS (SELECT * FROM g WHERE value <> ''),
      |     m AS (SELECT op, count(*) AS n FROM p2 JOIN g2 USING (op, doc_id, attr, value) GROUP BY op),
      |     np AS (SELECT op, count(*) AS n FROM p2 GROUP BY op),
      |     ng AS (SELECT op, count(*) AS n FROM g2 GROUP BY op)
      |SELECT ops.op AS op, coalesce(m.n, 0) AS n_match, coalesce(np.n, 0) AS n_pred,
      |       coalesce(ng.n, 0) AS n_gold
      |FROM ops LEFT JOIN m USING (op) LEFT JOIN np USING (op) LEFT JOIN ng USING (op)""".stripMargin

  /** One op's pair-F1 counts and the tuples they were computed from. */
  final case class PairCheck(op: String, counts: PairCounts, pred: Array[Tuple], gold: Array[Tuple])

  /** Cross-checks the pair-F1 counts of every op against DuckDB in one
    * session; throws on any disagreement.
    */
  def duckCheck(spark: SparkSession, checks: Seq[PairCheck]): Unit =
    if (checks.nonEmpty) {
      def strings(cols: String*) = StructType(cols.map(StructField(_, StringType)))
      def tuples(pick: PairCheck => Array[Tuple]) =
        spark.createDataFrame(checks.flatMap { c =>
          pick(c).toSeq.map { case (d, a, v) => Row(c.op, d, a, v) }
        }.asJava, strings("op", "doc_id", "attr", "value"))
      val counts = spark.createDataFrame(checks.map { c =>
        Row(c.op, c.counts.nMatch, c.counts.nPred, c.counts.nGold)
      }.asJava, StructType(StructField("op", StringType) +:
        Seq("n_match", "n_pred", "n_gold").map(StructField(_, LongType))))
      Oracle.assertEquivalent(counts, DuckPairSql,
        "ops" -> spark.createDataFrame(checks.map(c => Row(c.op)).asJava, strings("op")),
        "pred" -> tuples(_.pred), "gold" -> tuples(_.gold))
    }

  /** `Metrics.pairF1`'s precision/recall/F1 from counts, same arithmetic. */
  def prfOf(c: PairCounts): Seq[Double] = {
    val p  = if (c.nPred == 0) 0.0 else c.nMatch.toDouble / c.nPred
    val r  = if (c.nGold == 0) 0.0 else c.nMatch.toDouble / c.nGold
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Seq(p, r, f1)
  }
}
