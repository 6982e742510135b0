package repro.docs

import org.apache.spark.sql.functions.col
import repro.SparkSpec

class NamingSpec extends SparkSpec {

  import spark.implicits._

  test("normalizeCol equals normalize on case, punctuation runs, edges and non-ASCII input") {
    val inputs = Seq(
      "510(K) Number", "Mixed CASE Words", "a--b__c!!d...e", "  --leading and trailing!!  ",
      "\tTabs\nand newlines\r", "", "   ",
      // Accented letters, dotted capital I, Kelvin and Angstrom signs, Greek,
      // the "fi" ligature and sharp s.
      "Café Müller", "\u0130stanbul", "\u212Aelvin \u212Bngstr\u00F6m", "ΣΊΣΥΦΟΣ", "\uFB01le ß")
    val got = inputs.toDF("s").select(col("s"), Naming.normalizeCol(col("s"))).collect()
      .map(r => r.getString(0) -> r.getString(1)).toMap
    for (s <- inputs)
      assert(got(s) == Naming.normalize(s), s"input ${s.map(c => f"U+${c.toInt}%04X").mkString(" ")}")
  }

  test("normalizeCol maps a null attribute to null") {
    val row = Seq(Option.empty[String]).toDF("s").select(Naming.normalizeCol(col("s"))).collect()
    assert(row.length == 1 && row(0).isNullAt(0))
  }
}
