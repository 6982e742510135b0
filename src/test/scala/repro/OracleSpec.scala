package repro

class OracleSpec extends SparkSpec {

  import spark.implicits._

  private val rows = Seq(("a\u0001b", "c"), ("a", "b\u0001c"))

  test("assertEquivalent ignores row order even where joined columns collide") {
    // Joined with a \u0001 separator both rows read "a\u0001b\u0001c"; the
    // comparison must still sort them the same way on both sides.
    Oracle.assertEquivalent(rows.toDF("x", "y"), "SELECT x, y FROM t ORDER BY x",
      "t" -> rows.reverse.toDF("x", "y"))
  }

  test("assertEquivalent rejects different rows") {
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(rows.toDF("x", "y"), "SELECT x, y FROM t WHERE x = 'a'",
        "t" -> rows.toDF("x", "y"))
    }
  }
}
