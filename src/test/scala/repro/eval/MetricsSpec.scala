package repro.eval

import repro.{Oracle, SparkSpec}

class MetricsSpec extends SparkSpec {

  import Metrics._

  // ---------------------------------------------------------------- Text F1

  test("textF1 exact match is 1") {
    assert(textF1("June 29, 1988", "June 29, 1988") == 1.0)
  }

  test("textF1 is the SQuAD token F1 (normalization: case, punctuation, articles)") {
    assert(textF1("The Quick Fox", "quick fox!") == 1.0)
    assert(textF1("a cat", "cat") == 1.0)
  }

  test("textF1 partial overlap") {
    // pred {june, 29}, gold {june, 29, 1988}: p=1, r=2/3 -> f1=0.8
    assert(math.abs(textF1("June 29", "June 29 1988") - 0.8) < 1e-9)
  }

  test("textF1 no overlap is 0") {
    assert(textF1("alpha beta", "gamma delta") == 0.0)
  }

  test("textF1 empty handling: both empty = 1, one empty = 0") {
    assert(textF1("", "") == 1.0)
    assert(textF1("x", "") == 0.0)
    assert(textF1("", "x") == 0.0)
    assert(textF1(null, null) == 1.0)
  }

  test("textF1 multiset overlap does not double-count tokens") {
    // pred {x}, gold {x, x}: overlap 1, p=1, r=0.5 -> 2/3
    assert(math.abs(textF1("x", "x x") - 2.0 / 3.0) < 1e-9)
  }

  test("textF1 is symmetric in P/R structure") {
    assert(textF1("a b", "a b c") == textF1("a b c", "a b"))
  }

  // ---------------------------------------------------------------- Pair F1

  private def df(rows: Seq[(String, String, String)]) = {
    import spark.implicits._
    rows.toDF("doc_id", "attr", "value")
  }

  test("pairF1 perfect prediction") {
    val g = df(Seq(("d1", "a", "x"), ("d2", "a", "y")))
    val r = pairF1(g, g)
    assert(r.precision == 1.0 && r.recall == 1.0 && r.f1 == 1.0)
  }

  test("pairF1 counts exact tuple matches only — no partial value credit") {
    val gold = df(Seq(("d1", "a", "June 29, 1988")))
    val pred = df(Seq(("d1", "a", "June 29")))
    assert(pairF1(pred, gold).f1 == 0.0)
  }

  test("pairF1 hand-computed precision/recall") {
    val gold = df(Seq(("d1", "a", "x"), ("d1", "b", "y"), ("d2", "a", "z")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "b", "WRONG"), ("d3", "a", "q")))
    val r = pairF1(pred, gold)
    assert(math.abs(r.precision - 1.0 / 3.0) < 1e-9)
    assert(math.abs(r.recall - 1.0 / 3.0) < 1e-9)
    assert(math.abs(r.f1 - 1.0 / 3.0) < 1e-9)
  }

  test("pairF1 normalizes attribute names and value whitespace") {
    val gold = df(Seq(("d1", "510(k) number", "K1\n\t2")))
    val pred = df(Seq(("d1", "510 K NUMBER", "K1 2")))
    assert(pairF1(pred, gold).f1 == 1.0)
  }

  test("pairF1 ignores empty values and duplicates") {
    val gold = df(Seq(("d1", "a", "x")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "a", "x"), ("d1", "b", "")))
    assert(pairF1(pred, gold).f1 == 1.0)
  }

  test("pairF1 empty prediction set") {
    val gold = df(Seq(("d1", "a", "x")))
    val r = pairF1(df(Nil), gold)
    assert(r.precision == 0.0 && r.recall == 0.0 && r.f1 == 0.0)
  }

  test("oracle: pair-match counting agrees with DuckDB") {
    // Duplicates, whitespace and attribute-spelling variants, empty values,
    // and null keys on both sides (counted per side, never matched).
    val gold = df(Seq(
      ("d1", "510(k) Number", "K1\n\t2"), ("d1", "510 k number", "K1 2"),
      ("d1", "Applicant", "  Acme  Corp "), ("d2", "applicant", "Beta"), ("d2", "date", ""),
      ("d3", "date", "June 29"), (null, "date", "x"), ("d4", null, "y")))
    val pred = df(Seq(
      ("d1", "510_K-NUMBER", "K1 2"), ("d1", "510 k number", "K1 2"),
      ("d1", "applicant", "Acme Corp"), ("d2", "Applicant!", "Beta Inc"), ("d2", "date", "  "),
      ("d3", "Date", "June  29"), ("d3", "date", "June 29"), (null, "date", "x"), ("d4", null, "y")))
    val canon =
      """SELECT DISTINCT doc_id, trim(regexp_replace(lower(attr), '[^a-z0-9]+', ' ', 'g')) AS attr,
        |       trim(regexp_replace(value, '\s+', ' ', 'g')) AS value""".stripMargin
    val (_, Seq(row)) = Oracle.query(
      s"""WITH p AS (SELECT * FROM ($canon FROM pred) WHERE value <> ''),
         |     g AS (SELECT * FROM ($canon FROM gold) WHERE value <> '')
         |SELECT (SELECT count(*) FROM p JOIN g USING (doc_id, attr, value)) AS n_match,
         |       (SELECT count(*) FROM p) AS n_pred, (SELECT count(*) FROM g) AS n_gold""".stripMargin,
      "pred" -> pred, "gold" -> gold)
    val Seq(m, np, ng) = (0 to 2).map(i => row.get(i).asInstanceOf[Number].longValue)
    assert((m, np, ng) == ((3L, 6L, 6L)))
    val r = pairF1(pred, gold)
    assert(r.precision == m.toDouble / np)
    assert(r.recall == m.toDouble / ng)
  }

  // -------------------------------------------------------------- ClosedIE

  test("closedTextF1 averages per-slot token F1") {
    val gold = df(Seq(("d1", "a", "x y"), ("d1", "b", "z")))
    val pred = df(Seq(("d1", "a", "x y"), ("d1", "b", "WRONG")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 penalizes unpredicted gold slots") {
    val gold = df(Seq(("d1", "a", "x"), ("d1", "b", "y")))
    val pred = df(Seq(("d1", "a", "x")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 penalizes spurious predictions on empty gold slots") {
    val gold = df(Seq(("d1", "a", "x")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "b", "spurious")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 on empty inputs is 0") {
    assert(closedTextF1(spark, df(Nil), df(Nil)) == 0.0)
  }

  // ----------------------------------------------------------------- F1@k

  test("f1AtK perfect schema") {
    assert(f1AtK(Seq("a", "b"), Seq("a", "b"), 2) == 1.0)
  }

  test("f1AtK truncates predictions at k") {
    // top-2 of predictions = {a, x}; gold {a, b}: p=0.5, r=0.5
    assert(f1AtK(Seq("a", "x", "b"), Seq("a", "b"), 2) == 0.5)
  }

  test("f1AtK normalizes names") {
    assert(f1AtK(Seq("510(K) Number"), Seq("510 k number"), 1) == 1.0)
  }

  test("f1AtK empty prediction is 0") {
    assert(f1AtK(Nil, Seq("a"), 3) == 0.0)
  }
}
