package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, when}

/** [[Oracle]] passes a result equal to DuckDB's whatever its Spark column
  * types, and throws on each way a join can go wrong.
  */
class OracleSpec extends SparkSpec {

  // INT keys on one side, BIGINT on the other; a DATE, a NULL and doubles.
  private lazy val a = spark.sql(
    "SELECT * FROM VALUES (1, DATE'2020-02-29', 'x', 1.5D), (2, DATE'1970-01-01', NULL, -0.125D), " +
      "(3, DATE'1999-12-31', 'z', 1e-7D) AS a(k, d, s, x)")
  private lazy val b = spark.sql("SELECT * FROM VALUES (1L, 10.25D), (2L, 20.5D), (2L, 21D), (4L, 4D) AS b(bk, y)")
  private lazy val joined = a.join(b, col("k") === col("bk"))

  private def check(df: DataFrame): Unit =
    Oracle.assertEquivalent(df, "SELECT a.*, b.* FROM a JOIN b ON a.k = b.bk", "a" -> a, "b" -> b)

  test("an equal result passes: INT vs BIGINT keys, a DATE, a NULL and a double") {
    check(joined)
  }

  private val oneRow = col("y") === 21
  for ((label, wrong) <- Seq[(String, DataFrame => DataFrame)](
    "one row missing"               -> (_.filter(!oneRow)),
    "one row duplicated"            -> (df => df.union(df.filter(oneRow))),
    "one value changed"             -> (_.withColumn("y", when(oneRow, 21.5).otherwise(col("y")))),
    "a NULL in place of a value"    -> (_.withColumn("d", when(oneRow, lit(null)).otherwise(col("d")))),
    "an output column DuckDB lacks" -> (_.withColumn("extra", lit(1))),
  ))
    test(s"a result with $label throws") {
      assert(intercept[IllegalArgumentException](check(wrong(joined))).getMessage.contains("mismatch"))
    }
}
