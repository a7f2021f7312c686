package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.duckdb.DuckDBConnection

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` loads each of ``tables`` into
  * an in-process DuckDB, runs ``sql`` there and asserts that its rows equal
  * ``sparkDf``'s as a multiset. This catches wrong results from a rewritten
  * plan or a custom operator — "it ran" is not "it is correct".
  *
  * Each table's DuckDB column types follow its Spark schema: integral
  * columns become BIGINT, floating-point ones DOUBLE, dates DATE and
  * anything else VARCHAR. So ``sql`` can select ``alias.*`` and compare an
  * INT column with a BIGINT one. Values are compared as text, doubles to six
  * decimals, NULL as ``∅``.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def duckType(t: DataType): String = t match {
    case LongType | IntegerType | ShortType => "BIGINT"
    case DoubleType | FloatType             => "DOUBLE"
    case DateType                           => "DATE"
    case _                                  => "VARCHAR"
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sorted(Ordering.Implicits.seqOrdering[Seq, String])
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val conn = DriverManager.getConnection("jdbc:duckdb:").unwrap(classOf[DuckDBConnection])
    try {
      for ((name, df) <- tables) {
        val fields = df.schema.fields
        val cols   = fields.map(f => s"${f.name} ${duckType(f.dataType)}")
        conn.createStatement.execute(s"CREATE TABLE $name (${cols.mkString(", ")})")
        // Collect once; this is an oracle, not a bench — keep tables small.
        // DuckDB casts each value's text into its column's type.
        val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        try df.collect().foreach { r =>
          app.beginRow()
          fields.indices.foreach(i => app.append(if (r.isNullAt(i)) null else r.get(i).toString))
          app.endRow()
        } finally app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
