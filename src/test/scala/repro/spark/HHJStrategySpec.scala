package repro.spark

import java.io.File

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.hhj.{HHJConfig, PartitionRule}

/** Tests of the Catalyst-level integration: [[HHJStrategy]] plans inner
  * equi-joins into [[DynamicHHJExec]], which must both appear in the
  * physical plan and produce DuckDB-identical results.
  */
class HHJStrategySpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val cfg = HHJConfig(
    memoryFrames = 32,
    frameSize = 4 * 1024,
    partitionRule = PartitionRule.Dynamic(firstRound = 8, laterLowerBound = 2),
  )

  private def withStrategy[A](f: => A): A = {
    HHJStrategy.install(spark, cfg)
    try f
    finally HHJStrategy.uninstall(spark)
  }

  test("the strategy plans an inner equi-join into DynamicHHJExec") {
    withStrategy {
      val li     = SynthData.lineitem(spark, sf = 0.001)
      val ord    = SynthData.orders(spark, sf = 0.001)
      val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      // SparkPlan.nodeName strips the "Exec" suffix in plan strings.
      val plan = joined.queryExecution.executedPlan.toString
      assert(plan.contains("DynamicHHJ"), s"plan did not use the operator:\n$plan")
    }
  }

  test("DataFrame API join through the strategy matches DuckDB") {
    withStrategy {
      val li  = SynthData.lineitem(spark, sf = 0.002)
      val ord = SynthData.orders(spark, sf = 0.002)
      LastStats.reset()
      val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      Oracle.assertEquivalent(
        joined,
        "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
        "lineitem" -> li,
        "orders"   -> ord,
      )
      assert(LastStats.spillBytes.get > 0, "the 128 KB budget must spill at this scale")
    }
  }

  test("a spilling query leaves no spill dir and no spill-writer thread behind") {
    def spillDirs: Set[String] =
      new File(System.getProperty("java.io.tmpdir")).list().filter(_.startsWith("hhj-exec-spill")).toSet
    def writers: Seq[Thread] =
      Thread.getAllStackTraces.keySet.asScala.toSeq.filter(t => t.getName.startsWith("spill-writer-hhj-exec-spill") && t.isAlive)
    val before = spillDirs
    withStrategy {
      val li  = SynthData.lineitem(spark, sf = 0.002)
      val ord = SynthData.orders(spark, sf = 0.002)
      LastStats.reset()
      // Every column is kept, so the rows are wide enough to spill.
      assert(li.join(ord, li("l_orderkey") === ord("o_orderkey")).collect().nonEmpty)
      assert(LastStats.spillBytes.get > 0, "the 128 KB budget must spill at this scale")
    }
    assert(spillDirs -- before == Set.empty)
    assert(writers.isEmpty, writers.map(_.getName).mkString(", "))
  }

  test("a join run as several tasks matches DuckDB") {
    // Without AQE the shuffles keep their partition count, so the operator
    // runs as several tasks whose outputs must combine.
    val conf  = spark.conf
    val saved = Seq("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions").map(k => k -> conf.get(k))
    conf.set("spark.sql.adaptive.enabled", "false")
    conf.set("spark.sql.shuffle.partitions", "8")
    try withStrategy {
      val li     = SynthData.lineitem(spark, sf = 0.002)
      val ord    = SynthData.orders(spark, sf = 0.002)
      val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      val exec   = joined.queryExecution.executedPlan.collectFirst { case e: DynamicHHJExec => e }
      assert(exec.map(_.execute().getNumPartitions).contains(8), s"planned: $exec")
      Oracle.assertEquivalent(
        joined,
        "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
        "lineitem" -> li,
        "orders"   -> ord,
      )
    } finally saved.foreach { case (k, v) => conf.set(k, v) }
  }

  test("a second join on the same key reuses the operator's output partitioning") {
    withStrategy {
      val li  = SynthData.lineitem(spark, sf = 0.002)
      val ord = SynthData.orders(spark, sf = 0.002)
      val o2  = SynthData.orders(spark, sf = 0.002, seed = 11)
        .selectExpr("o_orderkey AS o2_orderkey", "o_totalprice AS o2_totalprice")
      val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
        .join(o2, ord("o_orderkey") === o2("o2_orderkey"))
      Oracle.assertEquivalent(
        joined,
        "SELECT l.*, o.*, o2.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey " +
          "JOIN o2 ON o.o_orderkey = o2.o2_orderkey",
        "lineitem" -> li,
        "orders"   -> ord,
        "o2"       -> o2,
      )
      // One exchange per input: the second join's left side is already
      // hash-partitioned on o_orderkey by the first join.
      val plan      = joined.queryExecution.executedPlan
      val exchanges = collect(plan) { case e: ShuffleExchangeLike => e }
      assert(exchanges.size == 3, s"expected 3 exchanges:\n$plan")
    }
  }

  test("SQL join through the strategy matches DuckDB") {
    withStrategy {
      val ord  = SynthData.orders(spark, sf = 0.002)
      val cust = SynthData.customer(spark, sf = 0.002)
      ord.createOrReplaceTempView("orders_v")
      cust.createOrReplaceTempView("customer_v")
      val joined = spark.sql(
        "SELECT * FROM orders_v o JOIN customer_v c ON o.o_custkey = c.c_custkey")
      assert(joined.queryExecution.executedPlan.toString.contains("DynamicHHJ"))
      Oracle.assertEquivalent(
        joined,
        "SELECT o.*, c.* FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        "orders"   -> ord,
        "customer" -> cust,
      )
    }
  }

  test("multi-column equi-join plans through the operator and matches DuckDB") {
    withStrategy {
      val a = SynthData.orders(spark, sf = 0.002)
        .selectExpr("o_orderkey % 40 AS k1", "o_custkey % 10 AS k2", "o_totalprice AS av")
      val b = SynthData.orders(spark, sf = 0.002, seed = 11)
        .selectExpr("o_orderkey % 40 AS j1", "o_custkey % 10 AS j2", "o_totalprice AS bv")
        .limit(400)
      val joined = a.join(b, a("k1") === b("j1") && a("k2") === b("j2"))
      assert(joined.queryExecution.executedPlan.toString.contains("DynamicHHJ"))
      Oracle.assertEquivalent(
        joined,
        "SELECT a.*, b.* FROM a JOIN b ON a.k1 = b.j1 AND a.k2 = b.j2",
        "a" -> a,
        "b" -> b,
      )
    }
  }

  test("non-equi joins are left to Spark's own strategies") {
    withStrategy {
      val a      = spark.range(100).toDF("x")
      val b      = spark.range(100).toDF("y")
      val joined = a.join(b, a("x") < b("y"))
      assert(!joined.queryExecution.executedPlan.toString.contains("DynamicHHJ"))
      assert(joined.count() == (0 until 100).map(x => 99 - x).sum.toLong)
    }
  }

  test("uninstall restores default planning") {
    HHJStrategy.install(spark, cfg)
    HHJStrategy.uninstall(spark)
    val li     = SynthData.lineitem(spark, sf = 0.001)
    val ord    = SynthData.orders(spark, sf = 0.001)
    val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
    assert(!joined.queryExecution.executedPlan.toString.contains("DynamicHHJ"))
  }

  test("aggregation on top of the operator's output is correct") {
    withStrategy {
      val li  = SynthData.lineitem(spark, sf = 0.002)
      val ord = SynthData.orders(spark, sf = 0.002)
      val agg = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
        .groupBy("o_orderstatus")
        .agg(org.apache.spark.sql.functions.count("*").as("cnt"))
      Oracle.assertEquivalent(
        agg,
        "SELECT o.o_orderstatus AS o_orderstatus, COUNT(*) AS cnt FROM lineitem l " +
          "JOIN orders o ON l.l_orderkey = o.o_orderkey GROUP BY o.o_orderstatus",
        "lineitem" -> li,
        "orders"   -> ord,
      )
    }
  }
}
