package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.UnsafeProjection
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.types._

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.hhj.{HHJConfig, PartitionRule}
import repro.core.growth.GrowthPolicy
import repro.core.insertion.{BestFit, FirstFit}
import repro.core.victim.{SmallestSize, VictimPolicy}

/** DuckDB-oracle correctness tests of the Spark-side Dynamic HHJ operator
  * through [[HHJoin]] on TPC-H-lite inputs, including configurations that force
  * spilling and multi-round recursion inside every Spark partition.
  */
class HHJoinSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private def amplecfg  = HHJConfig(memoryFrames = 1024, frameSize = 32 * 1024)
  // 24 frames x 1 KB = a 24 KB budget per Spark partition: small enough that
  // the build side (orders at SF 0.002 over 4 partitions is ~40 KB) spills.
  private def tinyCfg = HHJConfig(
    memoryFrames = 24,
    frameSize = 1024,
    partitionRule = PartitionRule.Dynamic(firstRound = 8, laterLowerBound = 2),
  )

  test("lineitem ⋈ orders matches DuckDB with ample memory") {
    val li  = SynthData.lineitem(spark, sf = 0.002)
    val ord = SynthData.orders(spark, sf = 0.002)
    val joined = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), amplecfg, numPartitions = 8)
    Oracle.assertEquivalent(
      joined,
      "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
      "lineitem" -> li,
      "orders"   -> ord,
    )
  }

  test("lineitem ⋈ orders matches DuckDB when every partition must spill") {
    val li  = SynthData.lineitem(spark, sf = 0.002)
    val ord = SynthData.orders(spark, sf = 0.002)
    LastStats.reset()
    val joined = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), tinyCfg, numPartitions = 4)
    Oracle.assertEquivalent(
      joined,
      "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
      "lineitem" -> li,
      "orders"   -> ord,
    )
    assert(LastStats.spillBytes.get > 0, "the tiny memory budget must force spilling")
    assert(LastStats.victimSpills.get > 0)
  }

  test("orders ⋈ customer matches DuckDB under spilling") {
    val ord  = SynthData.orders(spark, sf = 0.004)
    val cust = SynthData.customer(spark, sf = 0.004)
    val joined = HHJoin.join(ord, cust, Seq("o_custkey"), Seq("c_custkey"), tinyCfg, numPartitions = 4)
    Oracle.assertEquivalent(
      joined,
      "SELECT o.*, c.* FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
      "orders"   -> ord,
      "customer" -> cust,
    )
  }

  test("zipf-skewed probe ⋈ uniform build matches DuckDB (multi-round recursion)") {
    val probe = SynthData.zipfKeys(spark, rows = 20000, nKeys = 500, alpha = 1.2, seed = 3)
      .withColumnRenamed("v", "pv")
    val build = SynthData.uniformKeys(spark, rows = 5000, nKeys = 500, seed = 4)
      .withColumnRenamed("k", "bk").withColumnRenamed("v", "bv")
    LastStats.reset()
    val joined = HHJoin.join(probe, build, Seq("k"), Seq("bk"), tinyCfg, numPartitions = 4)
    Oracle.assertEquivalent(
      joined,
      "SELECT p.*, b.* FROM probe p JOIN build b ON p.k = b.bk",
      "probe" -> probe,
      "build" -> build,
    )
    assert(LastStats.spillBytes.get > 0, "expected build-side spilling in this configuration")
  }

  test("join with empty result (disjoint key ranges) matches DuckDB") {
    val a = SynthData.uniformKeys(spark, rows = 2000, nKeys = 100, seed = 5)
    val b = SynthData.uniformKeys(spark, rows = 2000, nKeys = 100, seed = 6)
      .selectExpr("k + 1000 AS bk", "v AS bv")
    val joined = HHJoin.join(a, b, Seq("k"), Seq("bk"), tinyCfg, numPartitions = 4)
    assert(joined.count() == 0)
    // An input the optimizer knows is empty removes the join from the plan.
    assert(HHJoin.join(a.limit(0), b, Seq("k"), Seq("bk"), tinyCfg, numPartitions = 4).count() == 0)
  }

  test("NaN, -0.0 and INT-vs-BIGINT keys match Spark's own join") {
    // -0.0D, not CAST(-0.0 AS DOUBLE), which parses as a decimal and yields +0.0.
    val d1 = spark.sql("SELECT * FROM VALUES (CAST('NaN' AS DOUBLE), 1), (-0.0D, 2), (1.5D, 3) AS t(k, av)")
    val d2 = spark.sql("SELECT * FROM VALUES (CAST('NaN' AS DOUBLE), 1), (0.0D, 2), (1.5D, 3) AS t(bk, bv)")
    val i1 = spark.range(100).selectExpr("CAST(id AS INT) AS k", "id AS av")
    val i2 = spark.range(50, 150).selectExpr("id AS bk", "id AS bv")
    def sorted(df: DataFrame): Seq[Row] = df.collect().toSeq.sortBy(_.toString)
    for ((a, b, rows) <- Seq((d1, d2, 3), (i1, i2, 50))) {
      val expected = sorted(a.join(b, a("k") === b("bk")))
      assert(expected.size == rows)
      assert(sorted(HHJoin.join(a, b, Seq("k"), Seq("bk"), amplecfg, numPartitions = 4)) == expected)
    }
  }

  test("keys whose 64-bit hashes collide do not match each other") {
    // Two BIGINT keys with the same byteswap64(UnsafeRow.hashCode) of their
    // key row, the 64-bit key the engine matches on; found by scanning the
    // keys k * 0x9E3779B97F4A7C15L.
    val (ka, kb) = (7744111476371881714L, 9135685962583030665L)
    val keyRow   = UnsafeProjection.create(Array[DataType](LongType))
    def hash(k: Long): Long = scala.util.hashing.byteswap64(keyRow(InternalRow(k)).hashCode.toLong)
    assert(hash(ka) == hash(kb))
    import spark.implicits._
    def side(name: String, keys: Long*): DataFrame = keys.toDF(name)
    // One Spark partition: the exchange hashes keys its own way, so with more
    // the two keys could reach different tasks and never meet in the engine.
    assert(HHJoin.join(side("k", ka), side("bk", kb), Seq("k"), Seq("bk"), amplecfg, numPartitions = 1).collect().isEmpty)
    val both = HHJoin.join(side("k", ka, kb), side("bk", ka, kb), Seq("k"), Seq("bk"), amplecfg, numPartitions = 1)
    assert(both.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq == Seq((ka, ka), (kb, kb)).sorted)
  }

  test("HHJoin.join plans its own config and partition count whatever strategy is installed") {
    val a    = SynthData.uniformKeys(spark, rows = 2000, nKeys = 100, seed = 5)
    val b    = SynthData.uniformKeys(spark, rows = 500, nKeys = 100, seed = 6).selectExpr("k AS bk", "v AS bv")
    val cfgB = amplecfg
    // perfbench's HHJoin.join path changes the installed strategy between
    // building the DataFrame and planning it.
    HHJStrategy.install(spark, tinyCfg)
    val joined =
      try HHJoin.join(a, b, Seq("k"), Seq("bk"), cfgB, numPartitions = 4)
      finally HHJStrategy.uninstall(spark)
    joined.collect()
    val plan = joined.queryExecution.executedPlan
    val cfgs = collect(plan) { case e: DynamicHHJExec => e.cfg }
    assert(cfgs.size == 1 && (cfgs.head eq cfgB), s"expected one DynamicHHJExec with the join's config:\n$plan")
    val exchanges = collect(plan) { case e: ShuffleExchangeLike => e.numPartitions }
    assert(exchanges == Seq(4, 4), s"expected two 4-partition exchanges:\n$plan")
  }

  test("HHJoin.join rejects a negative partition count; 0 keeps the session default") {
    val a = SynthData.uniformKeys(spark, rows = 200, nKeys = 50, seed = 7)
    val b = SynthData.uniformKeys(spark, rows = 100, nKeys = 50, seed = 8).selectExpr("k AS bk", "v AS bv")
    val e = intercept[IllegalArgumentException](HHJoin.join(a, b, Seq("k"), Seq("bk"), amplecfg, numPartitions = -1))
    assert(e.getMessage.contains("-1"))
    val plan = HHJoin.join(a, b, Seq("k"), Seq("bk"), amplecfg).queryExecution.executedPlan
    val reqs = collect(plan) { case exec: DynamicHHJExec => exec.requiredNumPartitions }
    assert(reqs == Seq(None), s"expected one DynamicHHJExec with no partition count of its own:\n$plan")
  }

  test("null join keys never match (inner-join semantics, as in DuckDB)") {
    val a = SynthData.uniformKeys(spark, rows = 4000, nKeys = 200, seed = 7)
      .selectExpr("CASE WHEN k % 10 = 0 THEN NULL ELSE k END AS k", "v")
    val b = SynthData.uniformKeys(spark, rows = 1000, nKeys = 200, seed = 8)
      .selectExpr("CASE WHEN k % 7 = 0 THEN NULL ELSE k END AS bk", "v AS bv")
    val joined = HHJoin.join(a, b, Seq("k"), Seq("bk"), amplecfg, numPartitions = 4)
    Oracle.assertEquivalent(
      joined,
      "SELECT a.*, b.* FROM a JOIN b ON a.k = b.bk",
      "a" -> a,
      "b" -> b,
    )
  }

  test("multi-column join keys match DuckDB") {
    val a = SynthData.orders(spark, sf = 0.002)
      .selectExpr("o_orderkey % 50 AS k1", "o_custkey % 20 AS k2", "o_totalprice AS av")
    val b = SynthData.orders(spark, sf = 0.002, seed = 9)
      .selectExpr("o_orderkey % 50 AS j1", "o_custkey % 20 AS j2", "o_totalprice AS bv")
      .limit(500)
    val joined = HHJoin.join(a, b, Seq("k1", "k2"), Seq("j1", "j2"), tinyCfg, numPartitions = 4)
    Oracle.assertEquivalent(
      joined,
      "SELECT a.*, b.* FROM a JOIN b ON a.k1 = b.j1 AND a.k2 = b.j2",
      "a" -> a,
      "b" -> b,
    )
  }

  test("STRING and DATE join keys match DuckDB under spilling") {
    val li  = SynthData.lineitem(spark, sf = 0.002)
    val ord = SynthData.orders(spark, sf = 0.002)
    val ls  = li.selectExpr("CAST(l_orderkey AS STRING) AS lk", "l_partkey", "l_quantity")
    val os  = ord.selectExpr("CAST(o_orderkey AS STRING) AS ok", "o_custkey", "o_orderdate")
    LastStats.reset()
    Oracle.assertEquivalent(
      HHJoin.join(ls, os, Seq("lk"), Seq("ok"), tinyCfg, numPartitions = 4),
      "SELECT l.*, o.* FROM ls l JOIN os o ON l.lk = o.ok",
      "ls" -> ls,
      "os" -> os,
    )
    // Ship dates meet order dates a few thousand times at SF 0.001.
    val li1  = SynthData.lineitem(spark, sf = 0.001)
    val ord1 = SynthData.orders(spark, sf = 0.001)
    Oracle.assertEquivalent(
      HHJoin.join(li1, ord1, Seq("l_shipdate"), Seq("o_orderdate"), tinyCfg, numPartitions = 4),
      "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_shipdate = o.o_orderdate",
      "lineitem" -> li1,
      "orders"   -> ord1,
    )
    assert(LastStats.spillBytes.get > 0, "the tiny memory budget must force spilling")
  }

  test("rows wider than a frame and than the spill staging buffer match DuckDB under spilling") {
    // 16 KB and 100 KB strings against 1 KB frames: every row's declared
    // size is clamped to one frame, while its spilled bytes stay whole.
    val build = spark.range(200).selectExpr(
      "id % 50 AS bk", "concat(CAST(id AS STRING), repeat('b', IF(id % 2 = 0, 16384, 102400))) AS bpad")
    val probe = spark.range(40).selectExpr(
      "id % 25 AS k", "concat(CAST(id AS STRING), repeat('p', IF(id % 3 = 0, 102400, 16384))) AS ppad")
    LastStats.reset()
    Oracle.assertEquivalent(
      HHJoin.join(probe, build, Seq("k"), Seq("bk"), tinyCfg, numPartitions = 4),
      "SELECT p.*, b.* FROM probe p JOIN build b ON p.k = b.bk",
      "probe" -> probe,
      "build" -> build,
    )
    assert(LastStats.spillBytes.get > 0, "the tiny memory budget must force spilling")
  }

  test("single hot key across partitions (bail-out path) matches DuckDB") {
    // `id % 1 + 1` is 1 on every row but, unlike a literal, is not folded:
    // keys 1 = 1 would leave the optimized join without equi-join keys.
    val a = spark.range(3000).selectExpr("id % 1 + 1 AS k", "id AS av")
    val b = spark.range(500).selectExpr("id % 1 + 1 AS bk", "id AS bv")
    LastStats.reset()
    val joined = HHJoin.join(
      a, b, Seq("k"), Seq("bk"),
      HHJConfig(memoryFrames = 8, frameSize = 1024, partitionRule = PartitionRule.Dynamic(4, 2)),
      numPartitions = 2,
    )
    assert(joined.count() == 3000L * 500)
    assert(LastStats.bnljRounds.get > 0, "pathological skew should bail out to BNLJ")
  }

  for (
    (label, cfg) <- Seq(
      "G-S growth"           -> tinyCfg.copy(growth = GrowthPolicy.GS),
      "Best-Fit insertion"   -> tinyCfg.copy(insertion = () => BestFit),
      "First-Fit insertion"  -> tinyCfg.copy(insertion = () => FirstFit),
      "Smallest-Size victim" -> tinyCfg.copy(victim = () => SmallestSize),
      "no role reversal"     -> tinyCfg.copy(roleReversal = false),
      "reload spilled"       -> tinyCfg.copy(reloadSpilled = true),
    )
  )
    test(s"policy variant '$label' matches DuckDB under spilling") {
      val li  = SynthData.lineitem(spark, sf = 0.001)
      val ord = SynthData.orders(spark, sf = 0.001)
      val joined = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), cfg, numPartitions = 2)
      Oracle.assertEquivalent(
        joined,
        "SELECT l.*, o.* FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
        "lineitem" -> li,
        "orders"   -> ord,
      )
    }

  test("all 13 victim policies agree with each other on Spark (spot check by row count)") {
    val li  = SynthData.lineitem(spark, sf = 0.001)
    val ord = SynthData.orders(spark, sf = 0.001)
    val expected = li.join(ord, li("l_orderkey") === ord("o_orderkey")).count()
    VictimPolicy.all13().foreach { mk =>
      val c = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), tinyCfg.copy(victim = mk), numPartitions = 2).count()
      assert(c == expected, s"${mk().name}: $c != $expected")
    }
  }
}
