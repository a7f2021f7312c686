package repro.bench

import repro.{SparkSpec, SynthData}
import repro.core.hhj.{HHJConfig, PartitionRule}
import repro.spark.{HHJoin, LastStats}

/** End-to-end Spark benchmark of the Dynamic HHJ operator at SF = 0.1
  * (~600k lineitem rows x 150k orders rows) through the real shuffle path,
  * with per-partition frame budgets small enough to spill inside every
  * executor task — the repo's "the whole thing runs on Spark" check, and a
  * sanity comparison against Spark's own join on the same query.
  */
class SparkHHJBench extends SparkSpec {

  private def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  test("SF=0.1 lineitem ⋈ orders: Dynamic HHJ vs Spark's built-in join") {
    val li  = SynthData.lineitem(spark, sf = 0.1).cache()
    val ord = SynthData.orders(spark, sf = 0.1).cache()
    li.count(); ord.count() // materialize the cache so timings compare joins

    val cfg = HHJConfig(
      memoryFrames = 64,
      frameSize = 8 * 1024, // 512 KB per task: the ~1.2 MB build partitions spill
      partitionRule = PartitionRule.Dynamic(20, 20),
    )
    def builtIn() = li.join(ord, li("l_orderkey") === ord("o_orderkey")).count()
    def hhj()     = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), cfg, numPartitions = 16).count()

    // One untimed run of each join first, so neither is timed cold.
    builtIn(); hhj()
    val (sparkCount, sparkS) = time(builtIn())
    LastStats.reset()
    val (hhjCount, hhjS) = time(hhj())

    println("\n=== Spark end-to-end at SF=0.1 (shuffle path, broadcast disabled) ===")
    println(Studies.fmt(
      Seq("engine", "rows", "seconds", "spilled MB (in-operator)"),
      Seq(
        Seq("Spark built-in join", sparkCount, sparkS, "-"),
        Seq("Dynamic HHJ operator", hhjCount, hhjS, f"${LastStats.spillBytes.get / 1048576.0}%.1f"),
      ),
    ))
    assert(hhjCount == sparkCount, "row counts must agree with Spark's own join")
    assert(LastStats.spillBytes.get > 0, "per-task budgets must force in-operator spilling at SF=0.1")
    li.unpersist(); ord.unpersist()
    ()
  }
}
