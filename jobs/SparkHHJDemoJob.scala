package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.hhj.{HHJConfig, PartitionRule}
import repro.spark.{HHJStrategy, HHJoin, LastStats}

/** End-to-end Spark demo of the Dynamic HHJ operator: runs
  * lineitem ⋈ orders at a configurable scale factor through its two
  * front-ends, (1) the explicit [[HHJoin]] API and (2) a plain `df.join`
  * under the Catalyst [[HHJStrategy]]. Both plan the same
  * `DynamicHHJExec`; the job prints row counts and in-operator spill volume.
  *
  *   spark-submit --class repro.jobs.SparkHHJDemoJob <jar> [scaleFactor]
  */
object SparkHHJDemoJob {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("dynamic-hhj-demo")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val li  = SynthData.lineitem(spark, sf)
    val ord = SynthData.orders(spark, sf)
    val cfg = HHJConfig(
      memoryFrames = 64,
      frameSize = 8 * 1024,
      partitionRule = PartitionRule.Dynamic(20, 20),
    )

    LastStats.reset()
    val apiCount = HHJoin.join(li, ord, Seq("l_orderkey"), Seq("o_orderkey"), cfg).count()
    println(f"HHJoin API:      $apiCount rows, in-operator spill ${LastStats.spillBytes.get / 1048576.0}%.1f MB")

    HHJStrategy.install(spark, cfg)
    LastStats.reset()
    val sqlCount = li.join(ord, li("l_orderkey") === ord("o_orderkey")).count()
    println(f"via HHJStrategy: $sqlCount rows, in-operator spill ${LastStats.spillBytes.get / 1048576.0}%.1f MB")
    HHJStrategy.uninstall(spark)

    require(apiCount == sqlCount, "both front-ends must agree")
    spark.stop()
  }
}
