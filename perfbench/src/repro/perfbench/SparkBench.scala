package repro.perfbench

import java.io.File

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.PerfbenchBridge
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.joins.{ShuffledHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core.hhj.{HHJConfig, PartitionRule}
import repro.spark.{DynamicHHJExec, HHJStrategy, HHJoin, LastStats}

/** The Spark workload: SynthData SF 0.1 lineitem (600 k rows) ⋈ orders
  * (150 k rows) on orderkey, from cached inputs, through `df.join` planned
  * into `DynamicHHJExec`. The traced run also times the same join through
  * `HHJoin.join` and through Spark's own joins. Tasks run in this JVM
  * (`local[n]`, n = available cores).
  */
object SparkBench {
  sealed abstract class Path(val name: String)
  /** `df.join` planned by `HHJStrategy` into `DynamicHHJExec`. */
  case object Planned extends Path("df.join")
  /** `HHJoin.join`, the RDD/`Row` API. */
  case object Api extends Path("HHJoin.join")

  val ScaleFactor       = 0.1
  val ShufflePartitions = 16
  val InputPartitions   = 4

  /** 64 frames of 8 KB per task: every task's build partition spills. */
  val Config: HHJConfig = HHJConfig(memoryFrames = 64, frameSize = 8 * 1024, partitionRule = PartitionRule.Dynamic(20, 20))

  /** Row count plus an order-independent checksum of every output column. */
  final case class Answer(rows: Long, lo: Long, hi: Long)

  final class Inputs(val spark: SparkSession, val lineitem: DataFrame, val orders: DataFrame) {
    val columns: Seq[String] = (lineitem.columns ++ orders.columns).toSeq
    def cond = lineitem("l_orderkey") === orders("o_orderkey")
  }

  def session(o: Options): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      // Input partitions (and with them every task's input order and spill)
      // must not depend on the core count.
      .config("spark.default.parallelism", InputPartitions.toLong)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(o.work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(o.work, "spark-warehouse").getPath)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Plans the checksum query over `joined`, then runs it. Returns its
    * answer, its plan, and the seconds it ran. Planning is left out of the
    * time: Catalyst's planning code needs hundreds of queries to be compiled
    * by the JIT, so its time kept falling for the whole run.
    */
  def answer(in: Inputs, joined: DataFrame): (Answer, SparkPlan, Double) = {
    val h    = xxhash64(in.columns.map(col): _*)
    val q    = joined.agg(count(lit(1)), sum(h.bitwiseAND(0xffffffffL)), sum(shiftrightunsigned(h, 32)))
    val plan = q.queryExecution.executedPlan
    val t0   = System.nanoTime()
    val r    = q.collect()(0)
    val s    = (System.nanoTime() - t0) / 1e9
    def l(i: Int) = if (r.isNullAt(i)) 0L else r.getLong(i)
    (Answer(l(0), l(1), l(2)), plan, s)
  }

  def joined(path: Path, in: Inputs, cfg: HHJConfig): DataFrame = path match {
    case Planned =>
      HHJStrategy.install(in.spark, cfg)
      in.lineitem.join(in.orders, in.cond)
    case Api =>
      HHJStrategy.uninstall(in.spark)
      HHJoin.join(in.lineitem, in.orders, Seq("l_orderkey"), Seq("o_orderkey"), cfg, numPartitions = ShufflePartitions)
  }

  /** Spark's own join on the same inputs, optionally with a join hint. */
  def builtIn(in: Inputs, hint: Option[String]): DataFrame = {
    HHJStrategy.uninstall(in.spark)
    val right = hint.fold(in.orders)(in.orders.hint(_))
    in.lineitem.join(right, in.lineitem("l_orderkey") === right("o_orderkey"))
  }

  private def contains(plan: SparkPlan, p: SparkPlan => Boolean): Boolean = plan.find(p).isDefined

  /** Task and stage metrics of the jobs run since the last `reset`. A join
    * stage is one that zips its two inputs' partitions; an exchange stage
    * writes shuffle output without zipping.
    */
  final class StageRecorder extends SparkListener {
    private final case class Stage(
        join: Boolean, submitMs: Long, doneMs: Long, tasks: Int, cpuNs: Long, gcMs: Long, writeB: Long, readB: Long)
    private val stages = mutable.Map.empty[Int, Stage]
    private val taskMs = mutable.Map.empty[Int, ArrayBuffer[Long]]

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      val si = e.stageInfo
      val m  = si.taskMetrics
      stages(si.stageId) = Stage(
        si.rddInfos.exists(_.name.startsWith("ZippedPartitions")),
        si.submissionTime.getOrElse(0L), si.completionTime.getOrElse(0L), si.numTasks,
        if (m == null) 0L else m.executorCpuTime, if (m == null) 0L else m.jvmGCTime,
        if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten,
        if (m == null) 0L else m.shuffleReadMetrics.totalBytesRead)
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      taskMs.getOrElseUpdate(e.stageId, ArrayBuffer.empty) += e.taskInfo.duration
    }

    def reset(): Unit = synchronized { stages.clear(); taskMs.clear() }

    def joinShuffleReadBytes: Long = synchronized(stages.values.filter(_.join).map(_.readB).sum)

    def summary(): Map[String, Double] = synchronized {
      val all  = stages.values.toSeq
      val join = all.filter(_.join)
      val exch = all.filter(s => !s.join && s.writeB > 0)
      def wall(ss: Seq[Stage]) = if (ss.isEmpty) 0.0 else (ss.map(_.doneMs).max - ss.map(_.submitMs).min) / 1e3
      val joinTasks = stages.collect { case (id, s) if s.join => taskMs.getOrElse(id, Nil) }.flatten.map(_ / 1e3).toSeq
      Map(
        "spark.tasks"            -> all.map(_.tasks).sum.toDouble,
        "spark.exchange_stage_s" -> wall(exch),
        "spark.join_stage_s"     -> wall(join),
        "spark.task_p50_s"       -> Stats.median(joinTasks),
        "spark.task_max_s"       -> (if (joinTasks.isEmpty) 0.0 else joinTasks.max),
        "spark.task_cpu_s_sum"   -> all.map(_.cpuNs).sum / 1e9,
        "spark.shuffle_write_mb" -> all.map(_.writeB).sum / Stats.MB,
        "spark.shuffle_read_mb"  -> all.map(_.readB).sum / Stats.MB,
        "spark.gc_s"             -> all.map(_.gcMs).sum / 1e3,
      )
    }
  }

  final case class Outcome(seconds: Double, ok: Boolean, signature: String, ioBytes: Long, layers: Map[String, Double])

  /** One timed join through `path`, with its output checked. */
  def join(path: Path, in: Inputs, ref: Answer, rec: StageRecorder, traced: Boolean): Outcome = {
    val cfg = if (traced) Trace.traced(Config) else Config
    val tmp = new File(System.getProperty("java.io.tmpdir"))
    System.gc()
    Trace.resetCounters(); LastStats.reset(); rec.reset()
    val alloc0               = Jvm.allAllocated()
    val (gcN0, gcMs0)        = Jvm.gcTotals()
    val span                 = if (traced) Trace.beginJoin() else 0L
    val t0                   = System.nanoTime()
    val (got, plan, seconds) = answer(in, joined(path, in, cfg))
    if (traced) Trace.endJoin(span, s"join:${path.name}", t0, System.nanoTime())
    PerfbenchBridge.drainListenerBus(in.spark.sparkContext)
    val alloc                = Jvm.allocatedSince(alloc0)
    val (gcN1, gcMs1)        = Jvm.gcTotals()

    // Both paths put spill files in per-task temp dirs named hhj-*.
    val leftovers = Option(tmp.list()).toSeq.flatten.count(_.startsWith("hhj-"))
    val planOk    = path != Planned || contains(plan, _.isInstanceOf[DynamicHHJExec])
    val ok        = got == ref && leftovers == 0 && planOk
    if (!ok)
      Console.err.println(s"[perfbench] ${path.name} check failed: $got vs $ref, spill dirs left $leftovers, " +
        s"DynamicHHJExec planned $planOk")

    val spill = LastStats.spillBytes.get
    val sig = s"answer=$got spillBytes=$spill rounds=${LastStats.rounds.get} " +
      s"victimSpills=${LastStats.victimSpills.get} bnljRounds=${LastStats.bnljRounds.get}"
    val layers = rec.summary() ++ Map(
      "spark.hhj_rounds"        -> LastStats.rounds.get.toDouble,
      "spark.hhj_victim_spills" -> LastStats.victimSpills.get.toDouble,
      "spark.spill_mb"          -> spill / Stats.MB,
      "jvm.alloc_mb"            -> alloc / Stats.MB,
      "jvm.gc_s"                -> (gcMs1 - gcMs0) / 1e3,
      "jvm.gc_count"            -> (gcN1 - gcN0).toDouble,
    ) ++ (if (!traced) Map.empty else {
      import Trace._
      val vCalls = victim.calls.sum
      Map(
        "insertion.calls"            -> insertion.calls.sum.toDouble,
        "insertion.s"                -> insertion.nanos.sum / 1e9,
        "victim.calls"               -> vCalls.toDouble,
        "victim.s"                   -> victim.nanos.sum / 1e9,
        "victim.candidates_per_call" -> (if (vCalls == 0) 0.0 else victimCandidates.sum.toDouble / vCalls),
      )
    })
    Outcome(seconds, ok, sig, rec.joinShuffleReadBytes + spill, layers)
  }

  def run(o: Options): Result = {
    var attempts = 0
    var failures = 0
    val sigs: Map[Path, ArrayBuffer[String]] = Map(Planned -> ArrayBuffer.empty, Api -> ArrayBuffer.empty)
    var in: Inputs = null
    var ref: Answer = null
    var rec: StageRecorder = null

    def attempt(path: Path, traced: Boolean): Option[Outcome] = {
      attempts += 1
      val out =
        try Some(join(path, in, ref, rec, traced))
        catch { case e: Exception => Console.err.println(s"[perfbench] ${path.name} join threw: $e"); None }
      out.foreach(r => sigs(path) += r.signature)
      if (!out.exists(_.ok)) failures += 1
      out
    }

    // Set-up: start the session, generate and cache the inputs, and compute
    // the reference answer with Spark's own join; repeated, and its median
    // reported. The JIT warm-up join follows, untimed.
    val setupTimes = (1 to Harness.SetupReps).map { _ =>
      if (in != null) in.spark.stop()
      System.gc()
      val t0 = System.nanoTime()
      val spark = session(o)
      rec = new StageRecorder
      spark.sparkContext.addSparkListener(rec)
      val li = SynthData.lineitem(spark, ScaleFactor, o.seed).cache()
      val od = SynthData.orders(spark, ScaleFactor, o.seed + 1000).cache()
      li.count(); od.count()
      in = new Inputs(spark, li, od)
      ref = answer(in, builtIn(in, None))._1
      (System.nanoTime() - t0) / 1e9
    }
    Harness.warmup(Harness.SparkWarmupSeconds)(attempt(Planned, traced = false))

    val untraced = ArrayBuffer.empty[Outcome]
    val traced   = ArrayBuffer.empty[Outcome]
    Harness.loop(o.seconds) {
      attempt(Planned, traced = false).foreach(untraced += _)
      if (o.trace) attempt(Planned, traced = true).foreach(traced += _)
    }

    // Traced run only: the same join through `HHJoin.join` (one warm-up
    // join, then the median of three), and Spark's own joins.
    val api =
      if (!o.trace) Nil
      else { attempt(Api, traced = false); (1 to 3).flatMap(_ => attempt(Api, traced = false)) }
    def reference(hint: Option[String], op: SparkPlan => Boolean): Double =
      Stats.median((1 to 3).map { _ =>
        attempts += 1
        val (got, plan, s) = answer(in, builtIn(in, hint))
        if (got != ref || !contains(plan, op)) {
          Console.err.println(s"[perfbench] reference join ${hint.getOrElse("SMJ")} check failed: $got vs $ref")
          failures += 1
        }
        s
      })
    val refs =
      if (!o.trace) Map.empty[String, Double]
      else Map(
        "spark.ref_smj_s" -> reference(None, _.isInstanceOf[SortMergeJoinExec]),
        "spark.ref_shj_s" -> reference(Some("SHUFFLE_HASH"), _.isInstanceOf[ShuffledHashJoinExec]),
      )
    in.spark.stop()

    val apiSame = sigs(Api).distinct.size <= 1
    if (!apiSame) Console.err.println("[perfbench] HHJoin.join: exact counters differ between joins")
    val exactSame = Harness.exactAcrossRuns(o, sigs(Planned).toSeq) && apiSame
    val joinS     = untraced.map(_.seconds).toSeq
    println(Stats.describe("setup_s", setupTimes))
    println(Stats.describe("join_s", joinS))
    sigs(Planned).headOption.foreach(println)

    val values =
      if (!o.trace)
        Map(
          "setup_s"    -> Stats.median(setupTimes),
          "join_s_p50" -> Stats.median(joinS),
          "io_mb"      -> Stats.median(untraced.map(_.ioBytes / Stats.MB).toSeq),
        )
      else {
        Trace.writeSpans(new File(o.state, s"traces/${o.workload}-seed${o.seed}.spans.tsv"))
        println(Stats.describe("HHJoin.join s", api.map(_.seconds)))
        sigs(Api).headOption.foreach(println)
        Stats.medians(traced.map(_.layers).toSeq) ++ Stats.medians(untraced.map(_.layers).toSeq) ++ refs ++
          Harness.tracing(joinS, traced.map(_.seconds).toSeq) ++ Map(
            "spark.api_join_s_p50" -> Stats.median(api.map(_.seconds)),
            "spark.api_spill_mb"   -> Stats.median(api.map(_.layers("spark.spill_mb"))),
          )
      }
    Result(failures == 0 && exactSame, attempts, failures, Metrics.select(o.trace, values))
  }
}
