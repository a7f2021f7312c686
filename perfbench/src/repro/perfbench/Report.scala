package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.jdk.CollectionConverters._

/** Parsed command line: `--workload W --seed N --seconds S --trace 0|1
  * --work DIR --state DIR`. `work` is the run's scratch dir; `state` keeps
  * traces and the exact-counter ledger across runs of one build.
  */
final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean, work: File, state: File)

object Options {
  def parse(argv: Array[String]): Options = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      new File(need("work")), new File(need("state")))
  }
}

final case class Metric(name: String, value: Double, unit: String)

/** The line the harness prints last. */
final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** The metric sets every workload prints: the end-to-end set untraced, the
  * per-layer set traced. A layer a workload cannot reach through a public
  * plug-in point reads 0 there (see METRICS.md).
  */
object Metrics {
  val EndToEnd: Seq[(String, String)] = Seq("setup_s" -> "s", "join_s_p50" -> "s", "io_mb" -> "MB")

  val PerLayer: Seq[(String, String)] = Seq(
    "run.join_samples" -> "count",
    "trace.join_s_p50_untraced" -> "s",
    "trace.join_s_p50_traced" -> "s",
    "trace.overhead_frac" -> "ratio",
    "hhj.self_s" -> "s",
    "hhj.rounds" -> "count",
    "hhj.in_memory_rounds" -> "count",
    "hhj.bnlj_rounds" -> "count",
    "hhj.max_depth" -> "count",
    "hhj.role_reversals" -> "count",
    "hhj.output_records" -> "count",
    "insertion.calls" -> "count",
    "insertion.s" -> "s",
    "insertion.frames_searched_per_record" -> "ratio",
    "frames.r1_avg_fullness" -> "ratio",
    "frames.r1_frames" -> "count",
    "victim.calls" -> "count",
    "victim.s" -> "s",
    "victim.candidates_per_call" -> "ratio",
    "spill.total_mb" -> "MB",
    "spill.build_mb" -> "MB",
    "spill.probe_mb" -> "MB",
    "spill.files" -> "count",
    "spill.append_calls" -> "count",
    "spill.append_s" -> "s",
    "spill.read_s" -> "s",
    "spill.read_mb" -> "MB",
    "spill.seq_write_ops" -> "count",
    "spill.rand_write_ops" -> "count",
    "spill.files_left" -> "count",
    "emit.calls" -> "count",
    "emit.s" -> "s",
    "jvm.alloc_mb" -> "MB",
    "jvm.gc_s" -> "s",
    "jvm.gc_count" -> "count",
    "storage.modeled_hdd_s" -> "s",
    "storage.modeled_ssd_s" -> "s",
    "spark.tasks" -> "count",
    "spark.exchange_stage_s" -> "s",
    "spark.join_stage_s" -> "s",
    "spark.task_p50_s" -> "s",
    "spark.task_max_s" -> "s",
    "spark.task_cpu_s_sum" -> "s",
    "spark.shuffle_write_mb" -> "MB",
    "spark.shuffle_read_mb" -> "MB",
    "spark.gc_s" -> "s",
    "spark.hhj_rounds" -> "count",
    "spark.hhj_victim_spills" -> "count",
    "spark.spill_mb" -> "MB",
    "spark.api_join_s_p50" -> "s",
    "spark.api_spill_mb" -> "MB",
    "spark.ref_smj_s" -> "s",
    "spark.ref_shj_s" -> "s",
  )

  /** Fills the set for this run's mode from `values`; unreached layers read 0. */
  def select(trace: Boolean, values: Map[String, Double]): Seq[Metric] = {
    val set     = if (trace) PerLayer else EndToEnd
    val unknown = values.keySet -- set.map(_._1)
    require(unknown.isEmpty, s"metrics outside the ${if (trace) "per-layer" else "end-to-end"} set: $unknown")
    set.map { case (n, u) => Metric(n, values.getOrElse(n, 0.0), u) }
  }
}

object Stats {
  val MB: Double = 1024.0 * 1024.0

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Per-key medians over per-join maps. */
  def medians(rows: Seq[Map[String, Double]]): Map[String, Double] =
    rows.flatMap(_.keySet).distinct.map(k => k -> median(rows.flatMap(_.get(k)))).toMap

  def describe(label: String, xs: Seq[Double]): String =
    if (xs.isEmpty) s"$label: no samples"
    else f"$label: n=${xs.size} p50=${median(xs)}%.4f min=${xs.min}%.4f max=${xs.max}%.4f all=${xs.map(x => f"$x%.3f").mkString(",")}"

  /** Order-independent checksum term of one output pair. */
  def mix(bKey: Long, bSize: Int, pKey: Long, pSize: Int): Long = {
    var h = scala.util.hashing.byteswap64(bKey ^ 0x9E3779B97F4A7C15L)
    h = scala.util.hashing.byteswap64(h ^ (bSize.toLong << 32 | (pSize.toLong & 0xffffffffL)))
    scala.util.hashing.byteswap64(h ^ pKey)
  }
}

/** JVM counters read from outside around each join. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs     = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by every live thread, by thread id. */
  def allAllocated(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  def allocatedSince(before: Map[Long, Long]): Long =
    allAllocated().iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  /** (collection count, collection milliseconds) over all collectors. */
  def gcTotals(): (Long, Long) =
    (gcs.map(_.getCollectionCount).filter(_ >= 0).sum, gcs.map(_.getCollectionTime).filter(_ >= 0).sum)
}

/** Exact counters of a (workload, seed) from an earlier run of the same
  * build, kept under the build directory so that runs can be compared.
  */
object ExactLedger {
  def check(dir: File, workload: String, seed: Long, signature: String): Boolean = {
    dir.mkdirs()
    val f = new File(dir, s"$workload-seed$seed.txt")
    if (f.exists()) new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8) == signature
    else {
      val tmp = new File(dir, s"${f.getName}.${ProcessHandle.current.pid}")
      Files.write(tmp.toPath, signature.getBytes(StandardCharsets.UTF_8))
      tmp.renameTo(f): Unit
      true
    }
  }
}

/** Run-length and exactness rules shared by every workload. */
object Harness {
  val SetupReps  = 3
  val MinSamples = 3
  /** Untimed joins run before the measured ones, for at least this long.
    * Engine joins reach their steady time within a few joins. Spark joins
    * kept getting faster for ~30 s while the JIT compiled Spark's code, and
    * with a short warm-up, run medians differed by up to 30%.
    */
  val EngineWarmupSeconds = 4.0
  val SparkWarmupSeconds  = 20.0

  /** True when every join of the run produced the same exact counters, and
    * they equal those an earlier run of this build recorded for the seed.
    */
  def exactAcrossRuns(o: Options, signatures: Seq[String]): Boolean = {
    val same = signatures.distinct.size == 1 &&
      ExactLedger.check(new File(o.state, "exact"), o.workload, o.seed, signatures.head)
    if (!same) Console.err.println(s"[perfbench] ${o.workload}: exact counters differ between joins or runs")
    same
  }

  /** Repeats `body` until `seconds` have passed and it ran `minRuns` times. */
  def loop(seconds: Double, minRuns: Int = MinSamples)(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    var n  = 0
    while ((System.nanoTime() - t0) / 1e9 < seconds || n < minRuns) { body; n += 1 }
  }

  def warmup(seconds: Double)(body: => Unit): Unit = loop(seconds, minRuns = 1)(body)

  /** The traced run's own metrics: sample count and tracing overhead. */
  def tracing(untracedS: Seq[Double], tracedS: Seq[Double]): Map[String, Double] = {
    println(Stats.describe("join_s (traced)", tracedS))
    val p50 = Stats.median(untracedS)
    val t50 = Stats.median(tracedS)
    Map(
      "run.join_samples"          -> untracedS.size.toDouble,
      "trace.join_s_p50_untraced" -> p50,
      "trace.join_s_p50_traced"   -> t50,
      "trace.overhead_frac"       -> (if (p50 == 0) 0.0 else (t50 - p50) / p50),
    )
  }
}
