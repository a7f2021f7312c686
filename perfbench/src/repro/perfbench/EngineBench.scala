package repro.perfbench

import java.io.File

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.frames.JoinRec
import repro.core.hhj.{DynamicHHJ, HHJConfig, HHJStats}
import repro.core.spill.{DiskSpillStore, Serde, SpillStore}
import repro.storage.{Device, ResponseTimeModel}
import repro.wisconsin.{KeyDist, RecordSpec, WisconsinGen}

/** Single-threaded engine workloads: complete `DynamicHHJ.join` calls over
  * metadata records (null payloads), spilling to a real `DiskSpillStore`.
  */
object EngineBench {
  val FrameSize = 32 * 1024

  final case class Workload(name: String, spec: RecordSpec, buildKeys: KeyDist, records: Int, memoryFrames: Int) {
    /** The default configuration: Append(8), Largest-Size, NG-NS, Dynamic(20, 20). */
    def config: HHJConfig = HHJConfig(memoryFrames = memoryFrames, frameSize = FrameSize)
  }

  private val FitBytes = 2L << 30

  /** 2 GB of Table-2 "3-Large(10%)" records per side, unique keys, and a
    * frame budget of three times the build: nothing spills.
    */
  val Fit: Workload = {
    val spec = RecordSpec.threeLarge(0.1)
    Workload("engine_fit", spec, KeyDist.Unique, WisconsinGen.cardinalityFor(FitBytes, spec), (3 * FitBytes / FrameSize).toInt)
  }

  /** 1 M All-Small records per side (~1.1 GB), §7.1.1 NormalSkew build keys,
    * 1024 frames (32 MB): data/memory ~33x, so all 20 round-1 partitions
    * spill and recursion reaches depth 2.
    */
  val Spill: Workload = Workload("engine_spill", RecordSpec.AllSmall, KeyDist.NormalSkew, 1000000, 1024)

  final class Inputs(val build: Array[JoinRec[Null]], val probe: Array[JoinRec[Null]]) {
    val bytes: Long = build.iterator.map(_.size.toLong).sum + probe.iterator.map(_.size.toLong).sum

    /** Output count and checksum of a naive hash join over the same inputs. */
    val (refCount, refSum): (Long, Long) = {
      val byKey = new mutable.LongMap[ArrayBuffer[Int]]()
      build.foreach(b => byKey.getOrElseUpdate(b.key, new ArrayBuffer[Int](1)) += b.size)
      var n = 0L; var s = 0L
      probe.foreach { p =>
        byKey.get(p.key).foreach(_.foreach { bs => n += 1; s += Stats.mix(p.key, bs, p.key, p.size) })
      }
      (n, s)
    }
  }

  def inputs(w: Workload, seed: Long): Inputs =
    new Inputs(
      WisconsinGen.records(w.records, w.spec, w.buildKeys, seed).toArray,
      WisconsinGen.records(w.records, w.spec, KeyDist.Unique, seed + 0x9E3779B97F4A7C15L).toArray,
    )

  /** One join's outcome; `layers` holds the per-layer readings. */
  final case class Outcome(seconds: Double, ok: Boolean, signature: String, stats: HHJStats, layers: Map[String, Double])

  /** Every `HHJStats` counter, in a fixed order: the exact part of a run. */
  def signature(s: HHJStats): String = {
    def io(p: String, x: repro.core.spill.IOStats) =
      Seq(s"$p.seqWriteOps" -> x.seqWriteOps, s"$p.seqWriteFrames" -> x.seqWriteFrames,
        s"$p.randWriteOps" -> x.randWriteOps, s"$p.randWriteFrames" -> x.randWriteFrames,
        s"$p.bytesWritten" -> x.bytesWritten, s"$p.readOps" -> x.readOps,
        s"$p.readFrames" -> x.readFrames, s"$p.bytesRead" -> x.bytesRead)
    val fields = Seq[(String, Any)](
      "rounds" -> s.rounds, "inMemoryRounds" -> s.inMemoryRounds, "bnljRounds" -> s.bnljRounds,
      "maxDepthReached" -> s.maxDepthReached, "buildRecordsProcessed" -> s.buildRecordsProcessed,
      "probeRecordsProcessed" -> s.probeRecordsProcessed, "outputRecords" -> s.outputRecords,
      "buildSpillBytes" -> s.buildSpillBytes, "probeSpillBytes" -> s.probeSpillBytes,
      "victimSpills" -> s.victimSpills, "roleReversals" -> s.roleReversals,
      "reloadedPartitions" -> s.reloadedPartitions, "round1Partitions" -> s.round1Partitions,
      "round1SpilledPartitions" -> s.round1SpilledPartitions, "round1ResidentBytes" -> s.round1ResidentBytes,
      "round1BuildSpillBytes" -> s.round1BuildSpillBytes,
      "round1AvgFullness" -> java.lang.Double.doubleToLongBits(s.round1AvgFullness),
      "round1Frames" -> s.round1Frames, "search.framesSearched" -> s.search.framesSearched,
      "search.rngCalls" -> s.search.rngCalls, "search.insertions" -> s.search.insertions,
    ) ++ io("io", s.io) ++ io("buildIo", s.buildIo)
    fields.map { case (k, v) => s"$k=$v" }.mkString("\n")
  }

  def join(w: Workload, in: Inputs, traced: Boolean, work: File, idx: Int): Outcome = {
    val dir    = new File(work, f"engine-spill-$idx%05d")
    val disk   = new DiskSpillStore[Null](dir, Serde.nullSerde)
    val tstore = if (traced) new TracedSpillStore[Null](disk) else null
    val store: SpillStore[Null] = if (traced) tstore else disk
    val cfg = if (traced) Trace.traced(w.config) else w.config
    var n   = 0L
    var sum = 0L
    val consume = (b: JoinRec[Null], p: JoinRec[Null]) => { n += 1; sum += Stats.mix(b.key, b.size, p.key, p.size) }
    val emit    = if (traced) Trace.timedEmit(consume) else consume

    System.gc()
    if (traced) Trace.resetCounters()
    val (gcN0, gcMs0) = Jvm.gcTotals()
    val alloc0        = Jvm.threadAllocated()
    val span          = if (traced) Trace.beginJoin() else 0L
    val t0            = System.nanoTime()
    val stats =
      try DynamicHHJ.join(in.build.iterator, in.probe.iterator, cfg, store, emit)
      catch { case e: Throwable => store.close(); dir.delete(); throw e }
    val t1 = System.nanoTime()
    if (traced) Trace.endJoin(span, s"join:${w.name}", t0, t1)
    val alloc         = Jvm.threadAllocated() - alloc0
    val (gcN1, gcMs1) = Jvm.gcTotals()
    val filesLeft     = if (traced) tstore.filesLeft else 0
    store.close()
    val leftover = Option(dir.list()).map(_.length).getOrElse(0)
    dir.delete()

    val ok = n == in.refCount && sum == in.refSum && stats.outputRecords == n && leftover == 0
    if (!ok)
      Console.err.println(
        s"[perfbench] ${w.name} join $idx check failed: output $n/${in.refCount}, checksum " +
          s"${sum == in.refSum}, stats.outputRecords ${stats.outputRecords}, spill files left after close $leftover")

    val jvm = Map(
      "jvm.alloc_mb" -> alloc / Stats.MB,
      "jvm.gc_s"     -> (gcMs1 - gcMs0) / 1e3,
      "jvm.gc_count" -> (gcN1 - gcN0).toDouble,
    )
    val layers = if (traced) jvm ++ tracedLayers(stats, in, t1 - t0, filesLeft) else jvm
    Outcome((t1 - t0) / 1e9, ok, signature(stats), stats, layers)
  }

  private def tracedLayers(s: HHJStats, in: Inputs, joinNs: Long, filesLeft: Int): Map[String, Double] = {
    import Trace._
    val children = insertion.nanos.sum + victim.nanos.sum + append.nanos.sum + read.nanos.sum + emit.nanos.sum
    val vCalls   = victim.calls.sum
    Map(
      "hhj.self_s"               -> (joinNs - children) / 1e9,
      "hhj.rounds"               -> s.rounds.toDouble,
      "hhj.in_memory_rounds"     -> s.inMemoryRounds.toDouble,
      "hhj.bnlj_rounds"          -> s.bnljRounds.toDouble,
      "hhj.max_depth"            -> s.maxDepthReached.toDouble,
      "hhj.role_reversals"       -> s.roleReversals.toDouble,
      "hhj.output_records"       -> s.outputRecords.toDouble,
      "insertion.calls"          -> insertion.calls.sum.toDouble,
      "insertion.s"              -> insertion.nanos.sum / 1e9,
      "insertion.frames_searched_per_record" ->
        (if (s.search.insertions == 0) 0.0 else s.search.framesSearched.toDouble / s.search.insertions),
      "frames.r1_avg_fullness"     -> (if (s.round1AvgFullness.isNaN) 0.0 else s.round1AvgFullness),
      "frames.r1_frames"           -> s.round1Frames.toDouble,
      "victim.calls"               -> vCalls.toDouble,
      "victim.s"                   -> victim.nanos.sum / 1e9,
      "victim.candidates_per_call" -> (if (vCalls == 0) 0.0 else victimCandidates.sum.toDouble / vCalls),
      "spill.total_mb"             -> s.totalSpillBytes / Stats.MB,
      "spill.build_mb"             -> s.buildSpillBytes / Stats.MB,
      "spill.probe_mb"             -> s.probeSpillBytes / Stats.MB,
      "spill.files"                -> spillFiles.sum.toDouble,
      "spill.append_calls"         -> append.calls.sum.toDouble,
      "spill.append_s"             -> append.nanos.sum / 1e9,
      "spill.read_s"               -> read.nanos.sum / 1e9,
      "spill.read_mb"              -> readBytes.sum / Stats.MB,
      "spill.seq_write_ops"        -> s.io.seqWriteOps.toDouble,
      "spill.rand_write_ops"       -> s.io.randWriteOps.toDouble,
      "spill.files_left"           -> filesLeft.toDouble,
      "emit.calls"                 -> emit.calls.sum.toDouble,
      "emit.s"                     -> emit.nanos.sum / 1e9,
      "storage.modeled_hdd_s"      -> ResponseTimeModel.seconds(s, in.bytes, Device.HDD),
      "storage.modeled_ssd_s"      -> ResponseTimeModel.seconds(s, in.bytes, Device.SSD),
    )
  }

  def run(w: Workload, o: Options): Result = {
    val work     = new File(o.work, "engine")
    val counter  = Iterator.from(0)
    var attempts = 0
    var failures = 0
    val sigs     = ArrayBuffer.empty[String]

    def attempt(in: Inputs, traced: Boolean): Option[Outcome] = {
      attempts += 1
      val out =
        try Some(join(w, in, traced, work, counter.next()))
        catch { case e: Exception => Console.err.println(s"[perfbench] ${w.name} join threw: $e"); None }
      out.foreach(r => sigs += r.signature)
      if (!out.exists(_.ok)) failures += 1
      out
    }

    // Set-up: inputs from the seed and the naive reference join; repeated,
    // and its median reported. The JIT warm-up joins follow, untimed.
    var in: Inputs = null
    val setupTimes = (1 to Harness.SetupReps).map { _ =>
      in = null
      System.gc()
      val t0 = System.nanoTime()
      in = inputs(w, o.seed)
      (System.nanoTime() - t0) / 1e9
    }
    Harness.warmup(Harness.EngineWarmupSeconds)(attempt(in, traced = false))

    val untraced = ArrayBuffer.empty[Outcome]
    val traced   = ArrayBuffer.empty[Outcome]
    Harness.loop(o.seconds) {
      attempt(in, traced = false).foreach(untraced += _)
      if (o.trace) attempt(in, traced = true).foreach(traced += _)
    }

    val exactSame = Harness.exactAcrossRuns(o, sigs.toSeq)

    val joinS = untraced.map(_.seconds).toSeq
    val stats = untraced.headOption.orElse(traced.headOption).map(_.stats)
    println(Stats.describe("setup_s", setupTimes))
    println(Stats.describe("join_s", joinS))
    stats.foreach(s => println(signature(s).replace('\n', ' ')))

    val values =
      if (!o.trace)
        Map(
          "setup_s"    -> Stats.median(setupTimes),
          "join_s_p50" -> Stats.median(joinS),
          "io_mb"      -> stats.map(s => (in.bytes + s.totalSpillBytes) / Stats.MB).getOrElse(0.0),
        )
      else {
        Trace.writeSpans(new File(o.state, s"traces/${w.name}-seed${o.seed}.spans.tsv"))
        Stats.medians(traced.map(_.layers).toSeq) ++ Stats.medians(untraced.map(_.layers).toSeq) ++
          Harness.tracing(joinS, traced.map(_.seconds).toSeq)
      }
    Result(failures == 0 && exactSame, attempts, failures, Metrics.select(o.trace, values))
  }
}
