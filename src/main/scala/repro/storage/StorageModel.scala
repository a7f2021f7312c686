package repro.storage

import repro.core.hhj.HHJStats

/** An analytic storage device: the substitute for the paper's physical HDD,
  * SSD and Amazon EBS volumes (see DESIGN.md, substitutions). Parameters
  * are public device-class characteristics; the reproduced findings are
  * orderings and ratios, not absolute seconds.
  *
  * @param seqReadMBps  sustained sequential read bandwidth
  * @param seqWriteMBps sustained sequential write bandwidth
  * @param randIOPS     random (frame-sized) I/O operations per second
  */
final case class Device(name: String, seqReadMBps: Double, seqWriteMBps: Double, randIOPS: Double)

object Device {
  /** 7.2k SATA drive: fast sequential, catastrophic random. */
  val HDD = Device("HDD", 160, 150, 180)
  /** SATA SSD. */
  val SSD = Device("SSD", 530, 500, 60000)
  /** Amazon EBS gp2-class volume: throughput- and IOPS-capped. */
  val EBS = Device("EBS", 250, 250, 3000)
}

/** Maps an execution's exact I/O trace + CPU counters to a simulated
  * response time on a device, with or without the filesystem cache.
  *
  * With the cache enabled, the OS elevator coalesces the (frame-sized)
  * random writes into near-sequential ones — the §6.2 finding that a modest
  * filesystem cache erases the NG-NS vs G-S gap — so writes are priced at
  * sequential bandwidth plus a per-call syscall overhead.
  */
object ResponseTimeModel {
  private val SyscallNs = 2000.0

  // CPU cost constants (nanoseconds per operation), calibrated to JVM-scale
  // record handling: the per-record pipeline cost dominates; each frame
  // probed during partition insertion adds a small constant; RNG draws cost
  // extra (the paper blames Random(%p)'s response time on exactly this).
  val PerRecordNs        = 1500.0
  val PerFrameSearchedNs = 40.0
  val PerRngCallNs       = 120.0

  def cpuSeconds(stats: HHJStats): Double = {
    val records = stats.buildRecordsProcessed + stats.probeRecordsProcessed + stats.outputRecords
    (records * PerRecordNs +
      stats.search.framesSearched * PerFrameSearchedNs +
      stats.search.rngCalls * PerRngCallNs) / 1e9
  }

  def ioSeconds(stats: HHJStats, inputBytes: Long, dev: Device, fsCache: Boolean): Double = {
    val io    = stats.io
    val readS = (inputBytes + io.bytesRead) / (dev.seqReadMBps * 1e6)
    val writeS =
      if (fsCache)
        io.bytesWritten / (dev.seqWriteMBps * 1e6) + io.writeOps * SyscallNs / 1e9
      else {
        val seqBytes  = io.seqWriteFrames.toDouble / math.max(1L, io.framesWritten) * io.bytesWritten
        val randBytes = io.bytesWritten - seqBytes
        seqBytes / (dev.seqWriteMBps * 1e6) +
          io.randWriteOps / dev.randIOPS +
          randBytes / (dev.seqWriteMBps * 1e6)
      }
    readS + writeS
  }

  /** End-to-end simulated response time in seconds.
    *
    * @param inputBytes bytes of base input scanned (build + probe)
    */
  def seconds(stats: HHJStats, inputBytes: Long, dev: Device, fsCache: Boolean = true): Double =
    cpuSeconds(stats) + ioSeconds(stats, inputBytes, dev, fsCache)
}
