package repro.core.hhj

import repro.core.insertion.SearchStats
import repro.core.spill.IOStats

/** Execution statistics of one Dynamic HHJ run — every metric the paper's
  * evaluation plots: spilled volume (Figs 3-4, 13-17), resident data
  * (Fig 5), frame fullness and search effort (Figs 6-11), and the
  * sequential/random write pattern (Fig 12).
  */
final class HHJStats {
  val io     = new IOStats
  /** Build-phase writes only — the scope of the paper's Figure-12 and §6.1
    * sequential/random comparisons ("their I/O pattern during the build
    * phase"). A subset of `io`.
    */
  val buildIo = new IOStats
  val search  = new SearchStats

  /** Partitioned HHJ rounds executed (round 1 included). */
  var rounds = 0
  /** Rounds resolved by the §8.3 in-memory hash join shortcut. */
  var inMemoryRounds = 0
  /** Rounds resolved by §8.1 bail-out to block nested loop join. */
  var bnljRounds = 0
  /** Deepest recursion level reached (round 1 = depth 0). */
  var maxDepthReached = 0

  var buildRecordsProcessed = 0L
  var probeRecordsProcessed = 0L
  var outputRecords         = 0L

  /** Bytes of build-side records written to spill files (all rounds). */
  def buildSpillBytes: Long = buildIo.bytesWritten
  /** Bytes of probe-side records written to spill files (all rounds). */
  def probeSpillBytes: Long = io.bytesWritten - buildIo.bytesWritten
  def totalSpillBytes: Long = io.bytesWritten
  /** Victim-selection events across all rounds. */
  var victimSpills = 0L
  /** §8.2 role reversals and §8.5 reloaded partitions. */
  var roleReversals      = 0L
  var reloadedPartitions = 0L
  /** Probe records bound for a spilled partition that the probe filter
    * dropped (see [[HHJConfig.probeFilter]]); also counted as processed.
    */
  var probeFiltered = 0L
  /** Most frames in use at once in any round, block joins included: never
    * above `HHJConfig.memoryFrames`.
    */
  var peakFrames = 0

  // ---- Round-1 (first build phase) metrics ----
  var round1Partitions        = 0
  var round1SpilledPartitions = 0
  /** Build data remaining in memory at the end of the round-1 build phase
    * (the Figure-5 metric).
    */
  var round1ResidentBytes = 0L
  /** Build bytes spilled during round 1 (numerator of the Figures 13-17
    * actual/ideal spill ratio): `buildSpillBytes` when round 1 ends.
    */
  var round1BuildSpillBytes = 0L
  /** Average frame fullness over all in-memory frames at the end of the
    * round-1 build phase (the Figures 6-11 metric).
    */
  var round1AvgFullness = Double.NaN
  var round1Frames      = 0
}
