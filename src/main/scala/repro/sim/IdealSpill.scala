package repro.sim

import repro.core.hhj.Shapiro

/** "Ideal spilling": the least build-phase spill possible, computed the way
  * the paper's baseline simulator does — an original HHJ with perfect a
  * priori size information and a fudge factor of 1.4 (§7.1).
  */
object IdealSpill {

  /** Minimum build bytes that must spill given build size and memory. */
  def idealBuildSpillBytes(
      buildBytes: Long,
      memoryFrames: Int,
      frameSize: Int,
      fudge: Double = 1.4,
  ): Long = {
    val capacity = memoryFrames.toLong * frameSize
    if (buildBytes * fudge <= capacity) 0L
    else {
      val buildFrames = math.ceil(buildBytes.toDouble / frameSize).toLong
      val b           = math.max(1L, Shapiro.diskPartitions(buildFrames, memoryFrames.toLong, fudge))
      // One output frame per disk partition; what remains holds the
      // memory-resident partition (shrunk by the fudge factor).
      val residentBytes = math.max(0L, (memoryFrames - b) * frameSize.toLong) / fudge
      math.max(0L, buildBytes - residentBytes.toLong)
    }
  }
}
