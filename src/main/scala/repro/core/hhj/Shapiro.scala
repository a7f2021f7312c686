package repro.core.hhj

/** Shapiro's partition-count formula (paper Equation 2, [50]).
  *
  * B = ceil((|R| * F - |M|) / (|M| - 1)) disk-resident partitions for build
  * size R frames, memory M frames, fudge factor F. The paper's Table 1 (its
  * only numeric evaluation table) reports max(2, B) with F = 1.3; we
  * reproduce that exactly (`table1Partitions`). The paper's ideal-spill
  * simulator of §7.1 instead uses F = 1.4 (`idealBuildSpillBytes`'s
  * default, which `Studies.victimStudy` lowers to 1.0; DESIGN §3).
  */
object Shapiro {

  /** Table 1's fudge factor F, the one `table1Partitions` and
    * `roundPartitions` use.
    */
  val Fudge = 1.3

  /** Raw Equation 2: disk-resident partition count (can be <= 0 when the
    * build fits in memory).
    */
  def diskPartitions(buildFrames: Long, memoryFrames: Long, fudge: Double): Long = {
    require(memoryFrames >= 2)
    math.ceil((buildFrames * fudge - memoryFrames) / (memoryFrames - 1).toDouble).toLong
  }

  /** Partition count as reported in Table 1: Equation 2 with the HHJ
    * minimum of two partitions applied.
    */
  def table1Partitions(buildFrames: Long, memoryFrames: Long): Int =
    math.max(2L, diskPartitions(buildFrames, memoryFrames, Fudge)).toInt

  /** Partition count for a later HHJ round with known build size: Equation 2
    * clamped to the paper's recommended range — at least `lowerBound`
    * (default 20, §4's contribution), at most memoryFrames - 1 (every
    * partition needs an output frame, and one frame reads input).
    */
  def roundPartitions(buildFrames: Long, memoryFrames: Long, lowerBound: Int = 20): Int = {
    val eq2 = math.max(2L, diskPartitions(buildFrames, memoryFrames, Fudge))
    val lo  = math.max(2, math.min(lowerBound, (memoryFrames - 1).toInt))
    math.min(math.max(eq2, lo), memoryFrames - 1).toInt
  }

  /** "Ideal spilling": the minimum build bytes that must spill given build
    * size and memory, computed the way the paper's baseline simulator does
    * — an original HHJ with perfect a priori size information and a fudge
    * factor of 1.4 (§7.1).
    */
  def idealBuildSpillBytes(
      buildBytes: Long,
      memoryFrames: Int,
      frameSize: Int,
      fudge: Double = 1.4,
  ): Long = {
    val capacity = memoryFrames.toLong * frameSize
    if (buildBytes * fudge <= capacity) 0L
    else {
      val buildFrames   = math.ceil(buildBytes.toDouble / frameSize).toLong
      val b             = math.max(1L, diskPartitions(buildFrames, memoryFrames.toLong, fudge))
      // One output frame per disk partition; what remains holds the
      // memory-resident partition (shrunk by the fudge factor).
      val residentBytes = math.max(0L, (memoryFrames - b) * frameSize.toLong) / fudge
      math.max(0L, buildBytes - residentBytes.toLong)
    }
  }
}
