package repro.sim

import org.scalatest.funsuite.AnyFunSuite

import repro.core.hhj.Shapiro

class ShapiroSpec extends AnyFunSuite {

  private val frameSize = 32 * 1024
  private def mb(n: Long): Long = n * 1024 * 1024

  /** Paper Table 1: build size (MB) → partitions, with M = 128 MB. */
  private val table1 = Seq(
    64L -> 2, 128L -> 2, 256L -> 2, 512L -> 5,
    1024L -> 10, 2048L -> 20, 4096L -> 41, 8192L -> 83,
  )

  private val memoryFrames = mb(128) / frameSize // 4096 frames

  for ((buildMB, expected) <- table1)
    test(s"Table 1: build ${buildMB} MB with 128 MB memory gives $expected partitions") {
      val buildFrames = mb(buildMB) / frameSize
      assert(Shapiro.table1Partitions(buildFrames, memoryFrames) == expected)
    }

  test("diskPartitions is non-positive when the build fits in memory") {
    assert(Shapiro.diskPartitions(100, 4096, 1.3) <= 0)
  }

  test("diskPartitions grows monotonically with the build size") {
    val vals = (1 to 40).map(i => Shapiro.diskPartitions(i * 1000L, 500, 1.3))
    assert(vals == vals.sorted)
  }

  test("table1Partitions never drops below the HHJ minimum of 2") {
    assert(Shapiro.table1Partitions(1, 4096) == 2)
  }

  test("roundPartitions applies the paper's default lower bound of 20") {
    // A build slightly larger than memory would get few Eq.-2 partitions;
    // the §4 lower bound lifts it to 20.
    val p = Shapiro.roundPartitions(buildFrames = 5000, memoryFrames = 4096, lowerBound = 20)
    assert(p == 20)
  }

  test("roundPartitions keeps Eq. 2 when it already exceeds the lower bound") {
    val p = Shapiro.roundPartitions(buildFrames = mb(4096) / frameSize, memoryFrames = 4096, lowerBound = 20)
    assert(p == 41)
  }

  test("roundPartitions never exceeds memoryFrames - 1") {
    val p = Shapiro.roundPartitions(buildFrames = 100000, memoryFrames = 16, lowerBound = 20)
    assert(p == 15)
  }

  test("roundPartitions caps the lower bound by available memory") {
    val p = Shapiro.roundPartitions(buildFrames = 10, memoryFrames = 8, lowerBound = 20)
    assert(p >= 2 && p <= 7)
  }

  // ---------------- Ideal-spill baseline ----------------

  test("ideal spill is zero when the build (with fudge) fits in memory") {
    assert(Shapiro.idealBuildSpillBytes(mb(64), 4096, frameSize) == 0)
  }

  test("ideal spill is positive once the build exceeds memory/fudge") {
    assert(Shapiro.idealBuildSpillBytes(mb(128), 4096, frameSize) > 0)
  }

  test("ideal spill grows with the build size and approaches the full input") {
    val spills = Seq(mb(256), mb(512), mb(1024), mb(4096)).map(b => Shapiro.idealBuildSpillBytes(b, 4096, frameSize))
    assert(spills == spills.sorted)
    // For build >> memory, nearly everything must spill.
    assert(spills.last > mb(4096) * 90 / 100)
  }

  test("ideal spill is never negative nor more than the build size") {
    for (bmb <- Seq(1L, 16L, 100L, 1000L)) {
      val s = Shapiro.idealBuildSpillBytes(mb(bmb), 512, frameSize)
      assert(s >= 0 && s <= mb(bmb))
    }
  }
}
