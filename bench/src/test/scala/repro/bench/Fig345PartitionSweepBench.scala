package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import Studies.{SweepInputsMB => Inputs, SweepMemoryMB => MemoryMB}

/** Figures 3, 4 and 5: the §4 number-of-partitions simulation study,
  * scaled from (M = 128 MB, inputs 128 MB - 8 GB) to (M = 16 MB, inputs
  * 16 MB - 1 GB) with identical data/memory ratios of 1x .. 64x.
  *
  * Paper shapes to reproduce:
  *   - Fig 3: with few partitions and data >> memory, spilling explodes
  *     (extra HHJ rounds); it flattens by ~20 partitions.
  *   - Fig 4: sizing later rounds by Eq. 2 removes most of the penalty of a
  *     bad first-round partition count.
  *   - Fig 5: in-memory data rises steeply up to ~20 partitions, then
  *     plateaus (>= 78% of memory for most inputs).
  */
class Fig345PartitionSweepBench extends AnyFunSuite {

  private lazy val fixed   = Studies.partitionSweep(fixedAllRounds = true)
  private lazy val dynamic = Studies.partitionSweep(fixedAllRounds = false)

  test("Figure 3: total spilling vs number of partitions (fixed for all rounds)") {
    println(Studies.sweepTable(3, fixed))
    val at1024 = fixed.filter(_.inputMB == 1024L)
    val p2     = at1024.find(_.partitions == 2).get.spilledMB
    val p20    = at1024.find(_.partitions == 20).get.spilledMB
    assert(p2 > 2.5 * p20, s"few partitions must overspill: P=2 spilled $p2 MB vs P=20 $p20 MB")
    // Spilling decreases toward 20 partitions for every oversized input...
    for (in <- Inputs.filter(_ > MemoryMB)) {
      val a = fixed.find(c => c.inputMB == in && c.partitions == 2).get.spilledMB
      val b = fixed.find(c => c.inputMB == in && c.partitions == 20).get.spilledMB
      assert(a >= b, s"input=$in: spill should not rise from P=2 ($a) to P=20 ($b)")
    }
    // ...and is nearly flat beyond 20 for inputs up to 16x memory (the
    // paper's "most lines are flat before/after this point").
    for (in <- Seq(64L, 256L)) {
      val after = fixed.filter(c => c.inputMB == in && c.partitions >= 20).map(_.spilledMB)
      assert(after.head <= 1.25 * after.min, s"input=$in: beyond P=20 spilling should be flat ($after)")
    }
  }

  test("Figure 4: Eq. 2-sized later rounds remove most of the small-P penalty") {
    println(Studies.sweepTable(4, dynamic))
    for (in <- Seq(256L, 1024L); p <- Seq(2, 4)) {
      val f = fixed.find(c => c.inputMB == in && c.partitions == p).get.spilledMB
      val d = dynamic.find(c => c.inputMB == in && c.partitions == p).get.spilledMB
      assert(d < f, s"input=$in P=$p: dynamic rounds should spill less ($d vs $f)")
    }
  }

  test("Figure 5: in-memory build data plateaus near 20 partitions") {
    println(Studies.sweepTable(5, fixed))
    // For moderately oversized inputs, >= 70% of memory is utilized at 20
    // partitions (paper: most lines above 78% of their memory).
    for (in <- Seq(32L, 64L, 256L)) {
      val res = fixed.find(c => c.inputMB == in && c.partitions == 20).get.residentMB
      assert(res > 0.70 * MemoryMB, s"input=$in resident=$res MB")
    }
    // And few partitions waste memory for big inputs: at 16x memory every
    // partition spills for P <= 8 (nothing resident), while P = 20 retains
    // most of the memory's worth of data.
    val r8  = fixed.find(c => c.inputMB == 256L && c.partitions == 8).get.residentMB
    val r20 = fixed.find(c => c.inputMB == 256L && c.partitions == 20).get.residentMB
    assert(r20 > r8, s"P=20 should keep more data in memory than P=8 ($r20 vs $r8)")
  }
}
