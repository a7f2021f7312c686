package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.wisconsin.{KeyDist, RecordSpec}

/** Figures 13-17: the 13 victim selection policies under join-attribute
  * skew (Fig 13), variable record sizes (Figs 14-15), and both combined
  * (Figs 16-17). Metric: round-1 build-phase spilled bytes over the ideal
  * spill of a perfectly-informed HHJ (fudge 1.4).
  *
  * Paper findings to reproduce:
  *   - Fig 13a (no skew, uniform sizes): all 13 policies perform alike.
  *   - Fig 13b (skew): Largest-* overspill just above memory, Smallest-*
  *     overspill at high ratios; overall differences stay modest.
  *   - Figs 14-17: Largest-Size / Largest-Records are among the least
  *     spilling policies in most points; policies differ in I/O pattern
  *     (Largest-* sequential, Smallest-* random).
  */
class Fig1317VictimBench extends AnyFunSuite {

  private val Ratios = Seq(1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

  private def ratiosSane(rows: Seq[Studies.VictimRow]): Unit =
    rows.foreach { r =>
      assert(r.spilledRatio.isNaN || (r.spilledRatio > 0.5 && r.spilledRatio < 15),
        s"${r.policy} at x${r.dataMemRatio}: implausible spilled ratio ${r.spilledRatio}")
    }

  test("Figure 13a: no skew - all victim policies perform alike") {
    val rows = Studies.victimStudy(RecordSpec.AllSmall, KeyDist.Unique, Ratios)
    println(Studies.victimTable(13, 0.0, KeyDist.Unique, rows))
    ratiosSane(rows)
    for (rt <- Ratios.drop(1)) { // skip the near-memory point, tiny denominators amplify noise
      val at = rows.filter(r => r.dataMemRatio == rt).map(_.spilledRatio)
      assert(at.max / at.min < 1.6, s"x$rt: policies should be similar without skew ($at)")
    }
  }

  test("Figure 13b: skewed keys separate the policies") {
    val rows = Studies.victimStudy(RecordSpec.AllSmall, KeyDist.NormalSkew, Ratios)
    println(Studies.victimTable(13, 0.0, KeyDist.NormalSkew, rows))
    ratiosSane(rows)
    // Paper: Largest-* overspills when data is only slightly larger than
    // memory (the skewed fat partition is dumped whole).
    val largestLow  = rows.find(r => r.policy == "Largest-Size" && r.dataMemRatio == 1.2).get.spilledRatio
    val smallestLow = rows.find(r => r.policy == "Smallest-Size" && r.dataMemRatio == 1.2).get.spilledRatio
    assert(largestLow > smallestLow, s"near memory: Largest-Size ($largestLow) should overspill vs Smallest-Size ($smallestLow)")
  }

  private def largestAmongBest(rows: Seq[Studies.VictimRow], tag: String): Unit = {
    // At the highest data/memory ratio, Largest-Size spills no more than
    // the policy median (paper: Largest-* are the best performers there).
    val rt   = Ratios.last
    val at   = rows.filter(_.dataMemRatio == rt)
    val ls   = at.find(_.policy == "Largest-Size").get.spilledRatio
    val med  = at.map(_.spilledRatio).sorted.apply(at.size / 2)
    assert(ls <= med * 1.05, s"$tag x$rt: Largest-Size ($ls) should be at or below the median ($med)")
  }

  for ((fig, spec) <- Seq(14 -> RecordSpec.oneLarge _, 15 -> RecordSpec.threeLarge _);
       pct <- Seq(0.1, 0.5, 0.9)) {
    val dsName = if (fig == 14) "1-Large" else "3-Large"
    test(f"Figure $fig: $dsName Coexist, ${(pct * 100).toInt}%% large records") {
      val rows = Studies.victimStudy(spec(pct), KeyDist.Unique, Ratios)
      println(Studies.victimTable(fig, pct, KeyDist.Unique, rows))
      ratiosSane(rows)
      largestAmongBest(rows, s"Figure $fig")
    }
  }

  for ((fig, spec) <- Seq(16 -> RecordSpec.oneLarge _, 17 -> RecordSpec.threeLarge _);
       pct <- Seq(0.1, 0.5, 0.9)) {
    val dsName = if (fig == 16) "1-Large" else "3-Large"
    test(f"Figure $fig: skew + $dsName Coexist, ${(pct * 100).toInt}%% large records") {
      val rows = Studies.victimStudy(spec(pct), KeyDist.NormalSkew, Ratios)
      println(Studies.victimTable(fig, pct, KeyDist.NormalSkew, rows))
      ratiosSane(rows)
    }
  }

  test("victim policies differ in I/O pattern: Largest-* sequential, Smallest-* random") {
    val rows = Studies.victimStudy(RecordSpec.AllSmall, KeyDist.Unique, Seq(4.0))
    val ls   = rows.find(_.policy == "Largest-Size").get
    val ss   = rows.find(_.policy == "Smallest-Size").get
    println(f"\nI/O pattern at x4: Largest-Size seqFrames=${ls.seqWriteFrames} randOps=${ls.randWriteOps}; " +
      f"Smallest-Size seqFrames=${ss.seqWriteFrames} randOps=${ss.randWriteOps}")
    assert(ls.seqWriteFrames.toDouble / math.max(1, ls.randWriteOps) >
      ss.seqWriteFrames.toDouble / math.max(1, ss.randWriteOps),
      "Largest-Size should have a more sequential write mix than Smallest-Size")
  }
}
