package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.growth.GrowthCostModel

/** Figure 12: NG-NS vs G-S growth policies for spilled partitions —
  * write volume, sequential/random write counts, and response time with the
  * filesystem cache in use (panels a-d) and bypassed (panels e-h).
  *
  * Paper findings to reproduce:
  *   - both policies write the same volume (d, h);
  *   - G-S does up to ~120x more sequential writes, NG-NS up to ~120x more
  *     random writes (c, g vs e, f — larger inputs widen the gap);
  *   - with direct I/O, NG-NS is clearly slower on HDD (e); the filesystem
  *     cache (elevator) nearly erases the difference (a).
  */
class Fig12GrowthPolicyBench extends AnyFunSuite {

  private lazy val rows = Studies.growthStudy()

  private def at(policy: String, ratio: Double) =
    rows.find(r => r.policy == policy && r.dataMemRatio == ratio).get

  test("Figure 12: growth-policy statistics (paper panels a-h)") {
    println(Studies.growthTable(rows))

    for (ratio <- Seq(1.2, 2.0, 10.0, 20.0, 100.0)) {
      val ngns = at("NG-NS", ratio)
      val gs   = at("G-S", ratio)
      // (d,h): same written volume, within tolerance.
      assert(math.abs(ngns.writtenMB - gs.writtenMB) < 0.35 * math.max(gs.writtenMB, 1.0),
        s"ratio=$ratio: volumes should match (${ngns.writtenMB} vs ${gs.writtenMB})")
      // (e,f): NG-NS does (far) more random writes.
      assert(ngns.randWriteOps > gs.randWriteOps, s"ratio=$ratio random writes")
      // (c,g): G-S writes more frames sequentially.
      assert(gs.seqWriteFrames >= ngns.seqWriteFrames, s"ratio=$ratio sequential frames")
    }

    // The gap widens with the input size (paper: "up to 120x").
    val gapSmall = at("NG-NS", 2.0).randWriteOps.toDouble / math.max(1, at("G-S", 2.0).randWriteOps)
    val gapBig   = at("NG-NS", 100.0).randWriteOps.toDouble / math.max(1, at("G-S", 100.0).randWriteOps)
    println(f"\nrandom-write gap NG-NS/G-S: ratio 2 -> $gapSmall%.1fx, ratio 100 -> $gapBig%.1fx")
    assert(gapBig > gapSmall, "larger inputs should widen the NG-NS random-write excess")
    assert(gapBig > 20, s"the big-input gap should be large (got $gapBig)")

    // (e): without the cache, NG-NS is slower on HDD at big ratios.
    assert(at("NG-NS", 100.0).secondsDirect > 1.5 * at("G-S", 100.0).secondsDirect)
    // (a): the filesystem cache shrinks the difference to near parity.
    val cachedGap = at("NG-NS", 100.0).secondsCached / at("G-S", 100.0).secondsCached
    assert(cachedGap < 1.25, s"cached response times should be close (gap $cachedGap)")
  }

  test("Figure 12 cross-check: measured write split tracks the §6.1 analytical model") {
    // Analytical split for a uniform build: Equation 4 (NG-NS) says the
    // random share of build-phase writes dominates at high data/memory
    // ratios; our engine's measured trace must agree in direction.
    val (rndA, seqA) = GrowthCostModel.ngnsFrames(R = 50000, M = 500, P = 20)
    assert(rndA > seqA)
    val ngns = at("NG-NS", 100.0)
    assert(ngns.randWriteOps > ngns.seqWriteOps, "measured NG-NS writes are mostly random at 100x")
  }
}
