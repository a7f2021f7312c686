package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.wisconsin.RecordSpec

/** Figures 9, 10 and 11: the six partition insertion algorithms on
  * All-Small, 3-Large-Coexist and 1-Large-Coexist records — average frame
  * fullness and (modeled) response time on HDD / SSD / EBS.
  *
  * Paper findings to reproduce:
  *   - Fig 9 (small records): all policies reach similar, high fullness;
  *     Best-Fit has by far the worst response time (exhaustive search),
  *     Append(8) the best; HDD is the slowest device.
  *   - Figs 10/11: fullness drops as the large-record share grows; the drop
  *     is worse for 1-Large than 3-Large; Best-Fit remains the slowest.
  */
class Fig91011InsertionBench extends AnyFunSuite {

  private def runAndPrint(fig: Int, largeRatio: Double, spec: RecordSpec): Seq[Studies.InsertionRow] = {
    val rows = Studies.insertionStudy(Studies.standardInsertionPolicies(), spec)
    println(Studies.insertionTable(fig, largeRatio, rows))
    rows
  }

  private def bestFitSlowest(rows: Seq[Studies.InsertionRow]): Unit = {
    val bf = rows.find(_.policy == "Best-Fit").get
    rows.filterNot(_.policy == "Best-Fit").foreach { r =>
      assert(bf.secondsHDD >= r.secondsHDD, s"Best-Fit should be slowest on HDD (vs ${r.policy})")
      assert(bf.secondsSSD >= r.secondsSSD, s"Best-Fit should be slowest on SSD (vs ${r.policy})")
    }
  }

  private def append8Fastest(rows: Seq[Studies.InsertionRow]): Unit = {
    val a8 = rows.find(_.policy == "Append(8)").get
    rows.foreach(r => assert(a8.framesSearched <= r.framesSearched, s"Append(8) vs ${r.policy}"))
  }

  test("Figure 9: small records - fullness and response time per device") {
    val rows = runAndPrint(9, 0.0, RecordSpec.AllSmall)
    // High and similar fullness; Random's bounded blind probing sits a bit
    // lower (visible in the paper's Fig 9a as well).
    rows.foreach(r =>
      assert(r.frameFullness > (if (r.policy.startsWith("Random")) 0.75 else 0.9), r.policy))
    val directed = rows.filterNot(_.policy.startsWith("Random"))
    assert(directed.map(_.frameFullness).max - directed.map(_.frameFullness).min < 0.1)
    bestFitSlowest(rows); append8Fastest(rows)
    rows.foreach(r => assert(r.secondsHDD > r.secondsSSD, s"${r.policy}: HDD must be slower than SSD"))
    rows.foreach(r => assert(r.secondsEBS > r.secondsSSD, s"${r.policy}: EBS gp2 is slower than local SSD"))
  }

  for (ratio <- Studies.LargeRatios)
    test(f"Figure 10: 3-Large Coexist at ${(ratio * 100).toInt}%% large records") {
      val rows = runAndPrint(10, ratio, RecordSpec.threeLarge(ratio))
      bestFitSlowest(rows)
    }

  for (ratio <- Studies.LargeRatios)
    test(f"Figure 11: 1-Large Coexist at ${(ratio * 100).toInt}%% large records") {
      val rows = runAndPrint(11, ratio, RecordSpec.oneLarge(ratio))
      bestFitSlowest(rows)
    }

  test("Figures 10/11: fullness falls as the large-record share rises; 1-Large is worst") {
    def fullness(spec: RecordSpec): Double =
      Studies.insertionStudy(Seq(Studies.standardInsertionPolicies().head), spec).head.frameFullness
    val one10  = fullness(RecordSpec.oneLarge(0.1))
    val one50  = fullness(RecordSpec.oneLarge(0.5))
    val one90  = fullness(RecordSpec.oneLarge(0.9))
    val three90 = fullness(RecordSpec.threeLarge(0.9))
    println(f"\nfullness 1-Large: 10%%=$one10%.3f 50%%=$one50%.3f 90%%=$one90%.3f; 3-Large 90%%=$three90%.3f")
    assert(one10 > one50 && one50 > one90, "paper: 90% -> 62% -> 60% fullness as large share rises")
    assert(one10 > 0.8, "mostly-small records keep frames full")
    assert(one90 < 0.75, "one large record per frame caps fullness")
    assert(three90 > one90, "3 coexisting large records pack better than 1")
  }
}
