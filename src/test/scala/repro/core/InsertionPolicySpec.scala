package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.frames.{FramePool, JoinRec, PartitionState}
import repro.core.insertion._

class InsertionPolicySpec extends AnyFunSuite {

  /** A partition whose frames have the given free space (capacity 1000). */
  private def partitionWithFree(free: Int*): PartitionState[Null] = partition(0, free: _*)

  /** Partition `id` whose frames have the given free space (capacity 1000). */
  private def partition(id: Int, free: Int*): PartitionState[Null] = {
    val pool = new FramePool(Int.MaxValue)
    val p    = new PartitionState[Null](id, 1000)
    free.foreach { fr =>
      p.takeFrame(pool)
      if (fr < 1000) p.insertInto(p.frames.size - 1, JoinRec(0L, 1000 - fr, null))
    }
    p
  }

  private def stats = new SearchStats

  // ---------------- Append(n) ----------------

  test("Append searches newest frame first") {
    val p = partitionWithFree(500, 500)
    assert(Append(2).chooseFrame(p, 100, stats) == 1)
  }

  test("Append(n) looks at most n frames back") {
    val p = partitionWithFree(900, 0, 0) // only the oldest frame fits
    assert(Append(2).chooseFrame(p, 100, stats) == -1)
    assert(Append(3).chooseFrame(p, 100, stats) == 0)
  }

  test("Append counts searched frames") {
    val p = partitionWithFree(0, 0, 0, 0)
    val s = stats
    assert(Append(3).chooseFrame(p, 100, s) == -1)
    assert(s.framesSearched == 3)
  }

  test("Append on empty partition requests a new frame without searching") {
    val s = stats
    assert(Append(8).chooseFrame(new PartitionState[Null](0, 1000), 10, s) == -1)
    assert(s.framesSearched == 0)
  }

  test("Append stops at first fitting frame (no further search)") {
    val p = partitionWithFree(500, 500, 500)
    val s = stats
    assert(Append(3).chooseFrame(p, 100, s) == 2)
    assert(s.framesSearched == 1)
  }

  test("Append rejects frames with insufficient space even if nearly enough") {
    val p = partitionWithFree(99)
    assert(Append(8).chooseFrame(p, 100, stats) == -1)
  }

  // ---------------- First-Fit ----------------

  test("FirstFit searches newest to oldest and stops at first fit") {
    val p = partitionWithFree(300, 0, 0)
    assert(FirstFit.chooseFrame(p, 100, stats) == 0)
  }

  test("FirstFit searches all frames in the worst case") {
    val p = partitionWithFree(0, 0, 0, 0, 0)
    val s = stats
    assert(FirstFit.chooseFrame(p, 100, s) == -1)
    assert(s.framesSearched == 5)
  }

  test("FirstFit prefers the newest fitting frame") {
    val p = partitionWithFree(500, 500)
    assert(FirstFit.chooseFrame(p, 100, stats) == 1)
  }

  // ---------------- First-Fit(%p) ----------------

  test("FirstFitPct limits the search to a fraction of frames") {
    val p = partitionWithFree(900, 0, 0, 0, 0, 0, 0, 0, 0, 0) // fit only in oldest
    assert(FirstFitPct(0.10).chooseFrame(p, 100, stats) == -1) // checks 1 of 10
    assert(FirstFitPct(1.0).chooseFrame(p, 100, stats) == 0)
  }

  test("FirstFitPct rounds the limit up (at least one frame)") {
    val p = partitionWithFree(500)
    val s = stats
    assert(FirstFitPct(0.10).chooseFrame(p, 100, s) == 0)
    assert(s.framesSearched == 1)
  }

  test("FirstFitPct(100%) behaves like FirstFit") {
    val p = partitionWithFree(0, 300, 0, 0)
    assert(FirstFitPct(1.0).chooseFrame(p, 100, stats) == FirstFit.chooseFrame(p, 100, stats))
  }

  // ---------------- Best-Fit ----------------

  test("BestFit picks the tightest fitting frame") {
    val p = partitionWithFree(500, 150, 300)
    assert(BestFit.chooseFrame(p, 100, stats) == 1)
  }

  test("BestFit always searches every frame") {
    val p = partitionWithFree(500, 150, 300)
    val s = stats
    BestFit.chooseFrame(p, 100, s)
    assert(s.framesSearched == 3)
  }

  test("BestFit returns -1 when nothing fits") {
    val p = partitionWithFree(10, 20, 30)
    assert(BestFit.chooseFrame(p, 100, stats) == -1)
  }

  test("BestFit prefers an exact fit") {
    val p = partitionWithFree(200, 100, 400)
    assert(BestFit.chooseFrame(p, 100, stats) == 1)
  }

  test("BestFit ties break toward the newest frame scanned last... (deterministic)") {
    // Scan is newest→oldest with strict improvement, so the newest of two
    // equal-free frames wins.
    val p = partitionWithFree(200, 200)
    assert(BestFit.chooseFrame(p, 100, stats) == 1)
  }

  // ---------------- Next-Fit ----------------

  test("NextFit first record searches newest to oldest") {
    val p  = partitionWithFree(0, 400)
    val nf = new NextFit
    assert(nf.chooseFrame(p, 100, stats) == 1)
  }

  test("NextFit resumes from the previous insertion point for larger records") {
    val p  = partitionWithFree(400, 400, 400)
    val nf = new NextFit
    nf.inserted(p, 1, 50)
    // larger than previous → search toward newer frames starting at cursor
    assert(nf.chooseFrame(p, 100, stats) == 1)
    p.frames(1).insert(JoinRec(0L, 350, null)) // fill frame 1
    assert(nf.chooseFrame(p, 100, stats) == 2)
  }

  test("NextFit searches older frames first for smaller records") {
    val p  = partitionWithFree(400, 0, 400)
    val nf = new NextFit
    nf.inserted(p, 1, 300)
    assert(nf.chooseFrame(p, 100, stats) == 0)
  }

  test("NextFit falls back to newer frames when older ones are full") {
    val p  = partitionWithFree(0, 0, 400)
    val nf = new NextFit
    nf.inserted(p, 1, 300)
    assert(nf.chooseFrame(p, 100, stats) == 2)
  }

  test("NextFit on empty partition requests a new frame") {
    assert(new NextFit().chooseFrame(new PartitionState[Null](0, 1000), 10, stats) == -1)
  }

  test("NextFit keeps one cursor per partition") {
    val a  = partition(0, 400, 400, 400)
    val b  = partition(1, 400, 400, 400)
    val nf = new NextFit
    nf.inserted(a, 0, 50)
    nf.inserted(b, 2, 50)
    // Larger records: each partition scans up from its own cursor.
    assert(nf.chooseFrame(a, 100, stats) == 0)
    assert(nf.chooseFrame(b, 100, stats) == 2)
    nf.inserted(a, 1, 300)
    nf.inserted(b, 2, 60)
    // A smaller record scans down from a's cursor; b's scans up from 2.
    assert(nf.chooseFrame(a, 100, stats) == 1)
    assert(nf.chooseFrame(b, 100, stats) == 2)
  }

  // ---------------- Random(%p) ----------------

  test("RandomPct finds a frame when most frames fit") {
    val p = partitionWithFree(500, 500, 500, 500, 500, 500, 500, 500, 500, 500)
    val r = new RandomPct(0.5, seed = 1)
    assert(r.chooseFrame(p, 100, stats) >= 0)
  }

  test("RandomPct gives up after its try budget") {
    val p = partitionWithFree(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    val s = stats
    assert(new RandomPct(0.3, seed = 1).chooseFrame(p, 100, s) == -1)
    assert(s.framesSearched == 3) // ceil(10 * 0.3)
  }

  test("RandomPct counts RNG calls") {
    val p = partitionWithFree(0, 0, 0, 0, 0)
    val s = stats
    new RandomPct(1.0, seed = 1).chooseFrame(p, 100, s)
    assert(s.rngCalls == 5)
  }

  test("RandomPct is deterministic under a fixed seed") {
    def run(): Seq[Int] = {
      val r = new RandomPct(0.5, seed = 99)
      (0 until 20).map { _ =>
        val p = partitionWithFree(500, 0, 500, 0, 500, 0)
        r.chooseFrame(p, 100, stats)
      }
    }
    assert(run() == run())
  }

  test("RandomPct on empty partition requests a new frame") {
    assert(new RandomPct(0.1, 1).chooseFrame(new PartitionState[Null](0, 1000), 10, stats) == -1)
  }

  // ---------------- Cross-policy properties ----------------

  private val allPolicies: Seq[() => InsertionPolicy] = Seq(
    () => Append(8),
    () => FirstFit,
    () => FirstFitPct(0.10),
    () => BestFit,
    () => new NextFit,
    () => new RandomPct(0.10, 5),
  )

  test("every policy only returns frames that actually fit the record") {
    val rnd = new java.util.Random(3)
    allPolicies.foreach { mk =>
      val pol  = mk()
      val pool = new FramePool(Int.MaxValue)
      val p    = new PartitionState[Null](0, 1000)
      (0 until 500).foreach { _ =>
        val size = 1 + rnd.nextInt(400)
        val idx  = pol.chooseFrame(p, size, stats)
        if (idx >= 0) {
          assert(p.frames(idx).free >= size, s"${pol.name} chose a frame without room")
          p.insertInto(idx, JoinRec(rnd.nextLong(), size, null))
          pol.inserted(p, idx, size)
        } else {
          p.takeFrame(pool)
          p.insertInto(p.frames.size - 1, JoinRec(rnd.nextLong(), size, null))
          pol.inserted(p, p.frames.size - 1, size)
        }
      }
      assert(p.recordsInMemory == 500)
    }
  }

  test("small same-size records: all policies achieve high fullness") {
    allPolicies.foreach { mk =>
      val pol  = mk()
      val pool = new FramePool(Int.MaxValue)
      val p    = new PartitionState[Null](0, 1000)
      val rnd  = new java.util.Random(11)
      (0 until 1000).foreach { _ =>
        val size = 40 + rnd.nextInt(20)
        val idx  = pol.chooseFrame(p, size, stats)
        if (idx >= 0) { p.insertInto(idx, JoinRec(0L, size, null)); pol.inserted(p, idx, size) }
        else {
          p.takeFrame(pool); p.insertInto(p.frames.size - 1, JoinRec(0L, size, null))
          pol.inserted(p, p.frames.size - 1, size)
        }
      }
      val fullness = p.frames.map(_.fullness).sum / p.frames.size
      // Random's bounded random probing settles lower than directed search.
      val floor = if (pol.name.startsWith("Random")) 0.70 else 0.85
      assert(fullness > floor, s"${pol.name}: fullness $fullness")
    }
  }

  test("BestFit searches no fewer frames than Append(8) on the same stream") {
    def effort(pol: InsertionPolicy): Long = {
      val s    = new SearchStats
      val pool = new FramePool(Int.MaxValue)
      val p    = new PartitionState[Null](0, 1000)
      val rnd  = new java.util.Random(7)
      (0 until 2000).foreach { _ =>
        val size = 100 + rnd.nextInt(500)
        val idx  = pol.chooseFrame(p, size, s)
        if (idx >= 0) { p.insertInto(idx, JoinRec(0L, size, null)); pol.inserted(p, idx, size) }
        else {
          p.takeFrame(pool); p.insertInto(p.frames.size - 1, JoinRec(0L, size, null))
          pol.inserted(p, p.frames.size - 1, size)
        }
      }
      s.framesSearched
    }
    assert(effort(BestFit) > effort(Append(8)))
  }

  test("policy parameter validation") {
    intercept[IllegalArgumentException](Append(0))
    intercept[IllegalArgumentException](FirstFitPct(0.0))
    intercept[IllegalArgumentException](FirstFitPct(1.5))
    intercept[IllegalArgumentException](new RandomPct(0.0, 1))
  }

  test("policy names are descriptive") {
    assert(Append(8).name == "Append(8)")
    assert(FirstFitPct(0.10).name == "First-Fit(10%)")
    assert(new RandomPct(0.10, 1).name == "Random(10%)")
    assert(FirstFit.name == "First-Fit")
    assert(BestFit.name == "Best-Fit")
    assert(new NextFit().name == "Next-Fit")
  }
}
