package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.frames.{FramePool, JoinRec, PartitionState}
import repro.core.victim._

class VictimPolicySpec extends AnyFunSuite {

  /** Build candidate partitions from (id, recordCount, recordSize) specs. */
  private def parts(specs: (Int, Int, Int)*): IndexedSeq[PartitionState[Null]] =
    specs.map { case (id, nRecs, recSize) =>
      val pool = new FramePool(Int.MaxValue)
      val p    = new PartitionState[Null](id, 32 * 1024)
      (0 until nRecs).foreach { _ =>
        if (p.frames.isEmpty || p.frames.last.free < recSize) p.takeFrame(pool)
        p.insertInto(p.frames.size - 1, JoinRec(0L, recSize, null))
      }
      p
    }.toIndexedSeq

  /** Partition `id` with one frame per entry of `used`, holding one record of that size. */
  private def framesUsed(id: Int, used: Int*): PartitionState[Null] = {
    val pool = new FramePool(Int.MaxValue)
    val p    = new PartitionState[Null](id, 32 * 1024)
    used.foreach { u => p.takeFrame(pool); p.insertInto(p.frames.size - 1, JoinRec(0L, u, null)) }
    p
  }

  private def ctx(numP: Int = 8, spilled: Int = 0, incoming: Int = -1, remaining: Option[Long] = None) =
    VictimContext(numP, spilled, incoming, remaining)

  test("LargestSize picks the partition with most in-memory bytes") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100))
    assert(LargestSize.choose(cs, ctx()) == 1)
  }

  test("LargestSize ties break toward the lowest id") {
    val cs = parts((3, 10, 100), (5, 10, 100))
    assert(LargestSize.choose(cs, ctx()) == 3)
  }

  test("LargestRecords picks the partition with most records") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100))
    assert(LargestRecords.choose(cs, ctx()) == 2)
  }

  test("SmallestSize picks the partition with fewest bytes") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100))
    assert(SmallestSize.choose(cs, ctx()) == 0)
  }

  test("SmallestRecords picks the fewest records") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100))
    assert(SmallestRecords.choose(cs, ctx()) == 1)
  }

  test("MedianSize picks the middle-sized partition") {
    val cs = parts((0, 1, 100), (1, 5, 100), (2, 20, 100))
    assert(MedianSize.choose(cs, ctx()) == 1)
  }

  test("MedianSize of an even count picks the lower-middle element") {
    val cs = parts((0, 1, 100), (1, 5, 100), (2, 10, 100), (3, 20, 100))
    assert(MedianSize.choose(cs, ctx()) == 1)
  }

  test("MedianRecords picks the middle record count") {
    val cs = parts((0, 3, 500), (1, 9, 100), (2, 30, 10))
    assert(MedianRecords.choose(cs, ctx()) == 1)
  }

  test("LargestSizeSelfVictim prefers the incoming partition when resident") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(LargestSizeSelfVictim.choose(cs, ctx(incoming = 0)) == 0)
  }

  test("LargestSizeSelfVictim falls back to largest when incoming not a candidate") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(LargestSizeSelfVictim.choose(cs, ctx(incoming = 7)) == 1)
  }

  test("SmallestSizeSelfVictim prefers the incoming partition when resident") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(SmallestSizeSelfVictim.choose(cs, ctx(incoming = 1)) == 1)
  }

  test("SmallestSizeSelfVictim falls back to smallest otherwise") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(SmallestSizeSelfVictim.choose(cs, ctx(incoming = 9)) == 0)
  }

  test("Random is seeded and only returns candidate ids") {
    val cs  = parts((2, 1, 10), (4, 1, 10), (9, 1, 10))
    val ids = cs.map(_.id).toSet
    val r   = new RandomVictim(5)
    (0 until 50).foreach(_ => assert(ids.contains(r.choose(cs, ctx()))))
    val a = { val x = new RandomVictim(5); (0 until 20).map(_ => x.choose(cs, ctx())) }
    val b = { val x = new RandomVictim(5); (0 until 20).map(_ => x.choose(cs, ctx())) }
    assert(a == b)
  }

  test("HalfEmpty spills smallest while at most half the partitions spilled") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(HalfEmpty.choose(cs, ctx(numP = 8, spilled = 4)) == 0)
  }

  test("HalfEmpty spills largest once more than half spilled") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(HalfEmpty.choose(cs, ctx(numP = 8, spilled = 5)) == 1)
  }

  test("LeastFragmentation picks the partition with fullest frames") {
    // id 0: one frame ~88% full; id 1: one frame ~61% full.
    val cs = parts((0, 1, 29000), (1, 2, 10000))
    assert(LeastFragmentation.choose(cs, ctx()) == 0)
  }

  test("LeastFragmentation averages the free bytes over every frame") {
    // id 0 has 11,101 B free per frame on average, though its newest frame
    // is 85% free and it has the most free bytes in all; id 1 has 14,768.
    val cs = IndexedSeq(framesUsed(0, 30000, 30000, 5000), framesUsed(1, 18000))
    assert(LeastFragmentation.choose(cs, ctx()) == 0)
  }

  test("LeastFragmentation ties break toward the lowest id") {
    // 12,768 B free per frame on average in both.
    val cs = IndexedSeq(framesUsed(3, 20000), framesUsed(5, 20000, 20000))
    assert(LeastFragmentation.choose(cs, ctx()) == 3)
  }

  test("LowHigh alternates smallest then largest") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100))
    val lh = new LowHigh
    assert(lh.choose(cs, ctx()) == 0)
    assert(lh.choose(cs, ctx()) == 1)
    assert(lh.choose(cs, ctx()) == 0)
  }

  test("RecordSizeRatio picks fewest records among partitions >= 80% of max size") {
    // Sizes: id0 = 100*100 = 10k, id1 = 9*1000 = 9k (90% of max), id2 = 50*100 = 5k.
    val cs = parts((0, 100, 100), (1, 9, 1000), (2, 50, 100))
    assert(RecordSizeRatio.choose(cs, ctx()) == 1)
  }

  test("RecordSizeRatio ignores partitions below the 80% threshold") {
    val cs = parts((0, 100, 100), (1, 2, 1000))
    assert(RecordSizeRatio.choose(cs, ctx()) == 0)
  }

  test("BestMatch spills the partition closest to the remaining build size") {
    val cs = parts((0, 10, 100), (1, 5, 1000), (2, 20, 100)) // 1000, 5000, 2000 bytes
    assert(BestMatch.choose(cs, ctx(remaining = Some(1800L))) == 2)
  }

  test("BestMatch falls back to LargestSize when remainder unknown") {
    val cs = parts((0, 10, 100), (1, 5, 1000))
    assert(BestMatch.choose(cs, ctx(remaining = None)) == 1)
  }

  test("all 13 policies return a valid candidate on a single-candidate list") {
    val cs = parts((4, 3, 100))
    VictimPolicy.all13().foreach(mk => assert(mk().choose(cs, ctx(incoming = 4)) == 4, mk().name))
  }

  test("all 13 policies are deterministic given equal state (seeded Random)") {
    def sweep(): Seq[Int] =
      VictimPolicy.all13(seed = 3).map { mk =>
        val cs = parts((0, 7, 100), (1, 3, 900), (2, 11, 50), (3, 2, 2000))
        mk().choose(cs, ctx(numP = 4, spilled = 1, incoming = 2))
      }
    assert(sweep() == sweep())
  }

  test("the paper's policy list has exactly 13 entries with unique names") {
    val names = VictimPolicy.all13().map(_().name)
    assert(names.size == 13 && names.distinct.size == 13)
  }
}
