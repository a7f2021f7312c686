package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.core.frames._

class FramesSpec extends AnyFunSuite {

  /** Deterministic property-style driver over scalacheck generators
    * (scalatestplus is not in the offline cache).
    */
  private def forSamples[A](gen: Gen[A], n: Int = 100)(check: A => Unit): Unit =
    (0 until n).foreach { i =>
      gen.apply(Gen.Parameters.default, Seed(i.toLong)).foreach(check)
    }

  // ---------------- Frame ----------------

  test("empty frame has full capacity free and zero fullness") {
    val f = new Frame[Null](1024)
    assert(f.free == 1024 && f.used == 0 && f.recordCount == 0)
    assert(f.fullness == 0.0)
  }

  test("insert reduces free space by declared size") {
    val f = new Frame[Null](1024)
    assert(f.insert(JoinRec(1L, 300, null)))
    assert(f.free == 724 && f.used == 300 && f.recordCount == 1)
  }

  test("insert rejects a record larger than remaining space") {
    val f = new Frame[Null](1024)
    assert(f.insert(JoinRec(1L, 1000, null)))
    assert(!f.insert(JoinRec(2L, 25, null)))
    assert(f.recordCount == 1)
  }

  test("insert accepts a record exactly filling the frame") {
    val f = new Frame[Null](1024)
    assert(f.insert(JoinRec(1L, 1024, null)))
    assert(f.free == 0 && f.fullness == 1.0)
  }

  test("clear keeps capacity but drops records") {
    val f = new Frame[Null](512)
    f.insert(JoinRec(1L, 100, null))
    f.insert(JoinRec(2L, 100, null))
    f.clear()
    assert(f.free == 512 && f.recordCount == 0 && f.records.isEmpty)
  }

  test("records view returns inserted records in order") {
    val f = new Frame[Integer](1024)
    f.insert(JoinRec(1L, 10, Int.box(1)))
    f.insert(JoinRec(2L, 10, Int.box(2)))
    assert(f.records.map(_.payload.intValue).toSeq == Seq(1, 2))
  }

  test("frame fullness accumulates over inserts (property)") {
    forSamples(Gen.listOf(Gen.choose(1, 200))) { sizes =>
      val f        = new Frame[Null](1024)
      var accepted = 0
      sizes.foreach(s => if (f.insert(JoinRec(0L, s, null))) accepted += s)
      assert(f.used == accepted)
      assert(f.free == 1024 - accepted)
    }
  }

  // ---------------- FramePool ----------------

  test("pool starts with all frames available") {
    val p = new FramePool(8, 1024)
    assert(p.available == 8 && p.used == 0)
  }

  test("pool acquire/release round-trips") {
    val p = new FramePool(4, 1024)
    assert(p.tryAcquire() && p.tryAcquire())
    assert(p.used == 2 && p.available == 2)
    p.release(2)
    assert(p.used == 0)
  }

  test("pool denies acquisition beyond capacity") {
    val p = new FramePool(2, 1024)
    assert(p.tryAcquire() && p.tryAcquire())
    assert(!p.tryAcquire())
  }

  test("pool rejects over-release") {
    val p = new FramePool(2, 1024)
    p.tryAcquire()
    intercept[IllegalArgumentException](p.release(2))
  }

  test("pool requires at least two frames") {
    intercept[IllegalArgumentException](new FramePool(1, 1024))
  }

  // ---------------- PartitionState ----------------

  test("partition accounting tracks inserted bytes and records") {
    val p = new PartitionState[Null](0, 1024)
    p.appendFrame()
    p.insertInto(0, JoinRec(1L, 100, null))
    p.insertInto(0, JoinRec(2L, 200, null))
    assert(p.bytesInMemory == 300 && p.recordsInMemory == 2)
  }

  test("noteFlushed moves accounting from memory to spilled") {
    val p = new PartitionState[Null](0, 1024)
    p.appendFrame()
    p.insertInto(0, JoinRec(1L, 100, null))
    p.noteFlushed(100, 1, 1)
    assert(p.bytesInMemory == 0 && p.spilledBytes == 100 && p.spilledRecs == 1 && p.spilledFrames == 1)
  }

  test("dropAllFrames returns the count and resets the cursor") {
    val p = new PartitionState[Null](3, 256)
    p.appendFrame(); p.appendFrame(); p.cursor = 1
    assert(p.dropAllFrames() == 2)
    assert(p.frames.isEmpty && p.cursor == -1)
  }

  test("freeBytesInFrames and avgFreePerFrame reflect fragmentation") {
    val p = new PartitionState[Null](0, 100)
    p.appendFrame(); p.appendFrame()
    p.insertInto(0, JoinRec(1L, 60, null))
    p.insertInto(1, JoinRec(2L, 20, null))
    assert(p.freeBytesInFrames == 40 + 80)
    assert(p.avgFreePerFrame == 60.0)
  }

  test("avgFreePerFrame is zero with no frames") {
    assert(new PartitionState[Null](0, 100).avgFreePerFrame == 0.0)
  }

  test("noteReloaded clears spill state") {
    val p = new PartitionState[Null](0, 100)
    p.spilled = true; p.spilledBytes = 10; p.spilledRecs = 1; p.spilledFrames = 1
    p.noteReloaded()
    assert(!p.spilled && p.spilledBytes == 0 && p.spilledRecs == 0 && p.spilledFrames == 0)
  }

  test("insertInto a full frame throws") {
    val p = new PartitionState[Null](0, 100)
    p.appendFrame()
    p.insertInto(0, JoinRec(1L, 100, null))
    intercept[IllegalArgumentException](p.insertInto(0, JoinRec(2L, 1, null)))
  }

  // ---------------- SplitFun ----------------

  test("split function maps every key into [0, P)") {
    forSamples(Gen.zip(Gen.long, Gen.choose(2, 64)), n = 500) { case (k, p) =>
      val b = SplitFun.partition(k, 7L, p)
      assert(b >= 0 && b < p)
    }
  }

  test("split function is deterministic in (key, seed, P)") {
    forSamples(Gen.long, n = 200) { k =>
      assert(SplitFun.partition(k, 3L, 16) == SplitFun.partition(k, 3L, 16))
    }
  }

  test("different seeds re-partition (rounds must not reuse the split)") {
    val keys = (0 until 2000).map(i => scala.util.hashing.byteswap64(i.toLong))
    val same = keys.count(k => SplitFun.partition(k, 0L, 8) == SplitFun.partition(k, 1L, 8))
    // Under independent hashing ~1/8 collide; the point is it is far from all.
    assert(same < keys.size / 2, s"seeds 0 and 1 agreed on $same of ${keys.size} keys")
  }

  test("split spreads uniform keys roughly evenly") {
    val counts = new Array[Int](10)
    (0 until 100000).foreach { i =>
      counts(SplitFun.partition(scala.util.hashing.byteswap64(i.toLong), 5L, 10)) += 1
    }
    assert(counts.min > 8000 && counts.max < 12000, counts.mkString(","))
  }
}
