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

  test("records view returns inserted records in order") {
    val f = new Frame[Integer](1024)
    f.insert(JoinRec(1L, 10, Int.box(1)))
    f.insert(JoinRec(2L, 10, Int.box(2)))
    assert(f.iterator.map(_.payload.intValue).toSeq == Seq(1, 2))
  }

  test("a frame holding more records than its initial directory grows keys and refs in step") {
    val n = 3 * Frame.InitialSlots + 1
    val f = new Frame[Integer](1024)
    (0 until n).foreach(i => assert(f.insert(JoinRec(1000L + i, 1, Int.box(i)))))
    assert(f.recordCount == n && f.used == n)
    assert(f.iterator.map(_.payload.intValue).toSeq == (0 until n))
    (0 until n).foreach { i =>
      assert(f.keyArray(i) == 1000L + i)
      assert(f.refArray(i).asInstanceOf[JoinRec[Integer]].payload.intValue == i)
    }
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
    val p = new FramePool(8)
    assert(p.available == 8 && p.used == 0)
  }

  test("pool acquire/release round-trips") {
    val p = new FramePool(4)
    assert(p.tryAcquire() && p.tryAcquire())
    assert(p.used == 2 && p.available == 2)
    p.release(2)
    assert(p.used == 0 && p.peak == 2)
  }

  test("pool denies acquisition beyond capacity") {
    val p = new FramePool(2)
    assert(p.tryAcquire() && p.tryAcquire())
    assert(!p.tryAcquire())
  }

  test("pool rejects over-release") {
    val p = new FramePool(2)
    p.tryAcquire()
    intercept[IllegalArgumentException](p.release(2))
  }

  test("pool requires at least two frames") {
    intercept[IllegalArgumentException](new FramePool(1))
  }

  // ---------------- PartitionState ----------------

  test("partition accounting tracks inserted bytes and records") {
    val p = new PartitionState[Null](0, 1024)
    p.takeFrame(new FramePool(2))
    p.insertInto(0, JoinRec(1L, 100, null))
    p.insertInto(0, JoinRec(2L, 200, null))
    assert(p.bytesInMemory == 300 && p.recordsInMemory == 2)
  }

  test("releaseFrames returns every frame to the pool") {
    val pool = new FramePool(4)
    val p    = new PartitionState[Null](3, 256)
    p.takeFrame(pool); p.takeFrame(pool)
    p.insertInto(0, JoinRec(1L, 100, null))
    p.releaseFrames(pool)
    assert(p.frames.isEmpty)
    assert(p.bytesInMemory == 0 && p.recordsInMemory == 0)
    assert(pool.used == 0)
  }

  test("the pool and the partitions' frames agree (property)") {
    // Each step: 0 = take a frame, 1 = insert into the last frame, 2 = release.
    val steps = Gen.listOf(Gen.zip(Gen.choose(0, 2), Gen.choose(0, 2), Gen.choose(1, 100)))
    forSamples(steps) { ops =>
      val pool  = new FramePool(5)
      val parts = Array.tabulate(3)(new PartitionState[Null](_, 100))
      val bytes = new Array[Long](3)
      val recs  = new Array[Long](3)
      var high  = 0
      ops.foreach { case (op, i, size) =>
        val p = parts(i)
        op match {
          case 0 =>
            val full = pool.used == pool.totalFrames
            assert(p.takeFrame(pool) != full)
          case 1 =>
            if (p.frames.nonEmpty && p.frames.last.free >= size) {
              p.insertInto(p.frames.size - 1, JoinRec(0L, size, null))
              bytes(i) += size; recs(i) += 1
            }
          case _ =>
            p.releaseFrames(pool)
            bytes(i) = 0; recs(i) = 0
        }
        assert(pool.used == parts.map(_.frames.size).sum)
        high = math.max(high, pool.used)
        assert(pool.peak == high)
        parts.indices.foreach { j =>
          assert(parts(j).bytesInMemory == bytes(j) && parts(j).recordsInMemory == recs(j))
        }
      }
    }
  }

  test("insertInto a full frame throws") {
    val p = new PartitionState[Null](0, 100)
    p.takeFrame(new FramePool(2))
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
