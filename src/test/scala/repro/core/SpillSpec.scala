package repro.core

import java.io.{EOFException, File, IOException, RandomAccessFile}
import java.nio.ByteBuffer
import java.nio.file.{FileAlreadyExistsException, Files}

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

import repro.core.frames.JoinRec
import repro.core.growth.GrowthCostModel
import repro.core.hhj.{DynamicHHJ, HHJConfig, PartitionRule}
import repro.core.spill._

class SpillSpec extends AnyFunSuite {

  // ---------------- IOStats ----------------

  test("a multi-frame write is classified sequential") {
    val io = new IOStats
    io.noteWrite(5, 5000)
    assert(io.seqWriteOps == 1 && io.seqWriteFrames == 5 && io.randWriteOps == 0)
    assert(io.bytesWritten == 5000)
  }

  test("a single-frame write is classified random") {
    val io = new IOStats
    io.noteWrite(1, 900)
    assert(io.randWriteOps == 1 && io.randWriteFrames == 1 && io.seqWriteOps == 0)
    io.noteWrite(4, 400)
    assert(io.framesWritten == 5 && io.writeOps == 2)
  }

  test("reads accumulate") {
    val io = new IOStats
    io.noteRead(3, 3000); io.noteRead(2, 2000)
    assert(io.readOps == 2 && io.readFrames == 5 && io.bytesRead == 5000)
  }

  // ---------------- Disk spill store ----------------

  /** Runs `body` on a store in a new temp directory, then closes the store
    * and checks that `close` removed the directory.
    */
  private def withStore[T](serde: Serde[T])(body: (File, DiskSpillStore[T]) => Unit): Unit = {
    val dir   = Files.createTempDirectory("spill-test").toFile
    val store = new DiskSpillStore[T](dir, serde)
    try body(dir, store)
    finally store.close()
    assert(!dir.exists, s"$dir left after close")
  }

  test("disk spill file round-trips metadata records") {
    withStore(Serde.nullSerde) { (_, store) =>
      val f    = store.newFile("b")
      val recs = (0 until 1000).map(i => JoinRec[Null](i.toLong, 100 + i % 7, null))
      f.append(recs.iterator, nFrames = 4)
      assert(f.records == 1000 && f.frames == 4)
      assert(f.bytes == recs.map(_.size.toLong).sum)
      val back = f.readAll().toVector
      assert(back.map(_.key) == recs.map(_.key).toVector)
      assert(back.map(_.size) == recs.map(_.size).toVector)
    }
  }

  test("disk spill file supports multiple appends and re-reads") {
    withStore(TestData.intSerde) { (_, store) =>
      val f = store.newFile("b")
      f.append(Iterator(JoinRec(1L, 10, Int.box(1)), JoinRec(2L, 20, Int.box(2))), nFrames = 1)
      f.append(Iterator(JoinRec(3L, 30, Int.box(3))), nFrames = 1)
      assert(f.records == 3 && f.bytes == 60 && f.frames == 2)
      assert(f.readAll().map(r => (r.key, r.size, r.payload.intValue)).toSeq == Seq((1L, 10, 1), (2L, 20, 2), (3L, 30, 3)))
      assert(f.readAll().map(_.payload.intValue).toSeq == Seq(1, 2, 3))
    }
  }

  test("a disk spill file cut short throws instead of reading fewer records") {
    withStore(Serde.nullSerde) { (dir, store) =>
      val f = store.newFile("b")
      f.append((0 until 1000).iterator.map(i => JoinRec[Null](i.toLong, 12, null)), nFrames = 3)
      f.readAll() // lets the pending writes land, so the cut is to a fully written file
      val file = dir.listFiles().head
      val raf  = new RandomAccessFile(file, "rw")
      try raf.setLength(file.length - 5)
      finally raf.close()
      intercept[EOFException](f.readAll().size)
    }
  }

  /** Byte-array payloads, so a test controls each record's encoded size. */
  private val bytesSerde: Serde[Array[Byte]] = new Serde[Array[Byte]] {
    def bytes(t: Array[Byte]): Int                  = t.length
    def write(t: Array[Byte], out: ByteBuffer): Unit = out.put(t): Unit
    def read(in: ByteBuffer, bytes: Int): Array[Byte] = { val a = new Array[Byte](bytes); in.get(a); a }
  }

  private def byteRec(key: Int, n: Int): JoinRec[Array[Byte]] =
    JoinRec(key.toLong, math.min(n, 1024), Array.tabulate[Byte](n)(j => (key * 31 + j).toByte))

  /** An entry's bytes on disk: key (8), declared size (4), payload bytes (4), payload. */
  private def encoded(recs: Seq[JoinRec[Array[Byte]]]): Long = recs.map(16L + _.payload.length).sum

  private def assertSameRecs(got: Seq[JoinRec[Array[Byte]]], want: Seq[JoinRec[Array[Byte]]]): Unit = {
    assert(got.map(r => (r.key, r.size)) == want.map(r => (r.key, r.size)))
    assert(got.map(_.payload.toSeq) == want.map(_.payload.toSeq))
  }

  test("payloads larger than the staging buffer round-trip among small ones") {
    withStore(bytesSerde) { (_, store) =>
      val f     = store.newFile("b")
      val mixed = (0 until 7).map(i => byteRec(i, if (i % 2 == 0) 200 * 1024 else 10))
      f.append(mixed.iterator, nFrames = 7)
      val small = (7 until 500).map(byteRec(_, 10))
      f.append(small.take(3).iterator, nFrames = 1)
      f.append(small.drop(3).iterator, nFrames = 5)
      assertSameRecs(f.readAll().toVector, mixed ++ small)
    }
  }

  /** The entries' bytes as a disk spill file holds them. */
  private def encodedBytes(recs: Seq[JoinRec[Array[Byte]]]): Array[Byte] = {
    val out = ByteBuffer.allocate(encoded(recs).toInt)
    recs.foreach(r => out.putLong(r.key).putInt(r.size).putInt(r.payload.length).put(r.payload))
    out.array()
  }

  test("write-behind: a file is at most two buffers short, exact after a readAll") {
    withStore(bytesSerde) { (dir, store) =>
      val f     = store.newFile("b")
      val g     = store.newFile("p") // shares the staging buffers with `f`
      val file  = new File(dir, "00001-b.spill")
      val sizes = Seq(Seq(10), Seq(10, 10, 10), Seq(70 * 1024), Seq(5000) ++ Seq.fill(40)(10), Seq(200 * 1024, 10),
        Seq.fill(30)(3000), Seq(40 * 1024), Seq(40 * 1024), Seq(60 * 1024))
      var all   = Vector.empty[JoinRec[Array[Byte]]]
      for ((ns, i) <- sizes.zipWithIndex) {
        val recs = ns.zipWithIndex.map { case (n, j) => byteRec(i * 100 + j, n) }
        f.append(recs.iterator, nFrames = 1)
        g.append(Iterator(byteRec(i, 10)), nFrames = 1)
        all ++= recs
        val short = encoded(all) - file.length
        assert(short >= 0 && short <= 2L * DiskSpillStore.BufferBytes, s"after append $i: $short bytes short")
        if (i % 2 == 1) {
          assertSameRecs(f.readAll().toVector, all)
          assert(file.length == encoded(all), s"after append $i")
          assert(Files.readAllBytes(file.toPath).sameElements(encodedBytes(all)), s"after append $i")
        }
      }
      assertSameRecs(f.readAll().toVector, all)
      assert(Files.readAllBytes(file.toPath).sameElements(encodedBytes(all)))
    }
  }

  test("two iterators on one file, advanced alternately, each read every record in order") {
    withStore(Serde.nullSerde) { (_, store) =>
      val f = store.newFile("b")
      // 20,000 entries of 16 bytes span several 64 KB reads.
      f.append((0 until 20000).iterator.map(i => JoinRec[Null](i.toLong, 12, null)), nFrames = 8)
      val (a, b) = (f.readAll(), f.readAll())
      val seenA  = Vector.newBuilder[Long]
      val seenB  = Vector.newBuilder[Long]
      seenA += a.next().key
      while (a.hasNext || b.hasNext) {
        if (b.hasNext) seenB += b.next().key
        if (a.hasNext) seenA += a.next().key
      }
      assert(seenA.result() == (0L until 20000L) && seenB.result() == (0L until 20000L))
      intercept[NoSuchElementException](a.next())
    }
  }

  test("a spill file whose name is already on disk fails instead of appending to stale bytes") {
    val dir   = Files.createTempDirectory("spill-test").toFile
    val stale = new File(dir, "00001-b.spill")
    Files.write(stale.toPath, Array[Byte](1, 2, 3))
    val store = new DiskSpillStore[Null](dir, Serde.nullSerde)
    val f     = store.newFile("b")
    intercept[FileAlreadyExistsException](f.append(Iterator(JoinRec[Null](1L, 5, null)), 1))
    store.close()
    assert(Files.readAllBytes(stale.toPath).toSeq == Seq[Byte](1, 2, 3), "a file the store did not create is left alone")
    assert(stale.delete() && dir.delete())
  }

  test("close removes an empty store directory, but not one holding a file the store did not create") {
    withStore(Serde.nullSerde) { (_, store) =>
      store.newFile("b").append(Iterator(JoinRec[Null](1L, 5, null)), 1)
      store.newFile("p") // never written, so never created
    }
    val dir   = Files.createTempDirectory("spill-test").toFile
    val other = new File(dir, "other")
    Files.write(other.toPath, Array[Byte](7))
    val store = new DiskSpillStore[Null](dir, Serde.nullSerde)
    store.newFile("b").append(Iterator(JoinRec[Null](1L, 5, null)), 1)
    store.close()
    assert(dir.list().toSeq == Seq("other") && Files.readAllBytes(other.toPath).toSeq == Seq[Byte](7))
    assert(other.delete() && dir.delete())
  }

  test("empty disk spill file reads as empty") {
    withStore(Serde.nullSerde)((_, store) => assert(store.newFile("e").readAll().isEmpty))
  }

  // ---------------- The disk store's writer thread ----------------

  /** The live writer threads of the store spilling under `dir`: each is named after its directory. */
  private def writers(dir: File): Seq[Thread] =
    Thread.getAllStackTraces.keySet.asScala.toSeq.filter(t => t.getName == s"spill-writer-${dir.getName}" && t.isAlive)

  test("a store that never fills a buffer and is never read starts no writer thread") {
    val dir    = Files.createTempDirectory("spill-test").toFile
    val store  = new DiskSpillStore[Array[Byte]](dir, bytesSerde)
    val (f, g) = (store.newFile("b"), store.newFile("p"))
    // 40 entries of 1,016 bytes fill less than one 64 KB buffer.
    for (i <- 0 until 20) { f.append(Iterator(byteRec(i, 1000)), 1); g.append(Iterator(byteRec(i, 1000)), 1) }
    assert(writers(dir).isEmpty)
    store.close()
    assert(writers(dir).isEmpty && !dir.exists)
  }

  test("close leaves no writer thread alive, also after a join that threw mid-way") {
    val build = TestData.records(4000, keySpace = 1000, 50, 200, seed = 1)
    val probe = TestData.records(4000, keySpace = 1000, 50, 200, seed = 2, idBase = 100000)
    val cfg = HHJConfig(memoryFrames = 16, frameSize = 1024,
      partitionRule = PartitionRule.Dynamic(firstRound = 8, laterLowerBound = 2))
    for (throwAt <- Seq(0L, 100L)) {
      val dir     = Files.createTempDirectory("spill-test").toFile
      val store   = new DiskSpillStore[Integer](dir, TestData.intSerde)
      var emitted = 0L
      var live    = Seq.empty[Thread] // the writer, seen before close
      val emit = (_: JoinRec[Integer], _: JoinRec[Integer]) => {
        emitted += 1
        if (emitted == throwAt) {
          live = writers(dir)
          throw new IllegalStateException("emit failed")
        }
      }
      val threw =
        try { DynamicHHJ.join(build.iterator, probe.iterator, cfg, store, emit); live = writers(dir); false }
        catch { case _: IllegalStateException => true }
        finally store.close()
      // Checked at once: `close` returns only after the writer has ended.
      assert(live.size == 1 && !live.head.isAlive, s"throwAt=$throwAt: writers seen before close $live")
      assert(threw == (throwAt > 0))
      assert(writers(dir).isEmpty && !dir.exists, s"throwAt=$throwAt")
    }
  }

  /** A store whose writer started and then failed: interrupting the writer
    * stops its wait or closes the channel it writes through.
    */
  private def failedStore(): (File, DiskSpillStore[Array[Byte]], SpillFile[Array[Byte]]) = {
    val dir   = Files.createTempDirectory("spill-test").toFile
    val store = new DiskSpillStore[Array[Byte]](dir, bytesSerde)
    val f     = store.newFile("b")
    store.newFile("p").append(Iterator(byteRec(0, 10)), 1)
    (1 to 3).foreach(i => f.append(Iterator(byteRec(i, 40 * 1024)), 1)) // two hand-offs
    val w = writers(dir)
    assert(w.size == 1, "the second append hands a buffer off")
    w.head.interrupt()
    w.head.join(10000)
    assert(!w.head.isAlive)
    (dir, store, f)
  }

  test("a write that fails on the writer surfaces as an IOException from the next call; close still deletes every file") {
    val ops = Seq[(String, SpillFile[Array[Byte]] => Any)](
      "append"  -> (_.append(Iterator(byteRec(9, 10)), 1)),
      "readAll" -> (_.readAll()),
      "delete"  -> (_.delete()),
      "close"   -> (_ => ()),
    )
    for ((name, op) <- ops) {
      val (dir, store, f) = failedStore()
      if (name != "close") intercept[IOException](op(f))
      intercept[IOException](store.close())
      assert(!dir.exists, s"after $name")
      assert(writers(dir).isEmpty, s"after $name")
    }
  }

  test("a caller never waits forever on a writer that died under it") {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val rec = byteRec(1, 8 * 1024)
    // The writer is interrupted from another thread while the caller keeps
    // appending, so the caller may be waiting on it when it dies; which
    // happens first varies, so the race runs several times.
    for (round <- 0 until 5) {
      val dir   = Files.createTempDirectory("spill-test").toFile
      val store = new DiskSpillStore[Array[Byte]](dir, bytesSerde)
      val f     = store.newFile("b")
      val interrupt = Future {
        while (writers(dir).isEmpty) Thread.sleep(1)
        writers(dir).foreach(_.interrupt())
      }
      val appends = Future(intercept[IOException](for (_ <- 0 until 8192) f.append(Iterator(rec), 1)))
      Await.result(interrupt.zip(appends), 60.seconds)
      intercept[IOException](store.close())
      assert(!dir.exists && writers(dir).isEmpty, s"round $round")
    }
  }

  // ---------------- §6.1 analytical growth-policy model ----------------

  test("Equation 3: no partitions spill when the build fits") {
    assert(GrowthCostModel.spilledPartitions(R = 40, M = 50, P = 20) == 0)
  }

  test("Equation 3: spill count grows with the data/memory ratio") {
    val x1 = GrowthCostModel.spilledPartitions(R = 100, M = 50, P = 20)
    val x2 = GrowthCostModel.spilledPartitions(R = 400, M = 50, P = 20)
    assert(x1 > 0 && x2 > x1)
    assert(x2 <= 20)
  }

  test("Equation 3 matches the paper's example shape (R=100, M=50, P=20)") {
    // 20 partitions of 5 frames each: need (20-x)*5 + x <= 50 → x >= 12.5 → 13.
    assert(GrowthCostModel.spilledPartitions(100, 50, 20) == 13)
  }

  test("NG-NS and G-S write the same total volume analytically") {
    val (rndN, seqN) = GrowthCostModel.ngnsFrames(400, 50, 20)
    val (rndG, seqG) = GrowthCostModel.gsFrames(400, 50, 20)
    assert(math.abs((rndN + seqN) - (rndG + seqG)) < 1e-9)
  }

  test("G-S is all-sequential; NG-NS mostly random at high data/memory ratio") {
    val (rndG, _)    = GrowthCostModel.gsFrames(2000, 50, 20)
    val (rndN, seqN) = GrowthCostModel.ngnsFrames(2000, 50, 20)
    assert(rndG == 0.0)
    assert(rndN > seqN, s"random $rndN should dominate sequential $seqN")
  }
}
