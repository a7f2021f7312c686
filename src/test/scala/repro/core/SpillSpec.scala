package repro.core

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.core.frames.JoinRec
import repro.core.growth.GrowthCostModel
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

  // ---------------- In-memory spill store ----------------

  test("in-memory spill file round-trips records and accounting") {
    val store = new InMemorySpillStore[Integer]
    val f     = store.newFile("t")
    f.append(Iterator(JoinRec(1L, 10, Int.box(1)), JoinRec(2L, 20, Int.box(2))), nFrames = 1)
    f.append(Iterator(JoinRec(3L, 30, Int.box(3))), nFrames = 1)
    assert(f.records == 3 && f.bytes == 60 && f.frames == 2)
    assert(f.readAll().map(_.payload.intValue).toSeq == Seq(1, 2, 3))
    assert(f.readAll().size == 3) // re-readable
    store.close()
  }

  test("in-memory spill file delete clears contents") {
    val f = new InMemorySpillStore[Null].newFile("x")
    f.append(Iterator(JoinRec(1L, 10, null)), 1)
    f.delete()
    assert(f.readAll().isEmpty)
  }

  // ---------------- Disk spill store ----------------

  private def tmpStore[T](serde: Serde[T]): DiskSpillStore[T] =
    new DiskSpillStore[T](Files.createTempDirectory("spill-test").toFile, serde)

  test("disk spill file round-trips metadata records") {
    val store = tmpStore(Serde.nullSerde)
    val f     = store.newFile("b")
    val recs  = (0 until 1000).map(i => JoinRec[Null](i.toLong, 100 + i % 7, null))
    f.append(recs.iterator, nFrames = 4)
    assert(f.records == 1000 && f.frames == 4)
    assert(f.bytes == recs.map(_.size.toLong).sum)
    val back = f.readAll().toVector
    assert(back.map(_.key) == recs.map(_.key).toVector)
    assert(back.map(_.size) == recs.map(_.size).toVector)
    store.close()
  }

  test("disk spill file supports multiple appends and re-reads") {
    val store = tmpStore(Serde.nullSerde)
    val f     = store.newFile("b")
    f.append(Iterator(JoinRec[Null](1L, 5, null)), 1)
    f.append(Iterator(JoinRec[Null](2L, 6, null)), 1)
    assert(f.readAll().map(_.key).toSeq == Seq(1L, 2L))
    assert(f.readAll().map(_.key).toSeq == Seq(1L, 2L))
    store.close()
  }

  test("empty disk spill file reads as empty") {
    val store = tmpStore(Serde.nullSerde)
    assert(store.newFile("e").readAll().isEmpty)
    store.close()
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
