package repro.core

import java.nio.ByteBuffer
import java.nio.file.Files

import repro.core.frames.JoinRec
import repro.core.spill.{DiskSpillStore, Serde}

/** Shared helpers for core-engine tests: deterministic record generators
  * with unique integer payload ids, and a naive reference join.
  */
object TestData {

  /** `n` records with keys drawn from `[0, keySpace)` and sizes in
    * `[minSize, maxSize]`; payload = unique id offset by `idBase`.
    */
  def records(
      n: Int,
      keySpace: Int,
      minSize: Int,
      maxSize: Int,
      seed: Long,
      idBase: Int = 0,
  ): Vector[JoinRec[Integer]] = {
    val rnd = new java.util.Random(seed)
    Vector.tabulate(n) { i =>
      val size = minSize + (if (maxSize > minSize) rnd.nextInt(maxSize - minSize + 1) else 0)
      JoinRec[Integer](rnd.nextInt(keySpace).toLong, size, Int.box(idBase + i))
    }
  }

  /** Heavily skewed records: `hotShare` of records use a single hot key. */
  def skewed(
      n: Int,
      keySpace: Int,
      hotShare: Double,
      minSize: Int,
      maxSize: Int,
      seed: Long,
      idBase: Int = 0,
  ): Vector[JoinRec[Integer]] = {
    val rnd = new java.util.Random(seed)
    Vector.tabulate(n) { i =>
      val size = minSize + (if (maxSize > minSize) rnd.nextInt(maxSize - minSize + 1) else 0)
      val key  = if (rnd.nextDouble() < hotShare) 0L else (1 + rnd.nextInt(keySpace - 1)).toLong
      JoinRec[Integer](key, size, Int.box(idBase + i))
    }
  }

  /** Reference result: the multiset of (buildId, probeId) with equal keys. */
  def naiveJoin(build: Seq[JoinRec[Integer]], probe: Seq[JoinRec[Integer]]): Set[(Int, Int)] = {
    val byKey = build.groupBy(_.key)
    val out   = Set.newBuilder[(Int, Int)]
    probe.foreach { p =>
      byKey.getOrElse(p.key, Nil).foreach(b => out += ((b.payload.intValue, p.payload.intValue)))
    }
    out.result()
  }

  /** Spills an `Integer` payload as its four bytes. */
  val intSerde: Serde[Integer] = new Serde[Integer] {
    def bytes(t: Integer): Int                    = 4
    def write(t: Integer, out: ByteBuffer): Unit  = out.putInt(t.intValue): Unit
    def read(in: ByteBuffer, bytes: Int): Integer = Int.box(in.getInt())
  }

  /** A disk spill store of `Integer` payloads in a new temp directory, which
    * its `close` removes.
    */
  def spillStore(): DiskSpillStore[Integer] =
    new DiskSpillStore(Files.createTempDirectory("spill-test").toFile, intSerde)
}
