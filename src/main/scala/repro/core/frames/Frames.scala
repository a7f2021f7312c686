package repro.core.frames

import scala.collection.mutable.ArrayBuffer

/** A join record: a 64-bit join key, a declared size in bytes, and a payload.
  *
  * Frame-occupancy accounting uses the *declared* size, so the same engine
  * runs metadata-only simulations (payload = null, multi-GB sweeps stay cheap)
  * and real joins (payload = a Spark row, spilled byte-for-byte). The key is
  * the equi-join attribute reduced to 64 bits; callers that join on wider keys
  * re-verify equality on emit (see [[repro.core.hhj.DynamicHHJ]]).
  */
final case class JoinRec[T](key: Long, size: Int, payload: T)

/** A fixed-capacity memory frame holding variable-size records.
  *
  * Mirrors AsterixDB's frame: the unit of memory allocation, spilling, and
  * disk transfer. Records never move between frames and are never deleted
  * individually — a whole partition spills at once (paper §5, "no deletions
  * apart from partition spilling").
  *
  * The frame is a record directory: record refs and their keys in two
  * parallel arrays, in insertion order, so the engine's hash table takes a
  * frame's keys by array copy without touching the records.
  */
final class Frame[T](val capacity: Int) {
  private var recs      = new Array[AnyRef](Frame.InitialSlots)
  private var keys      = new Array[Long](Frame.InitialSlots)
  private var n         = 0
  private var usedBytes = 0

  def free: Int        = capacity - usedBytes
  def used: Int        = usedBytes
  def recordCount: Int = n
  def fullness: Double = usedBytes.toDouble / capacity

  /** The records in insertion order, read in place: insert nothing until
    * the iterator is consumed.
    */
  def iterator: Iterator[JoinRec[T]] = new scala.collection.AbstractIterator[JoinRec[T]] {
    private var i          = 0
    def hasNext: Boolean   = i < n
    def next(): JoinRec[T] = { val r = recs(i).asInstanceOf[JoinRec[T]]; i += 1; r }
  }

  /** Record refs and keys; slots `[0, recordCount)` are the records. */
  private[core] def refArray: Array[AnyRef] = recs
  private[core] def keyArray: Array[Long]   = keys

  /** Insert if the record's declared size fits; returns false otherwise. */
  def insert(r: JoinRec[T]): Boolean =
    if (r.size <= free) {
      if (n == recs.length) {
        recs = java.util.Arrays.copyOf(recs, 2 * n)
        keys = java.util.Arrays.copyOf(keys, 2 * n)
      }
      recs(n) = r
      keys(n) = r.key
      n += 1
      usedBytes += r.size
      true
    } else false
}

object Frame {
  /** Directory slots a new frame starts with; they double when full. */
  private[core] val InitialSlots = 16
}

/** The join operator's memory budget, counted in frames.
  *
  * Only [[PartitionState]] takes frames from it (`takeFrame`) and gives them
  * back (`releaseFrames`); when the pool is empty the operator must destage
  * (spill) a partition to make room — the central memory-pressure event of
  * Dynamic HHJ.
  */
final class FramePool(val totalFrames: Int) {
  require(totalFrames >= 2, s"join memory must be at least 2 frames, got $totalFrames")
  private var inUse = 0
  private var high  = 0

  def used: Int      = inUse
  def available: Int = totalFrames - inUse
  /** The most frames that were ever in use at once. */
  def peak: Int      = high

  def tryAcquire(): Boolean =
    if (inUse < totalFrames) { inUse += 1; high = math.max(high, inUse); true } else false

  def release(n: Int = 1): Unit = {
    require(inUse >= n, s"releasing $n frames but only $inUse in use")
    inUse -= n
  }
}

/** Per-partition build-phase state: the in-memory frame array (paper §2.3,
  * "each partition uses an array to hold its in-memory frames"). The
  * frames are the one record of what the partition holds in memory: its
  * byte and record counts are sums over them, and every frame is taken
  * from and returned to the pool here. Whether the partition has spilled
  * is not kept here: it has spilled iff the engine holds a build file for
  * it.
  */
final class PartitionState[T](val id: Int, val frameSize: Int) {
  /** In-memory frames. For a spilled partition this is at most one frame,
    * its output buffer, except under G-S, where a spilled partition re-grows
    * in the build phase.
    */
  val frames = ArrayBuffer.empty[Frame[T]]

  // Summed in a loop: `flush` and the victim policies call these, and a
  // fold or foreach allocates on every call.
  def bytesInMemory: Long = {
    var s = 0L
    var i = 0
    while (i < frames.size) { s += frames(i).used; i += 1 }
    s
  }

  def recordsInMemory: Long = {
    var s = 0L
    var i = 0
    while (i < frames.size) { s += frames(i).recordCount; i += 1 }
    s
  }

  def insertInto(idx: Int, r: JoinRec[T]): Unit =
    require(frames(idx).insert(r), s"frame $idx of partition $id rejected a ${r.size}-byte record")

  /** Takes a frame from `pool` and appends it; false when the pool is empty. */
  def takeFrame(pool: FramePool): Boolean =
    pool.tryAcquire() && { frames += new Frame[T](frameSize); true }

  /** Returns every frame to `pool`, after their contents were written out. */
  def releaseFrames(pool: FramePool): Unit = {
    pool.release(frames.size)
    frames.clear()
  }
}

/** The split function: per-round seeded hash partitioning (§2.1).
  *
  * The seed must differ between recursion depths so a partition's records
  * re-partition into distinct sub-partitions in the next round; build and
  * probe of the same round must (and do) use identical seeds.
  */
object SplitFun {
  def partition(key: Long, seed: Long, numPartitions: Int): Int = {
    val h = scala.util.hashing.byteswap64(key ^ (seed * 0x9E3779B97F4A7C15L))
    val m = (h % numPartitions).toInt
    if (m < 0) m + numPartitions else m
  }
}
