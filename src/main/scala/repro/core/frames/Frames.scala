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
  */
final class Frame[T](val capacity: Int) {
  private val recs      = ArrayBuffer.empty[JoinRec[T]]
  private var usedBytes = 0

  def free: Int        = capacity - usedBytes
  def used: Int        = usedBytes
  def recordCount: Int = recs.size
  def fullness: Double = usedBytes.toDouble / capacity

  /** Records currently in the frame (read-only view). */
  def records: scala.collection.Seq[JoinRec[T]] = recs

  /** Insert if the record's declared size fits; returns false otherwise. */
  def insert(r: JoinRec[T]): Boolean =
    if (r.size <= free) { recs += r; usedBytes += r.size; true } else false

  /** Drop all records, keeping the frame allocated (output-buffer reuse). */
  def clear(): Unit = { recs.clear(); usedBytes = 0 }
}

/** The join operator's memory budget, counted in frames.
  *
  * Partitions acquire/release frames here; when `tryAcquire` fails the
  * operator must destage (spill) a partition to make room — the central
  * memory-pressure event of Dynamic HHJ.
  */
final class FramePool(val totalFrames: Int, val frameSize: Int) {
  require(totalFrames >= 2, s"join memory must be at least 2 frames, got $totalFrames")
  private var inUse = 0

  def used: Int      = inUse
  def available: Int = totalFrames - inUse

  def tryAcquire(): Boolean =
    if (inUse < totalFrames) { inUse += 1; true } else false

  def release(n: Int = 1): Unit = {
    require(inUse >= n, s"releasing $n frames but only $inUse in use")
    inUse -= n
  }
}

/** Per-partition build-phase state: the in-memory frame array (paper §2.3,
  * "each partition uses an array to hold its in-memory frames"), spill
  * accounting, and the Next-Fit insertion cursor.
  */
final class PartitionState[T](val id: Int, val frameSize: Int) {
  /** In-memory frames. For a spilled NG-NS partition this is at most one
    * frame (the output buffer); under G-S a spilled partition may re-grow.
    */
  val frames = ArrayBuffer.empty[Frame[T]]

  var spilled = false

  private var memBytes = 0L
  private var memRecs  = 0L

  /** Bytes/records of this partition already written to its spill file. */
  var spilledBytes  = 0L
  var spilledRecs   = 0L
  var spilledFrames = 0L

  /** Next-Fit state: index of the frame that received the previous record,
    * and that record's size (§5, Next-Fit's guided search).
    */
  var cursor         = -1
  var lastInsertSize = 0

  def bytesInMemory: Long   = memBytes
  def recordsInMemory: Long = memRecs

  /** Total free bytes across in-memory frames (fragmentation measure). */
  def freeBytesInFrames: Long = {
    var s = 0L; val it = frames.iterator
    while (it.hasNext) s += it.next().free
    s
  }

  /** Average free bytes per in-memory frame; 0 if no frames. */
  def avgFreePerFrame: Double =
    if (frames.isEmpty) 0.0 else freeBytesInFrames.toDouble / frames.size

  def insertInto(idx: Int, r: JoinRec[T]): Unit = {
    val ok = frames(idx).insert(r)
    require(ok, s"frame $idx of partition $id rejected a ${r.size}-byte record")
    memBytes += r.size; memRecs += 1
  }

  def appendFrame(): Frame[T] = { val f = new Frame[T](frameSize); frames += f; f }

  /** Move accounting of flushed records from memory to the spill file. */
  def noteFlushed(bytes: Long, recs: Long, nFrames: Long): Unit = {
    memBytes -= bytes; memRecs -= recs
    spilledBytes += bytes; spilledRecs += recs; spilledFrames += nFrames
  }

  /** Drop all frames (after their contents were written out); returns the
    * number of frames released so the caller can return them to the pool.
    */
  def dropAllFrames(): Int = {
    val n = frames.size
    frames.clear(); cursor = -1
    n
  }

  /** Reset spill accounting when a spilled partition is reloaded (§8.5). */
  def noteReloaded(): Unit = {
    spilled = false; spilledBytes = 0; spilledRecs = 0; spilledFrames = 0
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
