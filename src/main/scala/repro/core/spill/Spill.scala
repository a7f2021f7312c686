package repro.core.spill

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, EOFException, File, FileInputStream, FileOutputStream}
import scala.collection.mutable.ArrayBuffer

import repro.core.frames.JoinRec

/** Sequential-vs-random I/O trace of one join execution (§6's axis of
  * comparison between growth policies).
  *
  * Classification follows the paper's analytical model: a write of two or
  * more contiguous frames of one partition is one *sequential* write; a
  * single-frame write (an NG-NS output-buffer flush) is one *random* write.
  */
final class IOStats {
  var seqWriteOps     = 0L
  var seqWriteFrames  = 0L
  var randWriteOps    = 0L
  var randWriteFrames = 0L
  var bytesWritten    = 0L

  var readOps    = 0L
  var readFrames = 0L
  var bytesRead  = 0L

  def framesWritten: Long = seqWriteFrames + randWriteFrames
  def writeOps: Long      = seqWriteOps + randWriteOps

  /** Record one write of `nFrames` contiguous frames carrying `bytes`. */
  def noteWrite(nFrames: Long, bytes: Long): Unit = {
    if (nFrames <= 1) { randWriteOps += 1; randWriteFrames += nFrames }
    else { seqWriteOps += 1; seqWriteFrames += nFrames }
    bytesWritten += bytes
  }

  /** Record one sequential read of a whole spill file. */
  def noteRead(nFrames: Long, bytes: Long): Unit = {
    readOps += 1; readFrames += nFrames; bytesRead += bytes
  }
}

/** One spilled partition's temporary file (build or probe side). */
trait SpillFile[T] {
  /** Append records that occupied `nFrames` frames; physical-pattern
    * accounting (seq/random) is the engine's job, not the store's.
    */
  def append(recs: Iterator[JoinRec[T]], nFrames: Long): Unit

  /** Stream the file back; callable multiple times (BNLJ re-scans). */
  def readAll(): Iterator[JoinRec[T]]

  def bytes: Long
  def records: Long
  def frames: Long
  def delete(): Unit
}

/** Factory for spill files of one join execution. */
trait SpillStore[T] {
  def newFile(tag: String): SpillFile[T]
  /** Remove any remaining temporary state. */
  def close(): Unit
}

/** Metadata-only spill store: keeps records on the heap. Used by the
  * simulation benches, where payloads are null and multi-GB "spills" are
  * just counters plus record descriptors.
  */
final class InMemorySpillStore[T] extends SpillStore[T] {
  private val files = ArrayBuffer.empty[InMemorySpillFile[T]]
  def newFile(tag: String): SpillFile[T] = { val f = new InMemorySpillFile[T](tag); files += f; f }
  def close(): Unit = { files.foreach(_.delete()); files.clear() }
}

final class InMemorySpillFile[T](val tag: String) extends SpillFile[T] {
  private val recs  = ArrayBuffer.empty[JoinRec[T]]
  private var nByte = 0L
  private var nFrm  = 0L

  def append(it: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    while (it.hasNext) { val r = it.next(); recs += r; nByte += r.size }
    nFrm += nFrames
  }
  def readAll(): Iterator[JoinRec[T]] = recs.iterator
  def bytes: Long                     = nByte
  def records: Long                   = recs.size.toLong
  def frames: Long                    = nFrm
  def delete(): Unit                  = { recs.clear(); recs.trimToSize() }
}

/** Payload (de)serialization for on-disk spilling. */
trait Serde[T] {
  def write(t: T, out: DataOutputStream): Unit
  def read(in: DataInputStream): T
}

object Serde {
  /** For metadata-only records spilled to disk in tests. */
  val nullSerde: Serde[Null] = new Serde[Null] {
    def write(t: Null, out: DataOutputStream): Unit = ()
    def read(in: DataInputStream): Null             = null
  }
}

/** Real on-disk spill store: each spill file is a temp file of
  * `[key, declaredSize, payload]` entries. Used inside Spark executors so
  * spilling is byte-real, and by integration tests.
  */
final class DiskSpillStore[T](dir: File, serde: Serde[T]) extends SpillStore[T] {
  require(dir.isDirectory || dir.mkdirs(), s"cannot create spill dir $dir")
  private val files   = ArrayBuffer.empty[DiskSpillFile[T]]
  private var counter = 0

  def newFile(tag: String): SpillFile[T] = {
    counter += 1
    val f = new DiskSpillFile[T](new File(dir, f"$counter%05d-$tag.spill"), serde)
    files += f; f
  }
  def close(): Unit = { files.foreach(_.delete()); files.clear() }
}

final class DiskSpillFile[T](path: File, serde: Serde[T]) extends SpillFile[T] {
  private var out: DataOutputStream = _
  private var nByte                 = 0L
  private var nRec                  = 0L
  private var nFrm                  = 0L

  def append(it: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    if (out == null)
      out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path, true), 1 << 16))
    while (it.hasNext) {
      val r = it.next()
      out.writeLong(r.key); out.writeInt(r.size)
      serde.write(r.payload, out)
      nByte += r.size; nRec += 1
    }
    nFrm += nFrames
    out.flush()
  }

  def readAll(): Iterator[JoinRec[T]] = {
    if (nRec == 0) return Iterator.empty
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path), 1 << 16))
    new Iterator[JoinRec[T]] {
      private var nextRec: JoinRec[T] = fetch()
      private def fetch(): JoinRec[T] =
        try {
          val k = in.readLong(); val s = in.readInt(); val p = serde.read(in)
          JoinRec(k, s, p)
        } catch { case _: EOFException => in.close(); null }
      def hasNext: Boolean = nextRec != null
      def next(): JoinRec[T] = { val r = nextRec; nextRec = fetch(); r }
    }
  }

  def bytes: Long   = nByte
  def records: Long = nRec
  def frames: Long  = nFrm
  def delete(): Unit = {
    if (out != null) { out.close(); out = null }
    path.delete(): Unit
  }
}
