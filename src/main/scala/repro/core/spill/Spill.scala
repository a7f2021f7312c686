package repro.core.spill

import java.io.{EOFException, File}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.StandardOpenOption.{CREATE_NEW, READ, WRITE}
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
  /** Append `nFrames` whole frames' records, frame by frame in order: the
    * §8.5 reload relies on this to refill a file into at most `frames`
    * frames. Physical-pattern accounting (seq/random) is the engine's job,
    * not the store's. `recs` must be read to the end before this returns:
    * the engine passes frames' records in place and drops the frames
    * afterwards.
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

/** Payload (de)serialization for on-disk spilling, through a heap buffer. */
trait Serde[T] {
  /** The encoded size of `t`: `write(t, out)` puts exactly this many bytes. */
  def bytes(t: T): Int
  def write(t: T, out: ByteBuffer): Unit
  /** Decode one payload of `bytes` bytes from `in`'s position. */
  def read(in: ByteBuffer, bytes: Int): T
}

object Serde {
  /** For metadata-only records spilled to disk in tests. */
  val nullSerde: Serde[Null] = new Serde[Null] {
    def bytes(t: Null): Int                    = 0
    def write(t: Null, out: ByteBuffer): Unit  = ()
    def read(in: ByteBuffer, bytes: Int): Null = null
  }
}

/** Real on-disk spill store: each spill file is a temp file of
  * `[key: Long][declared size: Int][payload bytes: Int][payload]` entries.
  * Used inside Spark executors so spilling is byte-real, and by integration
  * tests.
  *
  * All of a store's files encode through one staging buffer, so a store
  * serves one thread (one join). Each file holds one channel from its first
  * append until `delete`, written and read at explicit positions.
  */
final class DiskSpillStore[T](dir: File, serde: Serde[T]) extends SpillStore[T] {
  require(dir.isDirectory || dir.mkdirs(), s"cannot create spill dir $dir")
  private val files   = ArrayBuffer.empty[DiskSpillFile[T]]
  private var counter = 0
  private var staging = ByteBuffer.allocate(DiskSpillStore.BufferBytes)

  def newFile(tag: String): SpillFile[T] = {
    counter += 1
    val f = new DiskSpillFile[T](new File(dir, f"$counter%05d-$tag.spill"), serde, this)
    files += f; f
  }
  def close(): Unit = { files.foreach(_.delete()); files.clear() }

  /** The staging buffer, empty, with room for at least `n` bytes: it grows
    * only for a record larger than it.
    */
  private[spill] def stage(n: Int): ByteBuffer = {
    if (staging.capacity < n) staging = ByteBuffer.allocate(n)
    staging.clear()
  }
}

object DiskSpillStore {
  /** Staging-buffer size, and the most a read fetches per call. */
  val BufferBytes: Int = 1 << 16
  /** Bytes of an entry before its payload: key, declared size, payload bytes. */
  val HeaderBytes: Int = 16
}

final class DiskSpillFile[T](path: File, serde: Serde[T], store: DiskSpillStore[T]) extends SpillFile[T] {
  import DiskSpillStore.{BufferBytes, HeaderBytes}

  private var ch: FileChannel = _
  private var end             = 0L // file length: the next append's position
  private var nByte           = 0L
  private var nRec            = 0L
  private var nFrm            = 0L

  /** Encodes the records into the staging buffer and writes them at the
    * file's end before returning, so an append of up to `BufferBytes` is
    * one write call and no spilled byte waits in memory across appends.
    */
  def append(it: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    if (ch == null) ch = FileChannel.open(path.toPath, CREATE_NEW, READ, WRITE)
    var buf = store.stage(0)
    while (it.hasNext) {
      val r     = it.next()
      val n     = serde.bytes(r.payload)
      val entry = HeaderBytes + n
      if (buf.remaining < entry) { drain(buf); buf = store.stage(entry) }
      buf.putLong(r.key).putInt(r.size).putInt(n)
      serde.write(r.payload, buf)
      nByte += r.size; nRec += 1
    }
    drain(buf)
    nFrm += nFrames
  }

  private def drain(buf: ByteBuffer): Unit = {
    buf.flip()
    while (buf.hasRemaining) end += ch.write(buf, end)
  }

  /** Reads exactly the `records` entries appended so far, with positional
    * reads into a buffer of the iterator's own; no read opens the file. A
    * file cut short throws `EOFException`.
    */
  def readAll(): Iterator[JoinRec[T]] = {
    if (nRec == 0) return Iterator.empty
    new scala.collection.AbstractIterator[JoinRec[T]] {
      private var left     = nRec
      private var pos      = 0L // file position of the first byte not yet in `buf`
      private var buf      = ByteBuffer.allocate(math.min(BufferBytes.toLong, end).toInt).flip()
      def hasNext: Boolean = left > 0
      def next(): JoinRec[T] = {
        if (left == 0) throw new NoSuchElementException("spill file read past its last record")
        fill(HeaderBytes)
        val key  = buf.getLong()
        val size = buf.getInt()
        val n    = buf.getInt()
        fill(n)
        left -= 1
        JoinRec(key, size, serde.read(buf, n))
      }

      /** Makes at least `n` unread bytes available in `buf`. */
      private def fill(n: Int): Unit = if (buf.remaining < n) {
        if (buf.capacity < n) buf = ByteBuffer.allocate(n).put(buf) else buf.compact()
        while (buf.position() < n) {
          val got = ch.read(buf, pos)
          if (got < 0) throw new EOFException(s"spill file $path ends inside a record")
          pos += got
        }
        buf.flip()
      }
    }
  }

  def bytes: Long   = nByte
  def records: Long = nRec
  def frames: Long  = nFrm
  /** Closes the channel and removes the file, if this file created it. */
  def delete(): Unit = if (ch != null) {
    ch.close(); ch = null
    path.delete(): Unit
  }
}
