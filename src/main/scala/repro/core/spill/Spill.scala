package repro.core.spill

import java.io.{EOFException, File, IOException}
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

/** Payload (de)serialization for on-disk spilling, through a heap buffer. */
trait Serde[T] {
  /** The encoded size of `t`: `write(t, out)` puts exactly this many bytes. */
  def bytes(t: T): Int
  def write(t: T, out: ByteBuffer): Unit
  /** Decode one payload of `bytes` bytes from `in`'s position. */
  def read(in: ByteBuffer, bytes: Int): T
}

object Serde {
  /** For metadata-only records: the studies and the engine benches spill
    * only each record's key and declared size, 16 bytes an entry.
    */
  val nullSerde: Serde[Null] = new Serde[Null] {
    def bytes(t: Null): Int                    = 0
    def write(t: Null, out: ByteBuffer): Unit  = ()
    def read(in: ByteBuffer, bytes: Int): Null = null
  }
}

/** The spill store: each spill file is a file under `dir` of
  * `[key: Long][declared size: Int][payload bytes: Int][payload]` entries.
  * Every join spills through it: Spark executors, the studies and the
  * engine tests. The store owns `dir`: `close` deletes its files and then
  * `dir`, which stays only if it holds a file the store did not create.
  *
  * Writes happen behind the caller. An append encodes its records on the
  * caller's thread into the store's filling buffer, at file positions fixed
  * as it encodes. When an append does not fit, the buffer goes to the
  * store's one writer thread, which issues its writes while the caller
  * fills the other buffer; so at most two 64 KB buffers of encoded bytes
  * wait per store. The writer starts on the first hand-off and ends in
  * `close`; `readAll` and `delete` wait until their file's writes have
  * landed. A store serves one caller thread (one join). Each file holds one
  * channel from its first append until `delete`, written and read at
  * explicit positions.
  */
final class DiskSpillStore[T](dir: File, serde: Serde[T]) extends SpillStore[T] {
  import DiskSpillStore.{Batch, Write}
  require(dir.isDirectory || dir.mkdirs(), s"cannot create spill dir $dir")
  private val files   = ArrayBuffer.empty[DiskSpillFile[T]]
  private var counter = 0
  private var filling = new Batch // the caller encodes into this one
  private var spare   = new Batch // the writer's until batch `sent` has landed
  private var sent    = 0L        // batches handed off; `filling` is batch `sent + 1`
  private var writer: Thread = _
  // Shared with the writer, under this store's lock.
  private var written  = 0L // batches whose writes have all landed
  private var stopping = false
  private var exited   = false
  @volatile private var failure: Throwable = _

  def newFile(tag: String): SpillFile[T] = {
    counter += 1
    val f = new DiskSpillFile[T](new File(dir, f"$counter%05d-$tag.spill"), serde, this)
    files += f; f
  }

  /** Waits for the batch being written, stops the writer and deletes every
    * file and then `dir`, even if a write failed; then rethrows that
    * failure. The filling buffer is dropped unwritten: its files are
    * deleted here.
    */
  def close(): Unit = {
    filling.clear()
    synchronized { stopping = true; notifyAll() }
    try if (writer != null) writer.join()
    finally { files.foreach(_.release()); files.clear(); dir.delete(): Unit }
    check()
  }

  /** The buffer an append encodes into, from its position on. */
  private[spill] def buffer: ByteBuffer = filling.buf

  /** Records the filling buffer's bytes from `from` to its position as one
    * write at `at` of `ch`; returns the number of the batch that holds it.
    */
  private[spill] def commit(ch: FileChannel, at: Long, from: Int): Long = {
    filling.writes += Write(ch, at, from, filling.buf.position())
    sent + 1
  }

  /** Hands the filling buffer to the writer once the previous batch has
    * landed, and returns the other buffer, into whose start it first moves
    * the filling buffer's bytes from `keep` on: an append that does not
    * fit moves whole. Starts the writer on the first hand-off.
    */
  private[spill] def handOff(keep: Int): ByteBuffer = {
    await(sent)
    val full = filling
    filling = spare; spare = full
    filling.clear()
    filling.buf.put(full.buf.duplicate().limit(full.buf.position()).position(keep))
    if (writer == null) {
      writer = new Thread(() => writeBehind(), s"spill-writer-${dir.getName}")
      writer.setDaemon(true)
      writer.start()
    }
    synchronized { sent += 1; notifyAll() }
    filling.buf
  }

  /** Returns once batch `seq` has landed, handing it off first if it is
    * still filling. Throws if a write failed; never waits on a writer that
    * has stopped.
    */
  private[spill] def await(seq: Long): Unit = {
    check()
    if (seq > sent) handOff(filling.buf.position())
    synchronized { while (written < seq && !exited) wait() }
    check()
  }

  private[spill] def check(): Unit =
    if (failure != null) throw new IOException(s"a spill write under $dir failed", failure)

  /** The writer thread: each batch's writes, batch by batch in hand-off order. */
  private def writeBehind(): Unit =
    try {
      var seq = 1L
      while (handedOff(seq)) {
        spare.writeOut()
        synchronized { written = seq; notifyAll() }
        seq += 1
      }
    } catch { case e: Throwable => failure = e }
    finally synchronized { exited = true; notifyAll() }

  /** Waits until batch `seq` is handed off; false if the store closes first. */
  private def handedOff(seq: Long): Boolean = synchronized {
    while (sent < seq && !stopping) wait()
    sent >= seq
  }
}

object DiskSpillStore {
  /** Size of each of a store's two staging buffers, and the most a read
    * fetches per call.
    */
  val BufferBytes: Int = 1 << 16
  /** Bytes of an entry before its payload: key, declared size, payload bytes. */
  val HeaderBytes: Int = 16

  /** One positional write: bytes `[from, until)` of its batch's buffer, at `at` of `ch`. */
  private[spill] final case class Write(ch: FileChannel, at: Long, from: Int, until: Int)

  /** A staging buffer and the writes it holds, in the order they were encoded. */
  private[spill] final class Batch {
    val buf    = ByteBuffer.allocate(BufferBytes)
    val writes = ArrayBuffer.empty[Write]
    def clear(): Unit = { buf.clear(); writes.clear() }
    def writeOut(): Unit = writes.foreach { w =>
      buf.limit(w.until).position(w.from)
      var at = w.at
      while (buf.hasRemaining) at += w.ch.write(buf, at)
    }
  }
}

final class DiskSpillFile[T](path: File, serde: Serde[T], store: DiskSpillStore[T]) extends SpillFile[T] {
  import DiskSpillStore.{BufferBytes, HeaderBytes}

  private var ch: FileChannel = _
  private var end             = 0L // file length once every encoded byte has landed
  private var batch           = 0L // the store's batch that holds this file's last write
  private var nByte           = 0L
  private var nRec            = 0L
  private var nFrm            = 0L

  /** Encodes the records into the store's filling buffer as one write at
    * the file's end. An append that does not fit moves whole into the next
    * buffer, so an append of up to `BufferBytes` is one write call; a
    * larger one is cut where a buffer fills. A record larger than a buffer
    * is written here, once this file's earlier writes have landed.
    */
  def append(it: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    store.check()
    if (ch == null) ch = FileChannel.open(path.toPath, CREATE_NEW, READ, WRITE)
    var buf  = store.buffer
    var from = buf.position() // where the current write starts in `buf`
    while (it.hasNext) {
      val r     = it.next()
      val n     = serde.bytes(r.payload)
      val entry = HeaderBytes + n
      if (entry > BufferBytes) {
        commit(buf, from)
        store.await(batch)
        val big = encode(r, n, ByteBuffer.allocate(entry)).flip()
        while (big.hasRemaining) end += ch.write(big, end)
        buf = store.buffer
        from = buf.position()
      } else {
        if (buf.remaining < entry) {
          if (buf.position() - from + entry > BufferBytes) { commit(buf, from); from = buf.position() }
          buf = store.handOff(from)
          from = 0
        }
        encode(r, n, buf)
        end += entry
      }
      nByte += r.size; nRec += 1
    }
    commit(buf, from)
    nFrm += nFrames
  }

  private def encode(r: JoinRec[T], n: Int, buf: ByteBuffer): ByteBuffer = {
    buf.putLong(r.key).putInt(r.size).putInt(n)
    serde.write(r.payload, buf)
    buf
  }

  /** Hands `buf`'s bytes from `from` to its position, which end at `end`,
    * to the store as one write.
    */
  private def commit(buf: ByteBuffer, from: Int): Unit =
    if (buf.position() > from) batch = store.commit(ch, end - (buf.position() - from), from)

  /** Reads exactly the `records` entries appended so far, once their writes
    * have landed, with positional reads into a buffer of the iterator's
    * own; no read opens the file. A file cut short throws `EOFException`.
    */
  def readAll(): Iterator[JoinRec[T]] = {
    store.await(batch)
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
  /** Waits for this file's writes, then closes its channel and removes it. */
  def delete(): Unit = { store.await(batch); release() }

  /** Closes the channel and removes the file, if this file created it. */
  private[spill] def release(): Unit = if (ch != null) {
    ch.close(); ch = null
    path.delete(): Unit
  }
}
