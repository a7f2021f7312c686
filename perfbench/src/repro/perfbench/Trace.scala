package repro.perfbench

import java.io.{File, PrintWriter}
import java.util.concurrent.atomic.LongAdder

import scala.collection.mutable

import repro.core.frames.{JoinRec, PartitionState}
import repro.core.hhj.HHJConfig
import repro.core.insertion.{InsertionPolicy, SearchStats}
import repro.core.spill.{SpillFile, SpillStore}
import repro.core.victim.{VictimContext, VictimPolicy}

/** Call count plus total nanoseconds of one layer boundary. Per-record
  * layers (insertion, emit, spill reads) are kept in this form only; their
  * calls are too many to record as spans.
  */
final class LayerClock {
  val calls = new LongAdder
  val nanos = new LongAdder
  def add(ns: Long): Unit = { calls.increment(); nanos.add(ns) }
  def reset(): Unit       = { calls.reset(); nanos.reset() }
}

/** One recorded span: a layer call with its start, end and parent span. */
final case class Span(id: Long, parent: Long, name: String, startNs: Long, endNs: Long)

/** The traced run's in-memory record: counters at every layer boundary the
  * benchmark wraps, and spans for joins, spill appends and victim choices.
  * Spark runs its tasks in this JVM (local mode), so the wrappers installed
  * through `HHJConfig` report here from executor threads too.
  */
object Trace {
  val insertion        = new LayerClock
  val victim           = new LayerClock
  val victimCandidates = new LongAdder
  val append           = new LayerClock
  val read             = new LayerClock
  val readBytes        = new LongAdder
  val emit             = new LayerClock
  val spillFiles       = new LongAdder

  private val MaxSpans      = 400000
  private val spans         = mutable.ArrayBuffer.empty[Span]
  private var nextId        = 0L
  private var dropped       = 0L
  @volatile var currentJoin = 0L

  def resetCounters(): Unit = {
    Seq(insertion, victim, append, read, emit).foreach(_.reset())
    victimCandidates.reset(); readBytes.reset(); spillFiles.reset()
  }

  /** Records a span under `parent` (0 = root). */
  def span(name: String, parent: Long, startNs: Long, endNs: Long): Unit = synchronized {
    nextId += 1
    if (spans.size < MaxSpans) spans += Span(nextId, parent, name, startNs, endNs) else dropped += 1
  }

  /** Opens a join span: child spans recorded until it closes point to it. */
  def beginJoin(): Long = synchronized { nextId += 1; currentJoin = nextId; nextId }

  def endJoin(id: Long, name: String, startNs: Long, endNs: Long): Unit = synchronized {
    if (spans.size < MaxSpans) spans += Span(id, 0L, name, startNs, endNs) else dropped += 1
    currentJoin = 0L
  }

  /** Writes every span held in memory as tab-separated lines. */
  def writeSpans(file: File): Unit = synchronized {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("id\tparent\tname\tstart_ns\tend_ns")
      spans.foreach(s => out.println(s"${s.id}\t${s.parent}\t${s.name}\t${s.startNs}\t${s.endNs}"))
      if (dropped > 0) out.println(s"# $dropped spans dropped beyond $MaxSpans")
    } finally out.close()
  }

  /** The same configuration with the insertion and victim factories wrapped. */
  def traced(cfg: HHJConfig): HHJConfig = {
    val ins = cfg.insertion
    val vic = cfg.victim
    cfg.copy(insertion = () => new TracedInsertion(ins()), victim = () => new TracedVictim(vic()))
  }

  def timedEmit[T](inner: (JoinRec[T], JoinRec[T]) => Unit): (JoinRec[T], JoinRec[T]) => Unit =
    (b: JoinRec[T], p: JoinRec[T]) => {
      val t0 = System.nanoTime()
      inner(b, p)
      emit.add(System.nanoTime() - t0)
    }
}

/** Forwards both insertion calls, `chooseFrame` and `inserted` (Next-Fit
  * keeps its cursor there), and times them. Calls count `chooseFrame` only.
  */
final class TracedInsertion(inner: InsertionPolicy) extends InsertionPolicy {
  def name: String = inner.name

  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val t0  = System.nanoTime()
    val idx = inner.chooseFrame(p, size, stats)
    Trace.insertion.add(System.nanoTime() - t0)
    idx
  }

  override def inserted[T](p: PartitionState[T], idx: Int, size: Int): Unit = {
    val t0 = System.nanoTime()
    inner.inserted(p, idx, size)
    Trace.insertion.nanos.add(System.nanoTime() - t0)
  }
}

final class TracedVictim(inner: VictimPolicy) extends VictimPolicy {
  def name: String = inner.name

  def choose[T](candidates: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = {
    val t0 = System.nanoTime()
    val v  = inner.choose(candidates, ctx)
    val t1 = System.nanoTime()
    Trace.victim.add(t1 - t0)
    Trace.victimCandidates.add(candidates.size.toLong)
    Trace.span("victim.choose", Trace.currentJoin, t0, t1)
    v
  }
}

/** Wraps a spill store so every file it hands out is traced, and counts the
  * files still undeleted.
  */
final class TracedSpillStore[T](inner: SpillStore[T]) extends SpillStore[T] {
  private val live = mutable.Set.empty[TracedSpillFile[T]]

  def newFile(tag: String): SpillFile[T] = {
    Trace.spillFiles.increment()
    val f = new TracedSpillFile[T](inner.newFile(tag), this)
    live += f
    f
  }

  private[perfbench] def deleted(f: TracedSpillFile[T]): Unit = live -= f

  def filesLeft: Int = live.size

  def close(): Unit = { inner.close(); live.clear() }
}

final class TracedSpillFile[T](inner: SpillFile[T], store: TracedSpillStore[T]) extends SpillFile[T] {
  def append(recs: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    val t0 = System.nanoTime()
    inner.append(recs, nFrames)
    val t1 = System.nanoTime()
    Trace.append.add(t1 - t0)
    Trace.span("spill.append", Trace.currentJoin, t0, t1)
  }

  def readAll(): Iterator[JoinRec[T]] = {
    val it = inner.readAll()
    // The stores read ahead in `next()`; `hasNext` only tests the buffered record.
    new Iterator[JoinRec[T]] {
      def hasNext: Boolean = it.hasNext
      def next(): JoinRec[T] = {
        val t0 = System.nanoTime()
        val r  = it.next()
        Trace.read.add(System.nanoTime() - t0)
        Trace.readBytes.add(r.size.toLong)
        r
      }
    }
  }

  def bytes: Long    = inner.bytes
  def records: Long  = inner.records
  def frames: Long   = inner.frames
  def delete(): Unit = { inner.delete(); store.deleted(this) }
}
