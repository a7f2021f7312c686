package repro.core.insertion

import repro.core.frames.PartitionState

/** Counters for the CPU effort of partition insertion (paper §5: frames
  * searched per record is the cost axis against frame fullness).
  */
final class SearchStats {
  var framesSearched = 0L
  var rngCalls       = 0L
  var insertions     = 0L
}

/** A partition insertion algorithm (§5): given the target partition and an
  * incoming record's size, pick an in-memory frame with enough free space,
  * or report that a new frame must be appended.
  *
  * Implementations are instantiated per join round and may keep state (the
  * engine additionally maintains the Next-Fit cursor on [[PartitionState]]).
  */
trait InsertionPolicy {
  def name: String

  /** Index into `p.frames` of a frame with at least `size` free bytes, or
    * -1 to request appending a new frame. Must add every examined frame to
    * `stats.framesSearched`.
    */
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int

  /** Hook invoked after the record landed in frame `idx` (possibly a newly
    * appended frame). Default maintains the Next-Fit cursor; harmless for
    * the other policies.
    */
  def inserted[T](p: PartitionState[T], idx: Int, size: Int): Unit = {
    p.cursor = idx; p.lastInsertSize = size
  }

  /** The first frame from `from` down to `stop` (inclusive) with at least
    * `size` free bytes, or -1; counts every examined frame.
    */
  protected final def scanDown[T](p: PartitionState[T], size: Int, from: Int, stop: Int, stats: SearchStats): Int = {
    val fs = p.frames
    var i  = from
    while (i >= stop) {
      stats.framesSearched += 1
      if (fs(i).free >= size) return i
      i -= 1
    }
    -1
  }
}

/** Append(n): search only the newest `n` frames, newest→oldest; give up and
  * append a new frame otherwise. The paper's overall winner at n = 8.
  */
final case class Append(n: Int) extends InsertionPolicy {
  require(n >= 1)
  val name = s"Append($n)"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int =
    scanDown(p, size, p.frames.size - 1, math.max(0, p.frames.size - n), stats)
}

/** First-Fit: search all frames newest→oldest, stop at the first fit. */
case object FirstFit extends InsertionPolicy {
  val name = "First-Fit"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int =
    scanDown(p, size, p.frames.size - 1, 0, stats)
}

/** First-Fit(%p): like First-Fit but search at most `pct` of the partition's
  * frames (newest→oldest) before giving up.
  */
final case class FirstFitPct(pct: Double) extends InsertionPolicy {
  require(pct > 0 && pct <= 1)
  val name = s"First-Fit(${(pct * 100).round}%)"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val n = p.frames.size
    scanDown(p, size, n - 1, math.max(0, n - math.ceil(n * pct).toInt), stats)
  }
}

/** Best-Fit: search every frame; choose the fitting frame with the least
  * leftover space. Maximum compactness, maximum CPU (paper's worst performer
  * on response time).
  */
case object BestFit extends InsertionPolicy {
  val name = "Best-Fit"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val fs       = p.frames
    var best     = -1
    var bestFree = Int.MaxValue
    var i        = fs.size - 1
    while (i >= 0) {
      stats.framesSearched += 1
      val f = fs(i).free
      if (f >= size && f < bestFree) { best = i; bestFree = f }
      i -= 1
    }
    best
  }
}

/** Next-Fit: guided search starting from the previous record's insertion
  * point; direction depends on whether the new record is larger (search
  * newer frames) or smaller (search older frames first, then newer).
  */
final class NextFit extends InsertionPolicy {
  val name = "Next-Fit"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val fs = p.frames
    val c  = p.cursor
    // Newer frames from `from` upward.
    def scanUp(from: Int): Int = {
      var i = from
      while (i < fs.size) {
        stats.framesSearched += 1
        if (fs(i).free >= size) return i
        i += 1
      }
      -1
    }
    // First record (or cursor invalidated by a spill): newest → oldest.
    if (c < 0 || c >= fs.size) scanDown(p, size, fs.size - 1, 0, stats)
    else if (size >= p.lastInsertSize) scanUp(c)
    else {
      val i = scanDown(p, size, c, 0, stats)
      if (i >= 0) i else scanUp(c + 1)
    }
  }
}

/** Random(%p): probe up to `pct` of the partition's frames uniformly at
  * random; stop at the first fit. The RNG-call count is tracked separately —
  * the paper attributes Random's poor response time to RNG overhead.
  */
final class RandomPct(pct: Double, seed: Long) extends InsertionPolicy {
  require(pct > 0 && pct <= 1)
  private val rnd = new java.util.Random(seed)
  val name        = s"Random(${(pct * 100).round}%)"
  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val fs = p.frames
    if (fs.isEmpty) return -1
    val tries = math.ceil(fs.size * pct).toInt
    var t     = 0
    while (t < tries) {
      val i = rnd.nextInt(fs.size)
      stats.rngCalls += 1
      stats.framesSearched += 1
      if (fs(i).free >= size) return i
      t += 1
    }
    -1
  }
}
