package repro.core.victim

import repro.core.frames.PartitionState

/** Context handed to a victim selection policy at each destaging decision.
  *
  * @param numPartitions       total partitions in this round
  * @param numSpilled          partitions already spilled
  * @param incomingPartition   partition id the triggering record hashes to
  * @param remainingBuildBytes build-input bytes not yet read, when known
  *                            (rounds after the first — used by Best-Match, §8.4)
  */
final case class VictimContext(
    numPartitions: Int,
    numSpilled: Int,
    incomingPartition: Int,
    remainingBuildBytes: Option[Long] = None,
)

/** A dynamic destaging (victim selection) policy (§7): choose which
  * memory-resident partition to spill when memory is insufficient.
  *
  * `candidates` is the non-empty list of memory-resident partitions holding
  * at least one frame, in ascending id order. Ties break toward the lowest
  * partition id so every policy is deterministic (Random is seeded).
  */
trait VictimPolicy {
  def name: String
  def choose[T](candidates: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int

  /** Pick candidate minimizing `score`; ties → lowest id (candidates are
    * id-ordered, and `<` keeps the earliest minimum).
    */
  protected final def argMin[T](candidates: IndexedSeq[PartitionState[T]])(score: PartitionState[T] => Double): Int = {
    var best = candidates.head; var bestS = score(best); var i = 1
    while (i < candidates.size) {
      val c = candidates(i); val s = score(c)
      if (s < bestS) { best = c; bestS = s }
      i += 1
    }
    best.id
  }

  protected final def argMax[T](candidates: IndexedSeq[PartitionState[T]])(score: PartitionState[T] => Double): Int =
    argMin(candidates)(c => -score(c))

  /** Element at the median position of candidates ordered by `score`
    * (lower median for even counts — an integer-division pick).
    */
  protected final def median[T](candidates: IndexedSeq[PartitionState[T]])(score: PartitionState[T] => Double): Int = {
    val sorted = candidates.sortBy(c => (score(c), c.id))
    sorted((sorted.size - 1) / 2).id
  }
}

/** Spill the partition with the most in-memory bytes — maximizes freed
  * frames and sequential writes; the choice of [45] and SQL Server [25].
  */
case object LargestSize extends VictimPolicy {
  val name = "Largest-Size"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = argMax(cs)(_.bytesInMemory.toDouble)
}

/** Spill the partition with the most in-memory records. */
case object LargestRecords extends VictimPolicy {
  val name = "Largest-Records"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = argMax(cs)(_.recordsInMemory.toDouble)
}

/** Spill the incoming record's own partition if it holds a frame; else the
  * largest.
  */
case object LargestSizeSelfVictim extends VictimPolicy {
  val name = "Largest-Size-Self-Victim"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int =
    cs.find(_.id == ctx.incomingPartition).map(_.id).getOrElse(argMax(cs)(_.bytesInMemory.toDouble))
}

/** Spill the partition of median in-memory size. */
case object MedianSize extends VictimPolicy {
  val name = "Median-Size"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = median(cs)(_.bytesInMemory.toDouble)
}

/** Spill the partition with the median record count. */
case object MedianRecords extends VictimPolicy {
  val name = "Median-Records"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = median(cs)(_.recordsInMemory.toDouble)
}

/** Spill the smallest partition holding at least one frame — optimistic:
  * avoid overspilling in case little input remains.
  */
case object SmallestSize extends VictimPolicy {
  val name = "Smallest-Size"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = argMin(cs)(_.bytesInMemory.toDouble)
}

/** Spill the memory-resident partition with the fewest (>=1) records. */
case object SmallestRecords extends VictimPolicy {
  val name = "Smallest-Records"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = argMin(cs)(_.recordsInMemory.toDouble)
}

/** Spill the incoming record's own partition if it holds a frame; else the
  * smallest.
  */
case object SmallestSizeSelfVictim extends VictimPolicy {
  val name = "Smallest-Size-Self-Victim"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int =
    cs.find(_.id == ctx.incomingPartition).map(_.id).getOrElse(argMin(cs)(_.bytesInMemory.toDouble))
}

/** Spill a uniformly random memory-resident partition (seeded). */
final class RandomVictim(seed: Long) extends VictimPolicy {
  private val rnd = new java.util.Random(seed)
  val name        = "Random"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = cs(rnd.nextInt(cs.size)).id
}

/** Optimistic-then-pessimistic: spill the smallest until more than half the
  * partitions have spilled, then spill the largest.
  */
case object HalfEmpty extends VictimPolicy {
  val name = "Half-Empty"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int =
    if (ctx.numSpilled > ctx.numPartitions / 2) argMax(cs)(_.bytesInMemory.toDouble)
    else argMin(cs)(_.bytesInMemory.toDouble)
}

/** Spill the partition whose frames are least fragmented (lowest average
  * free bytes per frame), wasting the least I/O on empty frame space.
  */
case object LeastFragmentation extends VictimPolicy {
  val name = "Least-Fragmentation"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int =
    argMin(cs)(c => (c.frames.size.toLong * c.frameSize - c.bytesInMemory).toDouble / c.frames.size)
}

/** Alternate between spilling the smallest and the largest partition. */
final class LowHigh extends VictimPolicy {
  private var low = true
  val name        = "Low-High"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = {
    val id = if (low) argMin(cs)(_.bytesInMemory.toDouble) else argMax(cs)(_.bytesInMemory.toDouble)
    low = !low
    id
  }
}

/** Among partitions whose size is >= 80% of the largest, spill the one with
  * the fewest records (low records-to-size ratio keeps more records in
  * memory per byte spilled).
  */
case object RecordSizeRatio extends VictimPolicy {
  val name = "Record-Size-Ratio"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = {
    val maxBytes  = cs.iterator.map(_.bytesInMemory).max
    val threshold = 0.8 * maxBytes
    val big       = cs.filter(_.bytesInMemory >= threshold)
    argMin(big)(_.recordsInMemory.toDouble)
  }
}

/** Best-Match (§8.4): when the remaining build-input size is known (rounds
  * after the first), spill the partition whose size is closest to the
  * remainder, to avoid overspilling. Falls back to Largest-Size round 1.
  */
case object BestMatch extends VictimPolicy {
  val name = "Best-Match"
  def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int =
    ctx.remainingBuildBytes match {
      case Some(rem) => argMin(cs)(c => math.abs(c.bytesInMemory.toDouble - rem.toDouble))
      case None      => argMax(cs)(_.bytesInMemory.toDouble)
    }
}

object VictimPolicy {
  /** The paper's 13 policies (§7), as fresh instances (some are stateful). */
  def all13(seed: Long = 7): Seq[() => VictimPolicy] = Seq(
    () => LargestSize,
    () => LargestRecords,
    () => LargestSizeSelfVictim,
    () => MedianSize,
    () => MedianRecords,
    () => SmallestSize,
    () => SmallestRecords,
    () => SmallestSizeSelfVictim,
    () => new RandomVictim(seed),
    () => HalfEmpty,
    () => LeastFragmentation,
    () => new LowHigh,
    () => RecordSizeRatio,
  )
}
