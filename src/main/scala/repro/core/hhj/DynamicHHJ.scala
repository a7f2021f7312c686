package repro.core.hhj

import scala.collection.mutable.ArrayBuffer

import repro.core.frames.{Frame, FramePool, JoinRec, PartitionState, SplitFun}
import repro.core.growth.GrowthPolicy
import repro.core.spill.{SpillFile, SpillStore}
import repro.core.victim.VictimContext

/** The Dynamic Hybrid Hash Join operator (paper §2.3), with every design
  * dimension the paper studies made pluggable:
  *
  *   - number of partitions per round ([[PartitionRule]], §4),
  *   - partition insertion ([[repro.core.insertion.InsertionPolicy]], §5),
  *   - spilled-partition growth ([[GrowthPolicy]], §6),
  *   - victim selection ([[repro.core.victim.VictimPolicy]], §7),
  *   - the §8 optimizations (role reversal, in-memory hash join rounds,
  *     bail-out to block nested loop join, reloading spilled partitions).
  *
  * Matching is on the 64-bit record key; `emit(buildRec, probeRec)` fires
  * for every key-equal pair, and callers whose true join keys are wider
  * than 64 bits re-verify equality inside `emit` (hash collisions can only
  * produce false candidates, never lost matches).
  */
object DynamicHHJ {

  /** §8.3: a later round's build side is joined in memory, unpartitioned,
    * when its size times this hash-table overhead allowance fits in memory
    * (the paper's simulator uses 1.4).
    */
  val MemFudge = 1.4

  /** §8.1 bail-out: a later round whose build side shrank by less than this
    * fraction of its parent round's is not helped by hashing (the join
    * attribute is pathologically skewed) and falls back to block nested
    * loop join.
    */
  val BailOutShrinkage = 0.2

  /** Recursion depth cap; rounds at this depth fall back to block nested
    * loop join.
    */
  val MaxDepth = 16

  def join[T](
      build: Iterator[JoinRec[T]],
      probe: Iterator[JoinRec[T]],
      cfg: HHJConfig,
      store: SpillStore[T],
      emit: (JoinRec[T], JoinRec[T]) => Unit,
  ): HHJStats = {
    val stats = new HHJStats
    val pairs = runRound(build, probe, cfg.partitionRule.firstRound, depth = 0, None, cfg, store, stats, emit)
    pairs.foreach { case (bf, pf, bytes) => processPair(bf, pf, bytes, depth = 1, cfg, store, stats, emit) }
    stats
  }

  // ------------------------------------------------------------------
  // Hash table and the block join over a spilled file pair
  // ------------------------------------------------------------------

  /** Build records chained by their 64-bit key over flat arrays: record
    * refs and keys in insertion order, a power-of-two bucket-head array
    * indexed by a multiplicative hash of the key, and one `next` link per
    * record. Fill with `add`, `seal` once, then `probe`; `clear` empties it
    * for refilling and keeps the arrays. Links are 1-based so that 0, a
    * fresh array's value, ends a chain.
    */
  private final class HashTable[T](capacity: Int) {
    private var recs  = new Array[AnyRef](math.max(capacity, 1))
    private var keys  = new Array[Long](recs.length)
    private var next  = new Array[Int](recs.length)
    private var heads = new Array[Int](2)
    private var shift = 63
    private var n     = 0

    def add(r: JoinRec[T]): Unit = {
      if (n == recs.length) {
        val len = math.min(2L * n, Int.MaxValue - 8L).toInt
        require(len > n, s"hash table cannot hold more than $n records")
        recs = java.util.Arrays.copyOf(recs, len)
        keys = java.util.Arrays.copyOf(keys, len)
        next = new Array[Int](len)
      }
      recs(n) = r
      keys(n) = r.key
      n += 1
    }

    private def bucket(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

    /** Chains every added record. Records are linked last to first, so a
      * chain — and so each key's matches — runs in insertion order.
      */
    def seal(): Unit = {
      var buckets = 2
      while (buckets < n && buckets < (1 << 30)) buckets <<= 1
      if (heads.length == buckets) java.util.Arrays.fill(heads, 0) else heads = new Array[Int](buckets)
      shift = 64 - Integer.numberOfTrailingZeros(buckets)
      var i = n - 1
      while (i >= 0) {
        val h = bucket(keys(i))
        next(i) = heads(h)
        heads(h) = i + 1
        i -= 1
      }
    }

    def clear(): Unit = n = 0

    /** Emits `(buildRec, r)` for every build record with `r`'s key, in the
      * order they were added.
      */
    def probe(r: JoinRec[T], stats: HHJStats, emit: (JoinRec[T], JoinRec[T]) => Unit): Unit = {
      val k = r.key
      var j = heads(bucket(k))
      while (j != 0) {
        val i = j - 1
        if (keys(i) == k) { stats.outputRecords += 1; emit(recs(i).asInstanceOf[JoinRec[T]], r) }
        j = next(i)
      }
    }
  }

  /** Joins a file pair by loading the build side `blockBytes` (declared
    * bytes) at a time into a hash table and re-scanning the probe side once
    * per block: §8.3's in-memory join is one unbounded block, §8.1's block
    * nested loop join uses blocks of M-1 frames. The table is sized for the
    * build file's average record size and reused across blocks.
    */
  private def blockJoin[T](
      b: SpillFile[T],
      p: SpillFile[T],
      blockBytes: Long,
      stats: HHJStats,
      emit: (JoinRec[T], JoinRec[T]) => Unit,
  ): Unit = {
    val bIt      = b.readAll()
    val perBlock = if (blockBytes >= b.bytes) b.records else math.ceil(b.records.toDouble * blockBytes / b.bytes).toLong
    val table    = new HashTable[T](math.min(perBlock, Int.MaxValue - 8L).toInt)
    stats.io.noteRead(b.frames, b.bytes)
    while (bIt.hasNext) {
      table.clear()
      var load = 0L
      while (bIt.hasNext && load < blockBytes) {
        val r = bIt.next()
        stats.buildRecordsProcessed += 1
        load += r.size
        table.add(r)
      }
      table.seal()
      stats.io.noteRead(p.frames, p.bytes)
      p.readAll().foreach { r => stats.probeRecordsProcessed += 1; table.probe(r, stats, emit) }
    }
  }

  // ------------------------------------------------------------------
  // Recursion over spilled (build, probe) file pairs
  // ------------------------------------------------------------------

  /** Joins one spilled pair; both files hold records (see `runRound`). */
  private def processPair[T](
      buildFile: SpillFile[T],
      probeFile: SpillFile[T],
      parentBuildBytes: Long,
      depth: Int,
      cfg: HHJConfig,
      store: SpillStore[T],
      stats: HHJStats,
      emit: (JoinRec[T], JoinRec[T]) => Unit,
  ): Unit = {
    stats.maxDepthReached = math.max(stats.maxDepthReached, depth)
    // §8.2 role reversal: sizes are known now; the smaller side builds. The
    // caller's emit contract is (originalBuildRec, originalProbeRec), so a
    // reversal must re-orient the callback for everything below this point.
    val reverse = cfg.roleReversal && probeFile.bytes < buildFile.bytes
    val (b, p)  = if (reverse) (probeFile, buildFile) else (buildFile, probeFile)
    val em      = if (reverse) (x: JoinRec[T], y: JoinRec[T]) => emit(y, x) else emit
    if (reverse) stats.roleReversals += 1

    val memBytes = cfg.memoryFrames.toLong * cfg.frameSize
    var pairs    = Seq.empty[(SpillFile[T], SpillFile[T], Long)]
    if (cfg.inMemoryHashJoin && b.bytes * MemFudge <= memBytes) {
      // §8.3: skip partitioning, hash-join directly in memory.
      stats.inMemoryRounds += 1
      blockJoin(b, p, Long.MaxValue, stats, em)
    } else if (depth >= MaxDepth || b.bytes > (1.0 - BailOutShrinkage) * parentBuildBytes) {
      // §8.1 bail-out: hashing is not shrinking the input — the join
      // attribute is pathologically skewed. Fall back to BNLJ.
      stats.bnljRounds += 1
      blockJoin(b, p, (cfg.memoryFrames - 1).toLong * cfg.frameSize, stats, em)
    } else {
      val numP = PartitionRule.forRound(cfg.partitionRule, b.bytes, cfg.memoryFrames, cfg.frameSize)
      stats.io.noteRead(b.frames, b.bytes)
      stats.io.noteRead(p.frames, p.bytes)
      pairs = runRound(b.readAll(), p.readAll(), numP, depth, Some(b.bytes), cfg, store, stats, em)
    }
    b.delete(); p.delete()
    pairs.foreach { case (bf, pf, bytes) => processPair(bf, pf, bytes, depth + 1, cfg, store, stats, em) }
  }

  // ------------------------------------------------------------------
  // One partitioned round: dynamic build phase + probe phase
  // ------------------------------------------------------------------

  /** Runs one build+probe round over iterators; returns the spilled
    * (buildFile, probeFile, thisRoundBuildBytes) pairs for recursion.
    */
  private def runRound[T](
      buildIt: Iterator[JoinRec[T]],
      probeIt: Iterator[JoinRec[T]],
      numPartitions: Int,
      depth: Int,
      totalBuildBytes: Option[Long],
      cfg: HHJConfig,
      store: SpillStore[T],
      stats: HHJStats,
      emit: (JoinRec[T], JoinRec[T]) => Unit,
  ): Seq[(SpillFile[T], SpillFile[T], Long)] = {
    stats.rounds += 1
    val P = numPartitions
    require(P >= 2 && P < cfg.memoryFrames, s"partitions=$P must be in [2, memoryFrames)")

    val pool       = new FramePool(cfg.memoryFrames, cfg.frameSize)
    val parts      = Array.tabulate(P)(new PartitionState[T](_, cfg.frameSize))
    val insertion  = cfg.insertion()
    val victim     = cfg.victim()
    val seed       = cfg.seed + depth
    val buildFiles = new Array[SpillFile[T]](P)
    var numSpilled = 0
    var consumed   = 0L // build bytes read so far (Best-Match context)
    var roundBuild = 0L

    /** Write a partition's in-memory frames, then `extra` records, to its
      * build file as one write, and return the frames to the pool. Spilling
      * a victim, a G-S steal, an NG-NS buffer flush, the end-of-build drain
      * and a §8.5 reload abort are all this one step.
      */
    def flush(p: PartitionState[T], extra: Seq[JoinRec[T]] = Nil): Unit = {
      val n          = p.frames.size.toLong
      val bytes      = p.bytesInMemory
      val extraBytes = extra.iterator.map(_.size.toLong).sum
      val written    = bytes + extraBytes
      if (buildFiles(p.id) == null) buildFiles(p.id) = store.newFile(s"d$depth-p${p.id}-build")
      buildFiles(p.id).append(p.frames.iterator.flatMap(_.records.iterator) ++ extra.iterator, n)
      stats.io.noteWrite(n, written)
      stats.buildIo.noteWrite(n, written)
      stats.buildSpillBytes += written
      if (depth == 0) stats.round1BuildSpillBytes += written
      p.noteFlushed(bytes, p.recordsInMemory, n)
      p.spilledBytes += extraBytes
      p.spilledRecs += extra.size
      pool.release(p.dropAllFrames())
    }

    /** Free at least one frame. `incoming` is the partition id of the record
      * that triggered the pressure.
      */
    def makeRoom(incoming: Int): Unit = {
      if (cfg.growth == GrowthPolicy.GS) {
        // Steal: flush the spilled partition holding the most frames first.
        // A 1-frame accumulation is not worth stealing while a resident
        // victim exists — flushing it would fragment G-S's sequential
        // chunks into the very single-frame writes the policy avoids.
        var best: PartitionState[T] = null
        var i                       = 0
        while (i < P) {
          val p = parts(i)
          if (p.spilled && p.frames.nonEmpty && (best == null || p.frames.size > best.frames.size)) best = p
          i += 1
        }
        if (best != null && best.frames.size >= 2) { flush(best); return }
        val anyResident = parts.exists(p => !p.spilled && p.frames.nonEmpty)
        if (best != null && !anyResident) { flush(best); return }
      }
      val candidates = parts.iterator.filter(p => !p.spilled && p.frames.nonEmpty).toIndexedSeq
      if (candidates.isEmpty)
        throw new IllegalStateException(
          s"no victim available: P=$P M=${cfg.memoryFrames} — memory too small for partition count")
      val ctx = VictimContext(P, numSpilled, incoming, totalBuildBytes.map(t => math.max(0L, t - consumed)))
      val v   = parts(victim.choose(candidates, ctx))
      flush(v)
      v.spilled = true
      numSpilled += 1
      stats.victimSpills += 1
    }

    /** Put `r` into `p` without destaging anything; false when `r` needs a
      * new frame and the pool has none. Resident and G-S spilled partitions
      * search their frames with the insertion policy; a spilled NG-NS
      * partition owns one output buffer: when full it is flushed (one random
      * write) and its frame taken back from the pool at once, which cannot
      * fail as the flush just returned it. With `search = false` a record
      * that has no buffer goes straight into a new frame.
      */
    def tryPlace(p: PartitionState[T], r: JoinRec[T], search: Boolean): Boolean = {
      val buffer = p.spilled && cfg.growth == GrowthPolicy.NGNS
      if (buffer && p.frames.nonEmpty && p.frames(0).free < r.size) flush(p)
      var idx =
        if (buffer) p.frames.size - 1
        else if (search) insertion.chooseFrame(p, r.size, stats.search)
        else -1
      if (idx < 0) {
        if (!pool.tryAcquire()) return false
        p.appendFrame()
        idx = p.frames.size - 1
      }
      p.insertInto(idx, r)
      if (!buffer) insertion.inserted(p, idx, r.size)
      true
    }

    /** Place a build record, destaging to make room if the pool is empty.
      * The partition's frames were already searched, so after `makeRoom`
      * the record takes a new frame — also when the victim was `p` itself
      * (self-victim), which then continues as a spilled partition.
      */
    def place(p: PartitionState[T], r: JoinRec[T]): Unit =
      if (!tryPlace(p, r, search = true)) {
        makeRoom(p.id)
        if (!tryPlace(p, r, search = false)) throw new IllegalStateException("makeRoom freed no frames")
      }

    // ---------------- Build phase ----------------
    while (buildIt.hasNext) {
      val r = buildIt.next()
      require(r.size <= cfg.frameSize, s"record of ${r.size} B exceeds frame size ${cfg.frameSize}")
      stats.buildRecordsProcessed += 1
      stats.search.insertions += 1
      consumed += r.size
      roundBuild += r.size
      place(parts(SplitFun.partition(r.key, seed, P)), r)
    }

    // Round-1 metrics are sampled before the end-of-build drain.
    if (depth == 0) {
      stats.round1Partitions = P
      var frames = 0; var fullness = 0.0; var resident = 0L
      parts.foreach { p =>
        p.frames.foreach { f => frames += 1; fullness += f.fullness }
        if (!p.spilled) resident += p.bytesInMemory
      }
      stats.round1Frames = frames
      stats.round1AvgFullness = if (frames == 0) Double.NaN else fullness / frames
      stats.round1ResidentBytes = resident
      stats.round1SpilledPartitions = parts.count(_.spilled)
    }

    // Drain spilled partitions' remaining in-memory frames.
    parts.foreach(p => if (p.spilled && p.frames.nonEmpty) flush(p))

    // §8.5: reload spilled build partitions that fit in leftover memory.
    if (cfg.reloadSpilled && numSpilled > 0) {
      var changed = true
      while (changed) {
        changed = false
        val stillSpilled = parts.filter(_.spilled)
        val fit = stillSpilled
          .filter { p =>
            // The file's records repacked into `spilledFrames` frames before;
            // expect the same on reload (the abort path below keeps an
            // underestimate safe). Leave one probe output buffer per
            // partition that stays spilled.
            p.spilledFrames <= pool.available - (stillSpilled.length - 1)
          }
          .sortBy(-_.spilledBytes)
        fit.headOption.foreach { p =>
          val f = buildFiles(p.id)
          stats.io.noteRead(f.frames, f.bytes)
          val recs = f.readAll().toArray
          f.delete(); buildFiles(p.id) = null
          p.noteReloaded()
          numSpilled -= 1
          stats.reloadedPartitions += 1
          val stuck = recs.indexWhere(r => !tryPlace(p, r, search = true))
          if (stuck >= 0) {
            // The fudge guard under-estimated fragmentation (possible with
            // near-frame-size records): write everything back out and keep
            // the partition spilled.
            flush(p, recs.toSeq.drop(stuck))
            p.spilled = true
            numSpilled += 1
            stats.reloadedPartitions -= 1
          }
          changed = stuck < 0
        }
      }
    }

    // Reserve one probe output buffer per spilled partition; under G-S the
    // residents may have grown into the whole pool, so destage until the
    // buffers fit.
    while (pool.available < numSpilled) makeRoom(incoming = -1)

    // ---------------- Hash table over resident partitions ----------------
    val resident = parts.filter(!_.spilled)
    val table    = new HashTable[T](resident.iterator.map(_.recordsInMemory).sum.toInt)
    resident.foreach(_.frames.foreach(_.records.foreach(table.add)))
    table.seal()

    // ---------------- Probe phase ----------------
    val probeFiles = new Array[SpillFile[T]](P)
    val probeBufs  = new Array[Frame[T]](P)

    def flushProbeBuf(pid: Int): Unit = {
      val buf = probeBufs(pid)
      if (buf == null || buf.recordCount == 0) return
      if (probeFiles(pid) == null) probeFiles(pid) = store.newFile(s"d$depth-p$pid-probe")
      probeFiles(pid).append(buf.records.iterator.to(Iterator), 1L)
      stats.io.noteWrite(1L, buf.used.toLong)
      stats.probeSpillBytes += buf.used
      buf.clear()
    }

    while (probeIt.hasNext) {
      val r = probeIt.next()
      require(r.size <= cfg.frameSize, s"record of ${r.size} B exceeds frame size ${cfg.frameSize}")
      stats.probeRecordsProcessed += 1
      val pid = SplitFun.partition(r.key, seed, P)
      if (!parts(pid).spilled) table.probe(r, stats, emit)
      else {
        if (probeBufs(pid) == null) {
          require(pool.tryAcquire(), "probe buffer reservation failed") // reserved above
          probeBufs(pid) = new Frame[T](cfg.frameSize)
        }
        if (!probeBufs(pid).insert(r)) { flushProbeBuf(pid); require(probeBufs(pid).insert(r)) }
      }
    }
    (0 until P).foreach(flushProbeBuf)

    // Pair up the spilled files for the next rounds. A spilled build
    // partition whose probe side is empty joins to nothing — drop it.
    val pairs = ArrayBuffer.empty[(SpillFile[T], SpillFile[T], Long)]
    (0 until P).foreach { pid =>
      val (bf, pf) = (buildFiles(pid), probeFiles(pid))
      if (bf != null && pf != null && bf.records > 0 && pf.records > 0) pairs += ((bf, pf, roundBuild))
      else {
        if (bf != null) bf.delete()
        if (pf != null) pf.delete()
      }
    }
    pairs.toSeq
  }
}
