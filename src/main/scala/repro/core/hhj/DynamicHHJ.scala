package repro.core.hhj

import scala.collection.BufferedIterator
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

  /** Probe filter stop rule: when more than `FilterStopShare` of a round's
    * first `FilterSample` tested probe records pass, the filter is not
    * dropping enough to pay for its test, and the round stops testing.
    */
  val FilterSample    = 4096
  val FilterStopShare = 0.9

  def join[T](
      build: Iterator[JoinRec[T]],
      probe: Iterator[JoinRec[T]],
      cfg: HHJConfig,
      store: SpillStore[T],
      emit: (JoinRec[T], JoinRec[T]) => Unit,
  ): HHJStats = {
    val j     = new Join(cfg, store)
    val pairs = j.runRound(build, probe, depth = 0, None, emit)
    j.stats.round1BuildSpillBytes = j.stats.buildIo.bytesWritten
    pairs.foreach { case (bf, pf, bytes) => j.processPair(bf, pf, bytes, depth = 1, emit) }
    j.stats
  }

  // ------------------------------------------------------------------
  // Hash table, probe filter and refill
  // ------------------------------------------------------------------

  /** Probe records a `HashTable` queues before it probes them. */
  private val ProbeBatch = 32

  /** Build records chained by their 64-bit key over flat arrays, built
    * once from `frames`: record refs and keys copied from each frame's
    * directory in frame order (no record is read), a power-of-two
    * bucket-head array indexed by a multiplicative hash of the key, and one
    * `next` link per record. Links are 1-based so that 0, a fresh array's
    * value, ends a chain. Matches are counted in `stats` and passed to
    * `emit`.
    */
  private final class HashTable[T](frames: Iterable[Frame[T]], stats: HHJStats,
                                   emit: (JoinRec[T], JoinRec[T]) => Unit) {
    private val total = frames.iterator.map(_.recordCount.toLong).sum
    require(total <= Int.MaxValue - 8, s"hash table cannot hold more than ${Int.MaxValue - 8} records")
    private val n    = total.toInt
    private val recs = new Array[AnyRef](n)
    private val keys = new Array[Long](n)
    private val next = new Array[Int](n)
    private val heads = {
      var buckets = 2
      while (buckets < n && buckets < (1 << 30)) buckets <<= 1
      new Array[Int](buckets)
    }
    private val shift      = 64 - Integer.numberOfTrailingZeros(heads.length)
    private val batch      = new Array[JoinRec[T]](ProbeBatch)
    private val batchHeads = new Array[Int](ProbeBatch)
    private var batched    = 0

    private def bucket(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

    // Records are linked last to first, so a chain — and so each key's
    // matches — runs in frame order.
    locally {
      var at = 0
      frames.foreach { f =>
        System.arraycopy(f.refArray, 0, recs, at, f.recordCount)
        System.arraycopy(f.keyArray, 0, keys, at, f.recordCount)
        at += f.recordCount
      }
      var i = n - 1
      while (i >= 0) {
        val h = bucket(keys(i))
        next(i) = heads(h)
        heads(h) = i + 1
        i -= 1
      }
    }

    /** Queues probe record `r`, and probes the queue once it holds
      * `ProbeBatch` records.
      */
    def probe(r: JoinRec[T]): Unit = {
      batch(batched) = r
      batched += 1
      if (batched == ProbeBatch) probePending()
    }

    /** Probes every queued record `r` and empties the queue: emits
      * `(buildRec, r)` for every build record with `r`'s key, probe records
      * in their order, each one's matches in frame order. All bucket heads
      * are loaded before any chain is walked, so the batch's cache misses
      * on the head array overlap instead of queueing.
      */
    def probePending(): Unit = {
      var b = 0
      while (b < batched) { batchHeads(b) = heads(bucket(batch(b).key)); b += 1 }
      b = 0
      while (b < batched) {
        val r = batch(b)
        val k = r.key
        var j = batchHeads(b)
        while (j != 0) {
          val i = j - 1
          if (keys(i) == k) { stats.outputRecords += 1; emit(recs(i).asInstanceOf[JoinRec[T]], r) }
          j = next(i)
        }
        b += 1
      }
      batched = 0
    }
  }

  /** A bit filter over one round's spilled build keys (Babb, TODS 1979):
    * one bit per key, so a probe key whose bit is clear matches no spilled
    * build record. `memoryBytes / 8` bits (1/64 of the join memory),
    * rounded up to a power of two of at least 64 (at most 2^32). The hash — the key XOR a
    * round-seed mix, times an odd constant, top bits — is independent of
    * `SplitFun.partition` and of `HashTable.bucket`. `mayMatch` also keeps
    * the stop rule: `testing` turns false after `FilterSample` tests of
    * which more than `FilterStopShare` passed.
    */
  private final class KeyFilter(memoryBytes: Long, seed: Long) {
    private val logBits = (6 until 32).find(b => (1L << b) >= memoryBytes / 8).getOrElse(32)
    private val words   = new Array[Long](1 << (logBits - 6))
    private val mix     = seed * 0xC2B2AE3D27D4EB4FL
    private var tested  = 0
    private var passed  = 0
    var testing         = true

    private def bit(key: Long): Long = ((key ^ mix) * 0xFF51AFD7ED558CCDL) >>> (64 - logBits)

    def addKeys(keys: Array[Long], n: Int): Unit = {
      var i = 0
      while (i < n) { val b = bit(keys(i)); words((b >>> 6).toInt) |= 1L << b; i += 1 }
    }

    def mayMatch(key: Long): Boolean = {
      val b    = bit(key)
      val pass = (words((b >>> 6).toInt) & (1L << b)) != 0
      if (tested < FilterSample) {
        tested += 1
        if (pass) passed += 1
        if (tested == FilterSample) testing = passed <= FilterStopShare * FilterSample
      }
      pass
    }
  }

  /** Moves records of `it` into `p`'s frames in file order: a record goes
    * into the last frame if it fits, else into a new frame from `pool`.
    * Stops before the first record that needs a frame the pool lacks.
    * Every `flush` wrote whole frames in order, so a spill file is a run of
    * groups that each fit in one frame, and each new frame starts at or
    * after the start of the next group: refilling a whole file never takes
    * more than the file's frame count.
    */
  private def refill[T](p: PartitionState[T], it: BufferedIterator[JoinRec[T]], pool: FramePool): Unit =
    while (it.hasNext && ((p.frames.nonEmpty && p.frames.last.free >= it.head.size) || p.takeFrame(pool)))
      p.insertInto(p.frames.size - 1, it.next())

  /** One join: every round shares its config, its spill store and its
    * counters, as in the paper's operator (§2.3).
    */
  private final class Join[T](cfg: HHJConfig, store: SpillStore[T]) {
    val stats = new HHJStats

    /** Streams a spill file back and notes the read: every spill read. */
    private def readBack(f: SpillFile[T]): Iterator[JoinRec[T]] = {
      stats.io.noteRead(f.frames, f.bytes)
      f.readAll()
    }

    // ----------------------------------------------------------------
    // The block join over a spilled file pair
    // ----------------------------------------------------------------

    /** Joins a file pair a block at a time: `refill` loads the build side
      * into M-1 frames, a hash table is built on them, and the probe side
      * is re-scanned once per block. §8.3's in-memory join and §8.1's
      * block nested loop join are both this call; a §8.3 build file that
      * passed the byte test but needs more than M-1 frames joins in two or
      * more blocks.
      */
    private def blockJoin(b: SpillFile[T], p: SpillFile[T], emit: (JoinRec[T], JoinRec[T]) => Unit): Unit = {
      val pool  = new FramePool(cfg.memoryFrames - 1)
      val block = new PartitionState[T](0, cfg.frameSize)
      val bIt   = readBack(b).buffered
      while (bIt.hasNext) {
        refill(block, bIt, pool)
        stats.buildRecordsProcessed += block.recordsInMemory
        val table = new HashTable(block.frames, stats, emit)
        val pIt   = readBack(p)
        while (pIt.hasNext) { stats.probeRecordsProcessed += 1; table.probe(pIt.next()) }
        table.probePending()
        block.releaseFrames(pool)
      }
      stats.peakFrames = math.max(stats.peakFrames, pool.peak)
    }

    // ----------------------------------------------------------------
    // Recursion over spilled (build, probe) file pairs
    // ----------------------------------------------------------------

    /** Joins one spilled pair; both files hold records (see `runRound`). */
    def processPair(
        buildFile: SpillFile[T],
        probeFile: SpillFile[T],
        parentBuildBytes: Long,
        depth: Int,
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

      // §8.3: a build side that fits skips partitioning and is hash-joined
      // in memory. §8.1 bail-out: at the depth cap, or when hashing is not
      // shrinking the input (the join attribute is pathologically skewed),
      // the pair falls back to BNLJ. Both are one block join.
      val fits = cfg.inMemoryHashJoin && b.bytes * MemFudge <= cfg.memoryFrames.toLong * cfg.frameSize
      val pairs =
        if (fits || depth >= MaxDepth || b.bytes > (1.0 - BailOutShrinkage) * parentBuildBytes) {
          if (fits) stats.inMemoryRounds += 1 else stats.bnljRounds += 1
          blockJoin(b, p, em)
          Nil
        } else runRound(readBack(b), readBack(p), depth, Some(b.bytes), em)
      b.delete(); p.delete()
      pairs.foreach { case (bf, pf, bytes) => processPair(bf, pf, bytes, depth + 1, em) }
    }

    // ----------------------------------------------------------------
    // One partitioned round: dynamic build phase + probe phase
    // ----------------------------------------------------------------

    /** Runs one build+probe round over iterators; returns the spilled
      * (buildFile, probeFile, thisRoundBuildBytes) pairs for recursion.
      * `buildBytes`, the size of a later round's build file, sets the
      * round's partition count by `PartitionRule.forRound` and Best-Match's
      * remaining build bytes; round 1 (`None`) takes the rule's first-round
      * count.
      */
    def runRound(
        buildIt: Iterator[JoinRec[T]],
        probeIt: Iterator[JoinRec[T]],
        depth: Int,
        buildBytes: Option[Long],
        emit: (JoinRec[T], JoinRec[T]) => Unit,
    ): Seq[(SpillFile[T], SpillFile[T], Long)] = {
      stats.rounds += 1
      val P = buildBytes.fold(cfg.partitionRule.firstRound)(
        PartitionRule.forRound(cfg.partitionRule, _, cfg.memoryFrames, cfg.frameSize))
      require(P >= 2 && P < cfg.memoryFrames, s"partitions=$P must be in [2, memoryFrames)")

      val pool       = new FramePool(cfg.memoryFrames)
      val parts      = Array.tabulate(P)(new PartitionState[T](_, cfg.frameSize))
      val insertion  = cfg.insertion()
      val victim     = cfg.victim()
      val seed       = cfg.seed + depth
      val buildFiles = new Array[SpillFile[T]](P)
      val probeFiles = new Array[SpillFile[T]](P)
      var roundBuild = 0L // build bytes read so far
      // Set from every spilled build record; made on the round's first build
      // flush, so a round that spills nothing has none.
      var filter: KeyFilter = null

      /** A partition has spilled iff it has a build file. The per-record
        * tests in `tryPlace` and the probe loop spell this out: calling it
        * there made the non-spilling engine_fit join ~9% slower (4-core VM).
        */
      def spilled(p: PartitionState[T]): Boolean = buildFiles(p.id) != null
      def numSpilled: Int                        = buildFiles.count(_ != null)

      /** Write a partition's in-memory frames, in order, to its file in
        * `files` (`buildFiles` or `probeFiles`) as one write, and return the
        * frames to the pool. Spilling a victim, a G-S steal, a full output
        * buffer on either side and the end-of-build and end-of-probe drains
        * are all this one step.
        */
      def flush(p: PartitionState[T], files: Array[SpillFile[T]]): Unit = {
        val n     = p.frames.size.toLong
        val bytes = p.bytesInMemory
        val build = files eq buildFiles
        if (files(p.id) == null) files(p.id) = store.newFile(s"d$depth-p${p.id}-${if (build) "build" else "probe"}")
        if (build && cfg.probeFilter) {
          if (filter == null) filter = new KeyFilter(cfg.memoryFrames.toLong * cfg.frameSize, seed)
          p.frames.foreach(f => filter.addKeys(f.keyArray, f.recordCount))
        }
        files(p.id).append(p.frames.iterator.flatMap(_.iterator), n)
        stats.io.noteWrite(n, bytes)
        if (build) stats.buildIo.noteWrite(n, bytes)
        p.releaseFrames(pool)
      }

      /** Free at least one frame. `incoming` is the partition id of the record
        * that triggered the pressure.
        */
      def makeRoom(incoming: Int): Unit = {
        val candidates = parts.iterator.filter(p => !spilled(p) && p.frames.nonEmpty).toIndexedSeq
        if (cfg.growth == GrowthPolicy.GS) {
          // Steal: flush the spilled partition holding the most frames first
          // (the lowest id among ties). A 1-frame accumulation is not worth
          // stealing while a resident victim exists — flushing it would
          // fragment G-S's sequential chunks into the very single-frame writes
          // the policy avoids.
          val best = parts.iterator.filter(p => spilled(p) && p.frames.nonEmpty).maxByOption(_.frames.size)
          if (best.exists(b => b.frames.size >= 2 || candidates.isEmpty)) { flush(best.get, buildFiles); return }
        }
        if (candidates.isEmpty)
          throw new IllegalStateException(
            s"no victim available: P=$P M=${cfg.memoryFrames} — memory too small for partition count")
        val ctx = VictimContext(P, numSpilled, incoming, buildBytes.map(t => math.max(0L, t - roundBuild)))
        flush(parts(victim.choose(candidates, ctx)), buildFiles)
        stats.victimSpills += 1
      }

      /** Put `r` into spilled `p`'s one output buffer, its only frame: when
        * `r` does not fit, the buffer is flushed to `files` (one random write)
        * and its frame taken back from the pool at once, which cannot fail as
        * the flush just returned it. False when `p` has no buffer yet and the
        * pool has no frame.
        */
      def buffer(p: PartitionState[T], r: JoinRec[T], files: Array[SpillFile[T]]): Boolean = {
        if (p.frames.nonEmpty && p.frames(0).free < r.size) flush(p, files)
        if (p.frames.isEmpty && !p.takeFrame(pool)) return false
        p.insertInto(0, r)
        true
      }

      /** Put build record `r` into `p` without destaging anything; false when
        * `r` needs a new frame and the pool has none. A spilled NG-NS
        * partition uses its output buffer; resident and G-S spilled partitions
        * search their frames with the insertion policy, and with
        * `search = false` the record goes straight into a new frame.
        */
      def tryPlace(p: PartitionState[T], r: JoinRec[T], search: Boolean): Boolean =
        if (buildFiles(p.id) != null && cfg.growth == GrowthPolicy.NGNS) buffer(p, r, buildFiles)
        else {
          var idx = if (search) insertion.chooseFrame(p, r.size, stats.search) else -1
          if (idx < 0) {
            if (!p.takeFrame(pool)) return false
            idx = p.frames.size - 1
          }
          p.insertInto(idx, r)
          insertion.inserted(p, idx, r.size)
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
        roundBuild += r.size
        place(parts(SplitFun.partition(r.key, seed, P)), r)
      }

      // Round-1 metrics are sampled before the end-of-build drain.
      if (depth == 0) {
        stats.round1Partitions = P
        var frames = 0; var fullness = 0.0; var resident = 0L
        parts.foreach { p =>
          p.frames.foreach { f => frames += 1; fullness += f.fullness }
          if (!spilled(p)) resident += p.bytesInMemory
        }
        stats.round1Frames = frames
        stats.round1AvgFullness = if (frames == 0) Double.NaN else fullness / frames
        stats.round1ResidentBytes = resident
        stats.round1SpilledPartitions = numSpilled
      }

      // Drain spilled partitions' remaining in-memory frames.
      parts.foreach(p => if (spilled(p) && p.frames.nonEmpty) flush(p, buildFiles))

      // §8.5: reload spilled build partitions into leftover memory, largest
      // build file first (ties go to the lowest id), leaving one probe output
      // buffer per partition that stays spilled. `refill` takes at most the
      // file's frame count, which is what the pass tests. One pass decides: a
      // reload takes at least one frame (spilled partitions hold none after
      // the drain) and leaves one fewer partition spilled, so the room never
      // grows, and a partition that did not fit on its turn never fits later.
      if (cfg.reloadSpilled)
        for (p <- parts.filter(spilled).sortBy(p => -buildFiles(p.id).bytes)
             if buildFiles(p.id).frames <= pool.available - (numSpilled - 1)) {
          val f  = buildFiles(p.id)
          val it = readBack(f).buffered
          refill(p, it, pool)
          require(!it.hasNext, s"reload of partition ${p.id} needs more than its file's ${f.frames} frames")
          f.delete(); buildFiles(p.id) = null
          stats.reloadedPartitions += 1
        }

      // Reserve one probe output buffer per spilled partition, which takes
      // its frame on its first probe record; under G-S the residents may have
      // grown into the whole pool, so destage until the buffers fit.
      while (pool.available < numSpilled) makeRoom(incoming = -1)

      // ---------------- Hash table over resident partitions ----------------
      val table = new HashTable(parts.filterNot(spilled).flatMap(_.frames), stats, emit)

      // ---------------- Probe phase ----------------
      // Resident-partition records are probed in batches, in probe order;
      // a spilled partition's go to its output buffer unless the filter shows
      // that no spilled build record has their key.
      while (probeIt.hasNext) {
        val r = probeIt.next()
        require(r.size <= cfg.frameSize, s"record of ${r.size} B exceeds frame size ${cfg.frameSize}")
        stats.probeRecordsProcessed += 1
        val pid = SplitFun.partition(r.key, seed, P)
        if (buildFiles(pid) == null) table.probe(r)
        else if (filter != null && filter.testing && !filter.mayMatch(r.key)) stats.probeFiltered += 1
        else require(buffer(parts(pid), r, probeFiles), "probe buffer reservation failed")
      }
      table.probePending()

      // Pair up the spilled files for the next rounds. Every file was created
      // by a write of at least one record, and only spilled partitions have
      // probe files; a spilled build partition whose probe side is empty
      // joins to nothing — drop it.
      val pairs = ArrayBuffer.empty[(SpillFile[T], SpillFile[T], Long)]
      for (pid <- 0 until P if buildFiles(pid) != null) {
        if (parts(pid).frames.nonEmpty) flush(parts(pid), probeFiles)
        if (probeFiles(pid) != null) pairs += ((buildFiles(pid), probeFiles(pid), roundBuild))
        else buildFiles(pid).delete()
      }
      stats.peakFrames = math.max(stats.peakFrames, pool.peak)
      pairs.toSeq
    }
  }
}
