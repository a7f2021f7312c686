package repro.core

import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Studies
import repro.core.frames.JoinRec
import repro.core.growth.GrowthPolicy
import repro.core.hhj.{DynamicHHJ, HHJConfig, HHJStats, PartitionRule}
import repro.core.insertion.InsertionPolicy
import repro.core.spill.{DiskSpillStore, SpillFile, SpillStore}
import repro.core.victim.{BestMatch, VictimPolicy}

/** Differential property suite: `DynamicHHJ.join` against
  * `TestData.naiveJoin` over random configurations, spilling to a
  * `DiskSpillStore` through a store that keeps its own ledger of every
  * file, write and read for the engine's `IOStats` to agree with. The seed
  * is fixed, so every run checks the same cases; a failure prints the case
  * shrunk to a smaller one that still fails.
  */
class DynamicHHJPropertySpec extends AnyFunSuite {
  import DynamicHHJPropertySpec._

  test("DynamicHHJ equals the naive join, and its spill ledger balances, over random configurations") {
    val seen = new Coverage
    val prop = Prop.forAll(genCase)(c => check(c, seen))
    val params = Test.Parameters.default
      .withMinSuccessfulTests(Cases)
      .withInitialSeed(20221L)
      .withWorkers(1)
    val result = Test.check(params, prop)
    assert(result.passed, "\n" + Pretty.pretty(result, Pretty.Params(2)))
    info(s"$seen")
    assert(seen.reloads > 0 && seen.bnlj > 0 && seen.reversals > 0 && seen.filtered > 0 && seen.recursions > 0 &&
      seen.blocks > 0 && seen.splitInMemory > 0, s"generator missed a path: $seen")
  }
}

object DynamicHHJPropertySpec {
  val Cases = 1000

  /** The 13 victim policies of §7 plus Best-Match, and the six §5 insertion
    * policies.
    */
  val Victims: Seq[() => VictimPolicy]       = VictimPolicy.all13() :+ (() => BestMatch)
  val Insertions: Seq[() => InsertionPolicy] = Studies.standardInsertionPolicies()
  private val RandomInsertion                = Insertions.indexWhere(_().name.startsWith("Random"))

  /** The key distributions, by `Case.data`, and the share of the hot key in
    * each.
    */
  private val DataNames = Seq("uniform", "skewed", "single-hot-key")
  private val HotShare  = Seq(0.0, 0.3, 1.0)
  private val Uniform   = 0
  private val ProbeIdBase = 1 << 20
  /** Bounds the expected output of a case, so hot keys stay cheap. */
  private val PairBudget = 40000.0

  /** One join: a configuration built from primitives, so that every field
    * shrinks on its own.
    */
  final case class Case(
      victim: Int,
      insertion: Int,
      gs: Boolean,
      roleReversal: Boolean,
      inMemoryHashJoin: Boolean,
      reloadSpilled: Boolean,
      probeFilter: Boolean,
      fixedAllRounds: Boolean,
      frames: Int,
      partitions: Int,
      frameSize: Int,
      minSize: Int,
      maxSize: Int,
      data: Int,
      keySpace: Int,
      buildN: Int,
      probeN: Int,
      seed: Long,
  ) {
    def config: HHJConfig = HHJConfig(
      memoryFrames = frames,
      frameSize = frameSize,
      partitionRule =
        if (fixedAllRounds) PartitionRule.FixedAllRounds(partitions)
        else PartitionRule.Dynamic(firstRound = partitions, laterLowerBound = 2),
      insertion = Insertions(insertion),
      victim = Victims(victim),
      growth = if (gs) GrowthPolicy.GS else GrowthPolicy.NGNS,
      roleReversal = roleReversal,
      inMemoryHashJoin = inMemoryHashJoin,
      reloadSpilled = reloadSpilled,
      probeFilter = probeFilter,
      seed = seed,
    )

    private def side(n: Int, seed: Long, idBase: Int): Vector[JoinRec[Integer]] =
      if (data == Uniform) TestData.records(n, keySpace, minSize, maxSize, seed, idBase)
      else TestData.skewed(n, keySpace, HotShare(data), minSize, maxSize, seed, idBase)

    def build: Vector[JoinRec[Integer]] = side(buildN, seed, 0)
    def probe: Vector[JoinRec[Integer]] = side(probeN, seed + 1, ProbeIdBase)

    override def toString: String =
      s"Case(victim=${Victims(victim)().name}, insertion=${Insertions(insertion)().name}, " +
        s"growth=${config.growth.name}, roleReversal=$roleReversal, inMemoryHashJoin=$inMemoryHashJoin, " +
        s"reloadSpilled=$reloadSpilled, probeFilter=$probeFilter, rule=${config.partitionRule}, frames=$frames, frameSize=$frameSize, " +
        s"sizes=$minSize..$maxSize, data=${DataNames(data)}, keySpace=$keySpace, build=$buildN, probe=$probeN, seed=$seed)"
  }

  val genCase: Gen[Case] = for {
    victim     <- Gen.choose(0, Victims.size - 1)
    // Random(10%) packs frames worst, so its spill files hold the most
    // frames per byte and stress the §8.5 reload's frame bound; it is drawn
    // four times as often as each other policy.
    insertion  <- Gen.frequency(Insertions.indices.map(i => (if (i == RandomInsertion) 4 else 1) -> Gen.const(i)): _*)
    gs         <- Gen.oneOf(false, true)
    rr         <- Gen.oneOf(false, true)
    inMemory   <- Gen.oneOf(false, true)
    reload     <- Gen.frequency(1 -> false, 2 -> true)
    filter     <- Gen.oneOf(false, true)
    fixed      <- Gen.oneOf(false, true)
    frames     <- Gen.frequency(1 -> Gen.choose(3, 10), 1 -> Gen.choose(3, 64))
    partitions <- Gen.choose(2, frames - 1)
    frameSize  <- Gen.oneOf(64, 128, 256, 512, 1024)
    maxSize <- Gen.frequency(
      2 -> Gen.choose(1, frameSize / 8),
      2 -> Gen.choose(1, frameSize),
      1 -> Gen.choose(frameSize / 2, frameSize),
      1 -> Gen.const(frameSize),
    )
    minSize <- Gen.frequency(1 -> Gen.choose(1, maxSize), 1 -> Gen.const(maxSize))
    data    <- Gen.choose(0, DataNames.size - 1)
    // Build size as a multiple of the join memory, so most cases spill.
    dataToMemory <- Gen.choose(0.2, 6.0)
    buildN = math.min(if (data == Uniform) 2500 else 600,
      math.ceil(dataToMemory * frames * frameSize * 2 / (minSize + maxSize)).toInt)
    keySpace <- Gen.choose(math.max(2, buildN / 8), 4 * buildN + 2)
    matchesPerProbe = HotShare(data) * HotShare(data) * buildN + buildN.toDouble / keySpace
    probeN <- Gen.choose(0, math.min(2 * buildN, (PairBudget / matchesPerProbe).toInt))
    seed   <- Gen.choose(0L, 1L << 20)
  } yield Case(victim, insertion, gs, rr, inMemory, reload, filter, fixed, frames, partitions, frameSize, minSize, maxSize,
    data, keySpace, buildN, probeN, seed)

  /** `v`'s halving steps down to `lo`, nearest to `lo` first. */
  private def towards(v: Int, lo: Int): LazyList[Int] =
    LazyList.iterate(v - lo)(_ / 2).takeWhile(_ > 0).map(v - _)

  /** Shrinks one field at a time and keeps every configuration valid. */
  implicit val shrinkCase: Shrink[Case] = Shrink.withLazyList { c =>
    def off(on: Boolean, set: Case => Case) = if (on) LazyList(set(c)) else LazyList.empty
    towards(c.buildN, 0).map(n => c.copy(buildN = n)) #:::
      towards(c.probeN, 0).map(n => c.copy(probeN = n)) #:::
      towards(c.victim, 0).map(v => c.copy(victim = v)) #:::
      towards(c.insertion, 0).map(i => c.copy(insertion = i)) #:::
      off(c.gs, _.copy(gs = false)) #:::
      off(c.roleReversal, _.copy(roleReversal = false)) #:::
      off(c.inMemoryHashJoin, _.copy(inMemoryHashJoin = false)) #:::
      off(c.reloadSpilled, _.copy(reloadSpilled = false)) #:::
      off(c.probeFilter, _.copy(probeFilter = false)) #:::
      off(c.fixedAllRounds, _.copy(fixedAllRounds = false)) #:::
      towards(c.partitions, 2).map(p => c.copy(partitions = p)) #:::
      towards(c.frames, c.partitions + 1).map(f => c.copy(frames = f)) #:::
      towards(c.data, Uniform).map(d => c.copy(data = d)) #:::
      towards(c.keySpace, 2).map(k => c.copy(keySpace = k)) #:::
      towards(c.maxSize, c.minSize).map(s => c.copy(maxSize = s)) #:::
      towards(c.minSize, 1).map(s => c.copy(minSize = s))
  }

  /** How many passing cases took each rare path. A file read two or more
    * times is a block join of more than one block; with no §8.1 round, it
    * is a §8.3 round that split.
    */
  final class Coverage {
    var cases, reloads, bnlj, reversals, filtered, recursions, blocks, splitInMemory = 0

    def note(stats: HHJStats, store: LedgerStore): Unit = {
      cases += 1
      if (stats.reloadedPartitions > 0) reloads += 1
      if (stats.bnljRounds > 0) bnlj += 1
      if (stats.roleReversals > 0) reversals += 1
      if (stats.probeFiltered > 0) filtered += 1
      if (stats.rounds > 1) recursions += 1
      if (store.files.exists(_.readCount >= 2)) {
        blocks += 1
        if (stats.inMemoryRounds > 0 && stats.bnljRounds == 0) splitInMemory += 1
      }
    }

    override def toString: String =
      s"$cases cases: $reloads reload a partition, $bnlj bail out to BNLJ, $reversals reverse roles, " +
        s"$filtered filter probe records, $recursions partition a spilled pair again, " +
        s"$blocks run a block join of two or more blocks, $splitInMemory of them a §8.3 round that split"
  }

  def check(c: Case, seen: Coverage): Prop = {
    val build = c.build
    val probe = c.probe
    val dir   = Files.createTempDirectory("hhj-property-spill").toFile
    val store = new LedgerStore(new DiskSpillStore(dir, TestData.intSerde))
    val out   = Array.newBuilder[Long]
    val stats =
      try DynamicHHJ.join(build.iterator, probe.iterator, c.config, store,
        (b: JoinRec[Integer], p: JoinRec[Integer]) => out += (b.payload.longValue << 32 | p.payload.longValue))
      finally store.close()
    val got = out.result()
    val want = TestData.naiveJoin(build, probe).iterator.map { case (b, p) => b.toLong << 32 | p }.toArray
    java.util.Arrays.sort(got); java.util.Arrays.sort(want)
    val io = stats.io
    val ok = Prop.all(
      java.util.Arrays.equals(got, want) :| s"emitted ${got.length} pairs, naive join has ${want.length}",
      (stats.outputRecords == got.length) :| s"outputRecords=${stats.outputRecords}, emits=${got.length}",
      (stats.buildRecordsProcessed >= build.size) :| s"buildRecordsProcessed=${stats.buildRecordsProcessed}",
      (stats.probeRecordsProcessed >= probe.size) :| s"probeRecordsProcessed=${stats.probeRecordsProcessed}",
      (c.probeFilter || stats.probeFiltered == 0) :| s"probeFiltered=${stats.probeFiltered} with the filter off",
      // Every round, block joins included, takes its frames from a pool of
      // at most M.
      (stats.peakFrames <= c.frames) :| s"peakFrames=${stats.peakFrames} > memoryFrames=${c.frames}",
      // Not `==`: a probe-buffer reservation can spill a victim after the
      // round-1 sample, and its bytes count both as resident and as spilled.
      (stats.round1ResidentBytes + stats.round1BuildSpillBytes >= build.iterator.map(_.size.toLong).sum) :|
        s"round 1 resident ${stats.round1ResidentBytes} + spilled ${stats.round1BuildSpillBytes} B < build",
      store.files.forall(_.deleted) :| s"${store.files.count(!_.deleted)} of ${store.files.size} files not deleted",
      (io.bytesWritten == store.appendedBytes) :| s"io.bytesWritten=${io.bytesWritten}, appended ${store.appendedBytes}",
      (io.framesWritten == store.appendedFrames) :|
        s"io.framesWritten=${io.framesWritten}, appended ${store.appendedFrames}",
      (io.bytesRead == store.readBytes) :| s"io.bytesRead=${io.bytesRead}, readAll ${store.readBytes}",
      (io.readFrames == store.readFrames) :| s"io.readFrames=${io.readFrames}, readAll ${store.readFrames}",
      (io.readOps == store.reads) :| s"io.readOps=${io.readOps}, readAll calls ${store.reads}",
      store.misuse.isEmpty :| s"store misuse: ${store.misuse.mkString("; ")}",
      (store.reloadReads == stats.reloadedPartitions) :|
        s"${stats.reloadedPartitions} reloads counted, ${store.reloadReads} reload reads",
      (!dir.exists) :| s"spill dir $dir left after close",
    )
    seen.note(stats, store)
    ok
  }

  /** A spill store whose files record every write, read and delete, and
    * pass them on to `inner`'s. A §8.5 reload is the one place where the
    * engine deletes a file right after reading it: the two files of a
    * spilled pair are read one after the other and deleted only after both.
    */
  final class LedgerStore(inner: SpillStore[Integer]) extends SpillStore[Integer] {
    val files         = ArrayBuffer.empty[LedgerFile]
    val misuse        = ArrayBuffer.empty[String]
    var appendedBytes, appendedFrames, reads, readBytes, readFrames, reloadReads = 0L
    private var lastRead: LedgerFile = null

    def newFile(tag: String): SpillFile[Integer] = {
      lastRead = null
      val f = new LedgerFile(tag, inner.newFile(tag))
      files += f
      f
    }
    def close(): Unit = inner.close()

    final class LedgerFile(tag: String, f: SpillFile[Integer]) extends SpillFile[Integer] {
      var deleted   = false
      var readCount = 0

      def append(recs: Iterator[JoinRec[Integer]], nFrames: Long): Unit = {
        if (deleted) misuse += s"append to deleted $tag"
        lastRead = null
        val rs = recs.toVector
        appendedBytes += rs.iterator.map(_.size.toLong).sum
        appendedFrames += nFrames
        f.append(rs.iterator, nFrames)
      }
      def readAll(): Iterator[JoinRec[Integer]] = {
        if (deleted) misuse += s"read of deleted $tag"
        reads += 1; readBytes += f.bytes; readFrames += f.frames; readCount += 1
        lastRead = this
        f.readAll()
      }
      def bytes: Long   = f.bytes
      def records: Long = f.records
      def frames: Long  = f.frames
      def delete(): Unit = {
        if (deleted) misuse += s"second delete of $tag"
        if (lastRead eq this) reloadReads += 1
        lastRead = null
        deleted = true
        f.delete()
      }
    }
  }
}
