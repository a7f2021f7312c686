package repro.core

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

import repro.core.frames.{JoinRec, PartitionState, SplitFun}
import repro.core.growth.GrowthPolicy
import repro.core.hhj.{DynamicHHJ, HHJConfig, HHJStats, PartitionRule}
import repro.core.insertion._
import repro.core.spill.{IOStats, SpillFile, SpillStore}
import repro.core.victim._

class DynamicHHJSpec extends AnyFunSuite {

  /** Every `emit` call as (build id, probe id), in call order. */
  private def emitted(
      build: Seq[JoinRec[Integer]],
      probe: Seq[JoinRec[Integer]],
      cfg: HHJConfig,
      store: SpillStore[Integer] = TestData.spillStore(),
  ): (Vector[(Int, Int)], HHJStats) = {
    val out = Vector.newBuilder[(Int, Int)]
    val stats =
      try DynamicHHJ.join(
        build.iterator,
        probe.iterator,
        cfg,
        store,
        (b: JoinRec[Integer], p: JoinRec[Integer]) => out += ((b.payload.intValue, p.payload.intValue)),
      )
      finally store.close()
    (out.result(), stats)
  }

  private def runJoin(
      build: Seq[JoinRec[Integer]],
      probe: Seq[JoinRec[Integer]],
      cfg: HHJConfig,
      store: SpillStore[Integer] = TestData.spillStore(),
  ): (Set[(Int, Int)], HHJStats) = {
    val (pairs, stats) = emitted(build, probe, cfg, store)
    (pairs.toSet, stats)
  }

  private def baseCfg(memoryFrames: Int = 24, frameSize: Int = 1024, partitions: Int = 4) =
    HHJConfig(
      memoryFrames = memoryFrames,
      frameSize = frameSize,
      partitionRule = PartitionRule.Dynamic(firstRound = partitions, laterLowerBound = 2),
    )

  // ---------------- Correctness: result equivalence ----------------

  test("join with ample memory produces exactly the naive result") {
    val b = TestData.records(500, keySpace = 200, 20, 80, seed = 1)
    val p = TestData.records(800, keySpace = 200, 20, 80, seed = 2, idBase = 100000)
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 256))
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.io.bytesWritten == 0, "nothing should spill with ample memory")
    assert(stats.rounds == 1)
  }

  test("join under heavy memory pressure still produces the naive result") {
    val b = TestData.records(2000, keySpace = 500, 20, 80, seed = 3)
    val p = TestData.records(3000, keySpace = 500, 20, 80, seed = 4, idBase = 100000)
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 12, partitions = 4))
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.io.bytesWritten > 0, "this configuration must spill")
  }

  test("multi-round recursion (memory far smaller than input) is correct") {
    val b = TestData.records(6000, keySpace = 1500, 30, 60, seed = 5)
    val p = TestData.records(6000, keySpace = 1500, 30, 60, seed = 6, idBase = 100000)
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 8, partitions = 3))
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.maxDepthReached >= 1, "expected recursive rounds")
  }

  test("empty build input yields an empty result") {
    val p = TestData.records(100, 50, 20, 40, seed = 7)
    val (got, _) = runJoin(Vector.empty, p, baseCfg())
    assert(got.isEmpty)
  }

  test("empty probe input yields an empty result") {
    val b = TestData.records(100, 50, 20, 40, seed = 8)
    val (got, _) = runJoin(b, Vector.empty, baseCfg())
    assert(got.isEmpty)
  }

  test("disjoint key ranges produce no matches but still terminate under pressure") {
    val b = TestData.records(1000, 300, 30, 60, seed = 9).map(r => r.copy(key = r.key))
    val p = TestData.records(1000, 300, 30, 60, seed = 10, idBase = 5000).map(r => r.copy(key = r.key + 1000))
    val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 10))
    assert(got.isEmpty)
  }

  test("duplicate-heavy keys (cross-product per key) are correct") {
    val b = TestData.records(300, keySpace = 10, 20, 40, seed = 11)
    val p = TestData.records(300, keySpace = 10, 20, 40, seed = 12, idBase = 9000)
    val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 64))
    assert(got == TestData.naiveJoin(b, p))
    assert(got.size > 300 * 5, "cross products expected")
  }

  test("variable record sizes near the frame size are correct under pressure") {
    val b = TestData.records(400, 150, 100, 1000, seed = 13)
    val p = TestData.records(400, 150, 100, 1000, seed = 14, idBase = 7000)
    val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 10, frameSize = 1024))
    assert(got == TestData.naiveJoin(b, p))
  }

  test("a record exactly the frame size is accepted; larger is rejected") {
    val cfg = baseCfg(frameSize = 256)
    val ok  = Vector(JoinRec[Integer](1L, 256, Int.box(1)))
    val (got, _) = runJoin(ok, Vector(JoinRec[Integer](1L, 256, Int.box(2))), cfg)
    assert(got == Set((1, 2)))
    intercept[IllegalArgumentException] {
      runJoin(Vector(JoinRec[Integer](1L, 257, Int.box(1))), Vector.empty, cfg)
    }
  }

  // ---------------- Policy matrix ----------------

  private val insertions: Seq[(String, () => InsertionPolicy)] = Seq(
    "Append(8)"      -> (() => Append(8)),
    "First-Fit"      -> (() => FirstFit),
    "First-Fit(10%)" -> (() => FirstFitPct(0.10)),
    "Best-Fit"       -> (() => BestFit),
    "Next-Fit"       -> (() => new NextFit),
    "Random(10%)"    -> (() => new RandomPct(0.10, 21)),
  )

  for ((name, ins) <- insertions)
    test(s"insertion policy $name preserves join correctness under spilling") {
      val b = TestData.records(1500, 400, 30, 200, seed = 15)
      val p = TestData.records(1500, 400, 30, 200, seed = 16, idBase = 40000)
      val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 12).copy(insertion = ins))
      assert(got == TestData.naiveJoin(b, p))
    }

  // Every policy under NG-NS; the self-victim policies also under G-S, where
  // the victim keeps growing as a spilled partition.
  private val victimCases =
    VictimPolicy.all13(seed = 31).map(_ -> GrowthPolicy.NGNS) ++
      Seq(LargestSizeSelfVictim, SmallestSizeSelfVictim).map(v => (() => v) -> GrowthPolicy.GS)

  for ((mk, g) <- victimCases) {
    val name = mk().name + (if (g == GrowthPolicy.GS) " under G-S" else "")
    test(s"victim policy $name preserves join correctness under spilling") {
      val b = TestData.records(1500, 400, 30, 200, seed = 17)
      val p = TestData.records(1500, 400, 30, 200, seed = 18, idBase = 40000)
      val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 12).copy(victim = mk, growth = g))
      assert(got == TestData.naiveJoin(b, p))
    }
  }

  for (g <- Seq(GrowthPolicy.NGNS, GrowthPolicy.GS))
    test(s"growth policy ${g.name} preserves join correctness under spilling") {
      val b = TestData.records(2000, 600, 30, 120, seed = 19)
      val p = TestData.records(2500, 600, 30, 120, seed = 20, idBase = 50000)
      val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 12).copy(growth = g))
      assert(got == TestData.naiveJoin(b, p))
    }

  test("skewed build input joins correctly under every growth policy") {
    val b = TestData.skewed(2000, 300, hotShare = 0.6, 30, 120, seed = 21)
    val p = TestData.records(1000, 300, 30, 120, seed = 22, idBase = 60000)
    for (g <- Seq(GrowthPolicy.NGNS, GrowthPolicy.GS)) {
      val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 10).copy(growth = g))
      assert(got == TestData.naiveJoin(b, p), g.name)
    }
  }

  // ---------------- Growth-policy I/O pattern invariants (§6) ----------------

  test("NG-NS never performs multi-frame writes after a partition's first spill beyond drain") {
    val b = TestData.records(4000, 1200, 30, 60, seed = 23)
    val p = TestData.records(4000, 1200, 30, 60, seed = 24, idBase = 80000)
    val (_, ngns) = runJoin(b, p, baseCfg(memoryFrames = 12).copy(growth = GrowthPolicy.NGNS))
    val (_, gs)   = runJoin(b, p, baseCfg(memoryFrames = 12).copy(growth = GrowthPolicy.GS))
    assert(ngns.io.randWriteOps > gs.io.randWriteOps, "NG-NS must do more random writes")
    assert(gs.io.seqWriteFrames > ngns.io.seqWriteFrames, "G-S must write more frames sequentially")
  }

  test("NG-NS and G-S write similar total volume (analytical claim of §6.1)") {
    val b = TestData.records(4000, 1200, 30, 60, seed = 23)
    val p = TestData.records(4000, 1200, 30, 60, seed = 24, idBase = 80000)
    val (r1, ngns) = runJoin(b, p, baseCfg(memoryFrames = 12).copy(growth = GrowthPolicy.NGNS))
    val (r2, gs)   = runJoin(b, p, baseCfg(memoryFrames = 12).copy(growth = GrowthPolicy.GS))
    assert(r1 == r2)
    val ratio = ngns.io.bytesWritten.toDouble / gs.io.bytesWritten
    assert(ratio > 0.7 && ratio < 1.4, s"volumes should be comparable, ratio=$ratio")
  }

  // ---------------- §8 optimizations ----------------

  test("§8.1 bail-out: a single hot key triggers BNLJ instead of endless recursion") {
    val hotB = Vector.tabulate(3000)(i => JoinRec[Integer](42L, 50, Int.box(i)))
    val hotP = Vector.tabulate(1000)(i => JoinRec[Integer](42L, 50, Int.box(100000 + i)))
    val (got, stats) = runJoin(hotB, hotP, baseCfg(memoryFrames = 8, partitions = 3))
    assert(got.size == 3000 * 1000)
    assert(stats.bnljRounds > 0, "bail-out to BNLJ expected")
    assert(stats.maxDepthReached < 6, "recursion should stop early")
  }

  test("§8.1 bail-out: a block is M-1 frames, so one-record frames take ceil(30/7) = 5 probe scans") {
    // 600 B records in 1 KB frames: one record per frame, so a block of
    // M - 1 = 7 frames holds 7 records, where 7 KB of declared bytes would
    // hold 12.
    val hotB  = Vector.tabulate(30)(i => JoinRec[Integer](42L, 600, Int.box(i)))
    val hotP  = Vector.tabulate(30)(i => JoinRec[Integer](42L, 600, Int.box(100000 + i)))
    val store = new DynamicHHJPropertySpec.LedgerStore(TestData.spillStore())
    val (got, stats) = runJoin(hotB, hotP, baseCfg(memoryFrames = 8, partitions = 3).copy(roleReversal = false), store)
    assert(got == TestData.naiveJoin(hotB, hotP))
    assert(stats.rounds == 1 && stats.bnljRounds == 1 && stats.inMemoryRounds == 0, counters(stats))
    assert(store.files.map(_.readCount).max == 5, "the probe file is scanned once per block")
    assert(stats.peakFrames <= 8)
  }

  test("§8.2 role reversal: build side larger than probe side gets swapped in later rounds") {
    val big   = TestData.records(4000, 900, 30, 60, seed = 25)
    val small = TestData.records(800, 900, 30, 60, seed = 26, idBase = 90000)
    // Present the BIG side as build; reversal should kick in for spilled pairs.
    val (got, stats) = runJoin(big, small, baseCfg(memoryFrames = 10))
    assert(got == TestData.naiveJoin(big, small))
    assert(stats.roleReversals > 0)
  }

  test("§8.2 disabled: no reversals happen") {
    val big   = TestData.records(4000, 900, 30, 60, seed = 25)
    val small = TestData.records(800, 900, 30, 60, seed = 26, idBase = 90000)
    val (got, stats) = runJoin(big, small, baseCfg(memoryFrames = 10).copy(roleReversal = false))
    assert(got == TestData.naiveJoin(big, small))
    assert(stats.roleReversals == 0)
  }

  test("§8.3 in-memory hash join resolves small spilled pairs without partitioning") {
    val b = TestData.records(3000, 800, 30, 60, seed = 27)
    val p = TestData.records(3000, 800, 30, 60, seed = 28, idBase = 90000)
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 16))
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.inMemoryRounds > 0, "spilled partitions should fit in memory next round")
  }

  test("§8.3: a build file that passes the byte test but needs more than M-1 frames joins in blocks inside M frames") {
    // Nine 600 B records: 5,400 B x MemFudge = 7,560 B fits 8 KB of join
    // memory, but one record per 1 KB frame needs 9 frames, and a block
    // has M - 1 = 7.
    val b     = Vector.tabulate(9)(i => JoinRec[Integer](7L, 600, Int.box(i)))
    val p     = Vector.tabulate(12)(i => JoinRec[Integer](7L + i % 2, 600, Int.box(100000 + i)))
    val store = new DynamicHHJPropertySpec.LedgerStore(TestData.spillStore())
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 8, partitions = 3).copy(roleReversal = false), store)
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.inMemoryRounds == 1 && stats.bnljRounds == 0, counters(stats))
    assert(store.files.map(_.readCount).max >= 2, "expected a §8.3 join of two or more blocks")
    assert(stats.peakFrames <= 8, s"peakFrames=${stats.peakFrames}")
  }

  test("§8.3 disabled: later rounds run the partitioned path") {
    val b = TestData.records(3000, 800, 30, 60, seed = 27)
    val p = TestData.records(3000, 800, 30, 60, seed = 28, idBase = 90000)
    val (got, stats) = runJoin(b, p, baseCfg(memoryFrames = 16).copy(inMemoryHashJoin = false))
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.inMemoryRounds == 0)
    assert(stats.rounds > 1)
  }

  test("§8.5 reload: a spilled partition fitting in leftover memory is brought back") {
    // Crafted stream: partition A (30 frames) spills first when C grows;
    // later C itself (34 frames) spills, leaving ~34 free frames at the end
    // of the build — room to reload A but not C.
    import repro.core.frames.SplitFun
    val seed = 42L // cfg.seed + depth 0
    def keyFor(target: Int): Long =
      Iterator.iterate(1L)(_ + 1).find(k => SplitFun.partition(k, seed, 4) == target).get
    val (ka, kb, kc) = (keyFor(0), keyFor(1), keyFor(2))
    var id = 0
    def recs(key: Long, n: Int): Vector[JoinRec[Integer]] =
      Vector.fill(n) { id += 1; JoinRec[Integer](key, 1000, Int.box(id)) }
    val build = recs(ka, 30) ++ recs(kb, 25) ++ recs(kc, 40)
    val probe = recs(ka, 10) ++ recs(kb, 10) ++ recs(kc, 10)
    val cfg = HHJConfig(
      memoryFrames = 60, frameSize = 1024,
      partitionRule = PartitionRule.Dynamic(firstRound = 4, laterLowerBound = 2),
      reloadSpilled = true,
    )
    val (got, stats) = runJoin(build, probe, cfg)
    assert(got == TestData.naiveJoin(build, probe))
    assert(stats.round1SpilledPartitions >= 2, "A and C should spill during the build")
    assert(stats.reloadedPartitions == 1, "exactly partition A should be reloaded")
  }

  test("§8.5 reload preserves correctness on random workloads") {
    val b = TestData.records(1200, 400, 30, 60, seed = 29)
    val p = TestData.records(1200, 400, 30, 60, seed = 30, idBase = 95000)
    val cfgOn  = baseCfg(memoryFrames = 40, partitions = 8).copy(reloadSpilled = true)
    val cfgOff = baseCfg(memoryFrames = 40, partitions = 8).copy(reloadSpilled = false)
    val (gotOn, _)  = runJoin(b, p, cfgOn)
    val (gotOff, _) = runJoin(b, p, cfgOff)
    assert(gotOn == gotOff && gotOn == TestData.naiveJoin(b, p))
  }

  test("§8.5 reload: a partition Random(10%) packed loosely refills in file order, each build file written once") {
    val b = TestData.records(300, keySpace = 800, 20, 80, seed = 2)
    val p = TestData.records(600, keySpace = 800, 20, 80, seed = 3, idBase = 100000)
    val cfg = HHJConfig(
      memoryFrames = 9, frameSize = 1024,
      partitionRule = PartitionRule.Dynamic(firstRound = 5, laterLowerBound = 2),
      insertion = () => new RandomPct(0.10, 7),
      reloadSpilled = true,
    )
    val tags  = ArrayBuffer.empty[String]
    val inner = TestData.spillStore()
    val store = new SpillStore[Integer] {
      def newFile(tag: String): SpillFile[Integer] = { tags += tag; inner.newFile(tag) }
      def close(): Unit                            = inner.close()
    }
    val (got, stats) = runJoin(b, p, cfg, store)
    assert(got == TestData.naiveJoin(b, p))
    // A reload deletes its file and never writes the partition back, so
    // round 1 creates each build file once.
    val round1Build = tags.filter(t => t.startsWith("d0-") && t.endsWith("-build"))
    assert(round1Build.size == round1Build.distinct.size, s"a round-1 build file was written twice: files $tags")
    assert(stats.reloadedPartitions >= 1)
  }

  test("§8.4 Best-Match victim policy is correct when sizes are known") {
    val b = TestData.records(3000, 700, 30, 90, seed = 31)
    val p = TestData.records(3000, 700, 30, 90, seed = 32, idBase = 97000)
    val (got, _) = runJoin(b, p, baseCfg(memoryFrames = 10).copy(victim = () => BestMatch))
    assert(got == TestData.naiveJoin(b, p))
  }

  // ---------------- Probe filter ----------------

  /** 10 frames of 4 KB: 40 KB of join memory, so a filter of 40 KB / 8 =
    * 5,120 bits, rounded up to 8,192.
    */
  private def filterCfg = baseCfg(memoryFrames = 10, frameSize = 4096)

  test("probe filter: probe keys disjoint from the build keys are dropped, not spilled") {
    val b = TestData.records(2000, keySpace = 300, 30, 60, seed = 61)
    val p = TestData.records(3000, keySpace = 300, 30, 60, seed = 62, idBase = 50000).map(r => r.copy(key = r.key + 1000))
    val (got, stats) = runJoin(b, p, filterCfg)
    val (_, off)     = runJoin(b, p, filterCfg.copy(probeFilter = false))
    assert(got.isEmpty)
    assert(stats.round1SpilledPartitions > 0 && off.probeSpillBytes > 0)
    assert(stats.probeFiltered > 0 && stats.probeRecordsProcessed >= p.size)
    // One hash per key: a probe key passes with the share of bits set,
    // about 1 - e^(-n/m) for n distinct spilled keys and m bits. Round 1
    // tests every probe record at most once, and a later round only
    // re-tests round 1's passes, so the probe spill is at most twice that.
    val bits      = 8192.0
    val falsePass = 1 - math.exp(-b.map(_.key).distinct.size / bits)
    val probeB    = p.map(_.size.toLong).sum
    assert(stats.probeSpillBytes <= 2 * falsePass * probeB,
      s"probe spill ${stats.probeSpillBytes} B of $probeB B, false-pass share ${falsePass}")
  }

  test("probe filter: a round whose first 4,096 tests nearly all pass stops testing and equals the join without it") {
    val b     = TestData.records(4000, keySpace = 300, 30, 60, seed = 63)
    val hits  = Vector.tabulate(6000)(i => b(i % b.size).copy(payload = Int.box(50000 + i)))
    // Disjoint keys after the sample: a filter still testing would drop them.
    val tail  = TestData.records(500, keySpace = 300, 30, 60, seed = 64, idBase = 70000).map(r => r.copy(key = r.key + 1000))
    // 8 partitions: every one spills in round 1, and each spilled pair is
    // small enough for §8.3, so round 1 is the only round that tests.
    val cfg         = baseCfg(memoryFrames = 10, frameSize = 4096, partitions = 8)
    val (got, on)   = runJoin(b, hits ++ tail, cfg)
    val (want, off) = runJoin(b, hits ++ tail, cfg.copy(probeFilter = false))
    assert(on.round1SpilledPartitions == on.round1Partitions, "every round-1 probe record must be tested")
    assert(got == want && got == TestData.naiveJoin(b, hits ++ tail))
    assert(on.probeFiltered == 0)
    assert(counters(on) == counters(off) && on.peakFrames == off.peakFrames)
    assert(on.rounds == 1)
    val (_, tailOnly) = runJoin(b, tail, cfg)
    assert(tailOnly.probeFiltered > 0, "the tail is dropped when it is tested")
  }

  test("probe filter: G-S, §8.5 reload and role reversal together equal the naive join") {
    val b   = TestData.records(3000, keySpace = 400, 20, 200, seed = 51)
    val p   = TestData.records(1500, keySpace = 800, 20, 200, seed = 61, idBase = 50000)
    val cfg = baseCfg(memoryFrames = 16).copy(insertion = () => FirstFit, growth = GrowthPolicy.GS, reloadSpilled = true)
    val (got, stats) = runJoin(b, p, cfg)
    assert(got == TestData.naiveJoin(b, p))
    assert(stats.probeFiltered > 0 && stats.reloadedPartitions > 0 && stats.roleReversals > 0, counters(stats))
  }

  // ---------------- Statistics plausibility ----------------

  test("statistics account every processed record") {
    val b = TestData.records(1000, 300, 30, 60, seed = 33)
    val p = TestData.records(1100, 300, 30, 60, seed = 34, idBase = 98000)
    val (_, stats) = runJoin(b, p, baseCfg(memoryFrames = 256))
    assert(stats.buildRecordsProcessed == 1000)
    assert(stats.probeRecordsProcessed == 1100)
    assert(stats.round1Partitions == 4)
  }

  test("round-1 metrics: resident bytes plus spilled bytes cover the build input") {
    val b = TestData.records(3000, 900, 30, 60, seed = 35)
    val p = TestData.records(3000, 900, 30, 60, seed = 36, idBase = 99000)
    val (_, stats) = runJoin(b, p, baseCfg(memoryFrames = 12))
    val buildBytes = b.map(_.size.toLong).sum
    assert(stats.round1ResidentBytes + stats.round1BuildSpillBytes >= buildBytes)
    assert(stats.round1ResidentBytes < buildBytes)
  }

  test("round-1 average frame fullness lies in (0, 1]") {
    val b = TestData.records(500, 200, 30, 60, seed = 37)
    val p = TestData.records(500, 200, 30, 60, seed = 38, idBase = 99500)
    val (_, stats) = runJoin(b, p, baseCfg(memoryFrames = 64))
    assert(stats.round1AvgFullness > 0 && stats.round1AvgFullness <= 1.0)
  }

  test("no spilling means zero bytes written and one round") {
    val b = TestData.records(200, 100, 30, 60, seed = 39)
    val p = TestData.records(200, 100, 30, 60, seed = 40, idBase = 99700)
    val (_, stats) = runJoin(b, p, baseCfg(memoryFrames = 128))
    assert(stats.io.bytesWritten == 0 && stats.rounds == 1 && stats.victimSpills == 0)
  }

  test("determinism: identical runs yield identical stats and results") {
    val b = TestData.records(2000, 500, 30, 120, seed = 41)
    val p = TestData.records(2000, 500, 30, 120, seed = 42, idBase = 99800)
    val cfg = baseCfg(memoryFrames = 12)
    val (r1, s1) = runJoin(b, p, cfg)
    val (r2, s2) = runJoin(b, p, cfg)
    assert(r1 == r2)
    assert(s1.io.bytesWritten == s2.io.bytesWritten)
    assert(s1.victimSpills == s2.victimSpills)
    assert(s1.rounds == s2.rounds)
  }

  test("the emit callback sees every pair exactly once (no duplicates)") {
    val b = TestData.records(800, 200, 30, 60, seed = 43)
    val p = TestData.records(800, 200, 30, 60, seed = 44, idBase = 99900)
    val (pairs, _) = emitted(b, p, baseCfg(memoryFrames = 10))
    assert(pairs.size == pairs.distinct.size, "duplicate emissions detected")
    assert(pairs.toSet == TestData.naiveJoin(b, p))
  }

  // ---------------- Hash table edge cases ----------------

  test("hash table edge keys: every probe record meets its key's build records in insertion order") {
    val hot = 0x7777L
    val keys = Seq(0L, -1L, Long.MinValue, Long.MaxValue) ++
      // Enough keys, equal in their low or high 32 bits or neither, that
      // some of each kind share a bucket.
      (1 to 1000).map(i => (i.toLong << 32) | 0x5A5A5A5AL) ++
      (1 to 1000).map(i => (0x12345678L << 32) | i) ++
      (0 until 10000).map(i => 1000003L * i + 7)
    // Equal record sizes: every frame but a partition's newest is full, so
    // records stay in arrival order in frames and spill files at every
    // round, and a key's build insertion order is its input order.
    def side(keys: Seq[Long], seed: Long, idBase: Int): Vector[JoinRec[Integer]] =
      new scala.util.Random(seed).shuffle(keys).zipWithIndex.map { case (k, i) => JoinRec[Integer](k, 40, Int.box(idBase + i)) }.toVector
    val b = side(keys ++ keys ++ Seq.fill(500)(hot), seed = 61, idBase = 0)
    val p = side(keys ++ Seq.fill(500)(hot), seed = 62, idBase = 100000)
    val buildIds = b.groupBy(_.key).map { case (k, rs) => k -> rs.map(_.payload.intValue) }

    val resident = baseCfg(memoryFrames = 2048)
    val inMemory = baseCfg(memoryFrames = 256, partitions = 8)
    val bnlj     = baseCfg(memoryFrames = 8, partitions = 3)
    for ((name, cfg) <- Seq("resident round" -> resident, "§8.3" -> inMemory, "§8.1" -> bnlj)) {
      val store          = new DynamicHHJPropertySpec.LedgerStore(TestData.spillStore())
      val (pairs, stats) = emitted(b, p, cfg, store)
      name match {
        case "resident round" => assert(stats.rounds == 1 && stats.io.bytesWritten == 0, name)
        case "§8.3"           => assert(stats.inMemoryRounds > 0, name)
        case _ =>
          assert(stats.round1SpilledPartitions == stats.round1Partitions, s"$name: round 1 should spill everything")
          assert(
            stats.bnljRounds > 0 && store.files.map(_.readCount).max >= 2,
            s"$name: expected a BNLJ of two or more blocks")
      }
      assert(pairs.toSet == TestData.naiveJoin(b, p), name)
      val byProbe = pairs.groupBy(_._2)
      assert(pairs.size == p.iterator.map(r => buildIds(r.key).size).sum, name)
      p.foreach { r =>
        val got = byProbe.getOrElse(r.payload.intValue, Vector.empty).map(_._1)
        assert(got == buildIds(r.key), s"$name: probe key ${r.key}")
      }
    }
  }

  test("batched probe boundaries: 0, 1, 31, 32, 33 and 65 resident probe records keep the emit order") {
    val cfg = HHJConfig(
      memoryFrames = 16,
      frameSize = 1024,
      partitionRule = PartitionRule.Dynamic(firstRound = 2, laterLowerBound = 2),
      roleReversal = false,
    )
    def part(k: Long) = SplitFun.partition(k, cfg.seed, 2)
    val (k0, k1)      = (0L until 2000L).partition(part(_) == 0)
    val hot           = k0.head
    // 40 B records: every frame but a partition's newest is full, so frames
    // and spill files keep input order. Partition 0 fills 7 frames: the hot
    // key more often than a probe batch holds, then 45 keys 3 times each.
    // Partition 1 fills 11, so it is the larger when memory runs out; it
    // spills and is joined in memory (§8.3) in round 2.
    def rec(k: Long, id: Int) = JoinRec[Integer](k, 40, Int.box(id))
    val b0       = Seq.fill(40)(hot) ++ (0 until 135).map(i => k0(1 + i % 45))
    val b1       = (0 until 275).map(i => k1(i % 100))
    val build    = (b0 ++ b1).zipWithIndex.map { case (k, i) => rec(k, i) }.toVector
    val buildIds = build.groupBy(_.key).map { case (k, rs) => k -> rs.map(_.payload.intValue) }
    // Resident and spilled-partition probe records alternate, so batches
    // straddle the flushes of partition 1's 25-record probe buffer. Every
    // fourth resident record has the hot key; k0(46..59) has no build
    // records. Fewer than 100 spilled probe records all have build
    // records, so the filter drops none and the §8.3 round probes each
    // count at the same batch edges as the resident round.
    val edges = Seq(0, 1, 31, 32, 33, 65)
    for (resident <- edges; spilledProbes <- edges.tail :+ 80) {
      val keys = (0 until math.max(resident, spilledProbes)).flatMap { i =>
        (if (i < resident) Seq(if (i % 4 == 0) hot else k0(1 + i * 7 % 59)) else Nil) ++
          (if (i < spilledProbes) Seq(k1(i % 120)) else Nil)
      }
      val probe          = keys.zipWithIndex.map { case (k, i) => rec(k, 100000 + i) }.toVector
      val (pairs, stats) = emitted(build, probe, cfg)
      val name           = s"$resident resident and $spilledProbes spilled probe records"
      assert(stats.round1SpilledPartitions == 1 && stats.round1ResidentBytes == 40L * b0.size, name)
      assert(stats.inMemoryRounds == 1 && stats.probeSpillBytes == 40L * spilledProbes, name)
      // Round 1 emits the resident records' matches in probe order; round 2
      // then joins partition 1's, also in probe order.
      val (inTable, spilled) = probe.partition(r => part(r.key) == 0)
      val expected = (inTable ++ spilled).flatMap(r => buildIds.getOrElse(r.key, Vector.empty).map(_ -> r.payload.intValue))
      assert(pairs == expected, name)
    }
  }

  // ---------------- Golden counters ----------------

  /** Every `HHJStats` counter but `probeFiltered` and `peakFrames`,
    * grouped; fullness in its exact hex form.
    */
  private def counters(s: HHJStats): String = {
    def io(i: IOStats) =
      Seq(i.seqWriteOps, i.seqWriteFrames, i.randWriteOps, i.randWriteFrames, i.bytesWritten, i.readOps, i.readFrames, i.bytesRead)
        .mkString("/")
    Seq(
      s"io=${io(s.io)}",
      s"buildIo=${io(s.buildIo)}",
      s"search=${s.search.framesSearched}/${s.search.rngCalls}/${s.search.insertions}",
      s"rounds=${s.rounds}/${s.inMemoryRounds}/${s.bnljRounds}/${s.maxDepthReached}",
      s"recs=${s.buildRecordsProcessed}/${s.probeRecordsProcessed}/${s.outputRecords}",
      s"spill=${s.buildSpillBytes}/${s.probeSpillBytes}/${s.victimSpills}/${s.roleReversals}/${s.reloadedPartitions}",
      s"r1=${s.round1Partitions}/${s.round1SpilledPartitions}/${s.round1ResidentBytes}/${s.round1BuildSpillBytes}/" +
        s"${java.lang.Double.toHexString(s.round1AvgFullness)}/${s.round1Frames}",
    ).mkString(" ")
  }

  // The engine is deterministic, so an engine rewrite that keeps behaviour
  // keeps every counter. These values pin the insertion, growth and reload
  // paths on a multi-round spilling join (G-S and Random(10%) NG-NS reload).
  // The probe filter is off in the golden tests: they pin the paper's
  // algorithm, which has none.
  private val goldenCounters = Seq(
      "Append(8) NG-NS reload=false: io=16/133/565/565/659770/32/698/659770 buildIo=16/133/204/204/320270/0/0/0 search=2928/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.7acp-2/4",
      "Append(8) NG-NS reload=true: io=16/133/565/565/659770/32/698/659770 buildIo=16/133/204/204/320270/0/0/0 search=2928/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.7acp-2/4",
      "Append(8) G-S reload=false: io=71/357/387/387/691513/34/744/691513 buildIo=71/357/7/7/333996/0/0/0 search=5095/0/3939 rounds=12/6/0/3 recs=4502/4815/5579 spill=333996/357517/17/5/0 r1=4/4/0/161046/0x1.a9cec4ec4ec4fp-1/13",
      "Append(8) G-S reload=true: io=71/357/374/374/679884/33/731/679884 buildIo=71/357/7/7/333996/0/0/0 search=5095/0/3939 rounds=12/5/0/3 recs=4398/4714/5579 spill=333996/345888/17/4/1 r1=4/4/0/161046/0x1.a9cec4ec4ec4fp-1/13",
      "First-Fit NG-NS reload=false: io=16/134/565/565/659770/32/699/659770 buildIo=16/134/204/204/320270/0/0/0 search=3003/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.7acp-2/4",
      "First-Fit NG-NS reload=true: io=16/134/565/565/659770/32/699/659770 buildIo=16/134/204/204/320270/0/0/0 search=3003/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.7acp-2/4",
      "First-Fit G-S reload=false: io=72/359/386/386/691513/34/745/691513 buildIo=72/359/6/6/333996/0/0/0 search=5159/0/3939 rounds=12/6/0/3 recs=4502/4815/5579 spill=333996/357517/17/5/0 r1=4/4/0/161046/0x1.a9cec4ec4ec4fp-1/13",
      "First-Fit G-S reload=true: io=72/359/373/373/679884/33/732/679884 buildIo=72/359/6/6/333996/0/0/0 search=5159/0/3939 rounds=12/5/0/3 recs=4398/4714/5579 spill=333996/345888/17/4/1 r1=4/4/0/161046/0x1.a9cec4ec4ec4fp-1/13",
      "First-Fit(10%) NG-NS reload=false: io=16/137/570/570/659770/32/707/659770 buildIo=16/137/209/209/320270/0/0/0 search=2008/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.73p-2/4",
      "First-Fit(10%) NG-NS reload=true: io=16/137/570/570/659770/32/707/659770 buildIo=16/137/209/209/320270/0/0/0 search=2008/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.73p-2/4",
      "First-Fit(10%) G-S reload=false: io=73/367/386/386/691513/34/753/691513 buildIo=73/367/6/6/333996/0/0/0 search=3883/0/3939 rounds=12/6/0/3 recs=4502/4815/5579 spill=333996/357517/17/5/0 r1=4/4/0/161046/0x1.b58p-1/15",
      "First-Fit(10%) G-S reload=true: io=73/367/373/373/679884/33/740/679884 buildIo=73/367/6/6/333996/0/0/0 search=3883/0/3939 rounds=12/5/0/3 recs=4398/4714/5579 spill=333996/345888/17/4/1 r1=4/4/0/161046/0x1.b58p-1/15",
      "Best-Fit NG-NS reload=false: io=16/134/563/563/659770/32/697/659770 buildIo=16/134/202/202/320270/0/0/0 search=10243/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.da8p-2/4",
      "Best-Fit NG-NS reload=true: io=16/134/563/563/659770/32/697/659770 buildIo=16/134/202/202/320270/0/0/0 search=10243/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.da8p-2/4",
      "Best-Fit G-S reload=false: io=69/352/387/387/691513/34/739/691513 buildIo=69/352/7/7/333996/0/0/0 search=15100/0/3939 rounds=12/6/0/3 recs=4502/4815/5579 spill=333996/357517/17/5/0 r1=4/4/0/161046/0x1.d59d89d89d89ep-1/13",
      "Best-Fit G-S reload=true: io=69/352/374/374/679884/33/726/679884 buildIo=69/352/7/7/333996/0/0/0 search=15100/0/3939 rounds=12/5/0/3 recs=4398/4714/5579 spill=333996/345888/17/4/1 r1=4/4/0/161046/0x1.d59d89d89d89ep-1/13",
      "Next-Fit NG-NS reload=false: io=16/136/570/570/659770/32/706/659770 buildIo=16/136/208/208/320270/0/0/0 search=2326/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.73p-2/4",
      "Next-Fit NG-NS reload=true: io=16/136/570/570/659770/32/706/659770 buildIo=16/136/208/208/320270/0/0/0 search=2326/0/3814 rounds=11/6/0/3 recs=4377/4657/5579 spill=320270/339500/16/5/0 r1=4/4/0/161046/0x1.73p-2/4",
      "Next-Fit G-S reload=false: io=72/366/386/386/691513/34/752/691513 buildIo=72/366/5/5/333996/0/0/0 search=4328/0/3939 rounds=12/6/0/3 recs=4502/4815/5579 spill=333996/357517/17/5/0 r1=4/4/0/161046/0x1.946db6db6db6ep-1/14",
      "Next-Fit G-S reload=true: io=72/366/373/373/679884/33/739/679884 buildIo=72/366/5/5/333996/0/0/0 search=4328/0/3939 rounds=12/5/0/3 recs=4398/4714/5579 spill=333996/345888/17/4/1 r1=4/4/0/161046/0x1.946db6db6db6ep-1/14",
      "Random(10%) NG-NS reload=false: io=23/205/725/725/797273/46/930/797273 buildIo=23/205/284/284/384374/0/0/0 search=1689/1689/4050 rounds=13/11/0/3 recs=4962/5316/5579 spill=384374/412899/23/7/0 r1=4/4/0/161046/0x1.da8p-2/4",
      "Random(10%) NG-NS reload=true: io=23/205/712/712/785646/45/917/785646 buildIo=23/205/284/284/384374/0/0/0 search=1689/1689/4050 rounds=13/10/0/3 recs=4852/5211/5579 spill=384374/401272/23/6/1 r1=4/4/0/161046/0x1.da8p-2/4",
      "Random(10%) G-S reload=false: io=132/739/448/448/797273/46/1187/797273 buildIo=132/739/5/5/384374/0/0/0 search=4007/4007/4050 rounds=13/11/0/3 recs=4962/5316/5579 spill=384374/412899/23/7/0 r1=4/4/0/161046/0x1.f4aaaaaaaaaabp-2/15",
      "Random(10%) G-S reload=true: io=132/739/448/448/797273/46/1187/797273 buildIo=132/739/5/5/384374/0/0/0 search=4007/4007/4050 rounds=13/11/0/3 recs=4962/5316/5579 spill=384374/412899/23/7/0 r1=4/4/0/161046/0x1.f4aaaaaaaaaabp-2/15",
  )

  test("golden counters: every HHJStats counter of a spilling join is unchanged") {
    val b = TestData.records(1500, keySpace = 400, 20, 200, seed = 51)
    val p = TestData.records(1500, keySpace = 400, 20, 200, seed = 52, idBase = 50000)
    val got =
      for ((name, ins) <- insertions; g <- Seq(GrowthPolicy.NGNS, GrowthPolicy.GS); reload <- Seq(false, true))
        yield {
          val cfg = baseCfg(memoryFrames = 16).copy(insertion = ins, growth = g, reloadSpilled = reload, probeFilter = false)
          s"$name ${g.name} reload=$reload: ${counters(runJoin(b, p, cfg)._2)}"
        }
    assert(got.size == goldenCounters.size)
    got.zip(goldenCounters).foreach { case (g, want) => assert(g == want) }
  }

  // Engine counters cannot see the order of `emit` calls; this pins it, as
  // a count and an order-sensitive digest of the (build id, probe id)
  // sequence, for joins that reach the resident table, §8.2, §8.3, §8.1
  // and a §8.5 reload. Varied record sizes place records out of arrival
  // order in frames, so frame order is pinned too.
  private def emitDigest(pairs: Seq[(Int, Int)]): String = {
    var h = 0L
    pairs.foreach { case (b, p) => h = (h * 31 + b) * 31 + p }
    f"${pairs.size}/$h%016x"
  }

  private val goldenEmitOrder = Seq(
    "resident: 5579/9924fdb34590c9e0",
    "§8.2+§8.3: 3603/72e4a76085be658d",
    "§8.1: 361823/1a64943153506e6f",
    "§8.5: 5579/e510b4e875e8b7a0",
  )

  test("golden emit order: the emit sequence of resident, §8.1, §8.2, §8.3 and §8.5 joins is unchanged") {
    val dupB  = TestData.records(1500, keySpace = 400, 20, 200, seed = 51)
    val dupP  = TestData.records(1500, keySpace = 400, 20, 200, seed = 52, idBase = 50000)
    val big   = TestData.records(4000, 900, 30, 60, seed = 25)
    val small = TestData.records(800, 900, 30, 60, seed = 26, idBase = 90000)
    val hotB  = TestData.skewed(2000, 300, hotShare = 0.6, 30, 120, seed = 21)
    val hotP  = TestData.skewed(1000, 300, hotShare = 0.3, 30, 120, seed = 22, idBase = 60000)
    val paper = baseCfg().copy(probeFilter = false)
    val cases = Seq(
      ("resident", dupB, dupP, paper.copy(memoryFrames = 512, insertion = () => FirstFit), (s: HHJStats) => s.rounds == 1),
      ("§8.2+§8.3", big, small, paper.copy(memoryFrames = 16), (s: HHJStats) => s.roleReversals > 0 && s.inMemoryRounds > 0),
      ("§8.1", hotB, hotP, paper.copy(memoryFrames = 10), (s: HHJStats) => s.bnljRounds > 0),
      ("§8.5", dupB, dupP, paper.copy(memoryFrames = 16, insertion = () => FirstFit, growth = GrowthPolicy.GS, reloadSpilled = true),
        (s: HHJStats) => s.reloadedPartitions > 0),
    )
    val got = cases.map { case (name, b, p, cfg, reaches) =>
      val (pairs, stats) = emitted(b, p, cfg)
      assert(reaches(stats), s"$name does not reach its path")
      s"$name: ${emitDigest(pairs)}"
    }
    assert(got == goldenEmitOrder)
  }

  // ---------------- Golden victim decisions ----------------

  /** Runs `inner` and digests every call: each candidate's id, in-memory
    * bytes and records, the context, and the choice.
    */
  private final class RecordingVictim(inner: VictimPolicy) extends VictimPolicy {
    val name      = inner.name
    private var n = 0
    private var h = 0L
    private def mix(x: Long): Unit = h = h * 31 + x
    def choose[T](cs: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = {
      mix(cs.size)
      cs.foreach { c => mix(c.id); mix(c.bytesInMemory); mix(c.recordsInMemory) }
      mix(ctx.numPartitions); mix(ctx.numSpilled); mix(ctx.incomingPartition); mix(ctx.remainingBuildBytes.getOrElse(-1L))
      val id = inner.choose(cs, ctx)
      mix(id); n += 1
      id
    }
    def digest: String = f"$n/$h%016x"
  }

  // No counter sees what a victim policy is shown; this pins it for every
  // policy, both growth policies and reload on a round-1-only and a
  // multi-round input, so the candidates' sizes and the context (Best-Match's
  // remaining build bytes included) cannot drift unseen.
  private val goldenVictimDecisions = Seq(
    "dup Largest-Size NG-NS reload=false: 16/60058bc8b64abb4f",
    "dup Largest-Size NG-NS reload=true: 16/60058bc8b64abb4f",
    "dup Largest-Size G-S reload=false: 17/e6830b257c9a4fed",
    "dup Largest-Size G-S reload=true: 17/e6830b257c9a4fed",
    "dup Largest-Records NG-NS reload=false: 16/7924ab5df4260974",
    "dup Largest-Records NG-NS reload=true: 16/7924ab5df4260974",
    "dup Largest-Records G-S reload=false: 16/f821d84b6d635be1",
    "dup Largest-Records G-S reload=true: 16/f821d84b6d635be1",
    "dup Largest-Size-Self-Victim NG-NS reload=false: 16/ba84aeeab49f8bc5",
    "dup Largest-Size-Self-Victim NG-NS reload=true: 16/ba84aeeab49f8bc5",
    "dup Largest-Size-Self-Victim G-S reload=false: 16/0297f7fcf723b57f",
    "dup Largest-Size-Self-Victim G-S reload=true: 16/0297f7fcf723b57f",
    "dup Median-Size NG-NS reload=false: 19/58d3133d8b97c03b",
    "dup Median-Size NG-NS reload=true: 19/58d3133d8b97c03b",
    "dup Median-Size G-S reload=false: 19/5a5513c4231916ef",
    "dup Median-Size G-S reload=true: 19/5a5513c4231916ef",
    "dup Median-Records NG-NS reload=false: 19/daad830ea59fec3b",
    "dup Median-Records NG-NS reload=true: 19/daad830ea59fec3b",
    "dup Median-Records G-S reload=false: 19/fcc0bb0dd0f21edc",
    "dup Median-Records G-S reload=true: 19/fcc0bb0dd0f21edc",
    "dup Smallest-Size NG-NS reload=false: 19/9d9bd56954fbb7c0",
    "dup Smallest-Size NG-NS reload=true: 19/9d9bd56954fbb7c0",
    "dup Smallest-Size G-S reload=false: 19/11bf4d85a31d374f",
    "dup Smallest-Size G-S reload=true: 19/11bf4d85a31d374f",
    "dup Smallest-Records NG-NS reload=false: 19/1a5cebd9b4e007a9",
    "dup Smallest-Records NG-NS reload=true: 19/1a5cebd9b4e007a9",
    "dup Smallest-Records G-S reload=false: 19/e790022e72f9fa7f",
    "dup Smallest-Records G-S reload=true: 19/e790022e72f9fa7f",
    "dup Smallest-Size-Self-Victim NG-NS reload=false: 16/ba84aeeab49f8bc5",
    "dup Smallest-Size-Self-Victim NG-NS reload=true: 16/ba84aeeab49f8bc5",
    "dup Smallest-Size-Self-Victim G-S reload=false: 16/ce77ee3c46df6e1d",
    "dup Smallest-Size-Self-Victim G-S reload=true: 16/ce77ee3c46df6e1d",
    "dup Random NG-NS reload=false: 17/1bc905df197c6c28",
    "dup Random NG-NS reload=true: 17/1bc905df197c6c28",
    "dup Random G-S reload=false: 17/da103821ede4cb5f",
    "dup Random G-S reload=true: 17/da103821ede4cb5f",
    "dup Half-Empty NG-NS reload=false: 19/9d9bd56954fbb7c0",
    "dup Half-Empty NG-NS reload=true: 19/9d9bd56954fbb7c0",
    "dup Half-Empty G-S reload=false: 19/11bf4d85a31d374f",
    "dup Half-Empty G-S reload=true: 19/11bf4d85a31d374f",
    "dup Least-Fragmentation NG-NS reload=false: 16/4694e5cefb27fe26",
    "dup Least-Fragmentation NG-NS reload=true: 16/4694e5cefb27fe26",
    "dup Least-Fragmentation G-S reload=false: 16/5a8825208d67e07e",
    "dup Least-Fragmentation G-S reload=true: 16/5a8825208d67e07e",
    "dup Low-High NG-NS reload=false: 16/8540a4912af060f0",
    "dup Low-High NG-NS reload=true: 16/8540a4912af060f0",
    "dup Low-High G-S reload=false: 17/7559319696cb56b4",
    "dup Low-High G-S reload=true: 17/7559319696cb56b4",
    "dup Record-Size-Ratio NG-NS reload=false: 16/94c5d92f81ab534b",
    "dup Record-Size-Ratio NG-NS reload=true: 16/94c5d92f81ab534b",
    "dup Record-Size-Ratio G-S reload=false: 17/0f94c786e8764d81",
    "dup Record-Size-Ratio G-S reload=true: 17/0f94c786e8764d81",
    "dup Best-Match NG-NS reload=false: 16/00ef4d98392bafef",
    "dup Best-Match NG-NS reload=true: 16/00ef4d98392bafef",
    "dup Best-Match G-S reload=false: 17/876cccf4ff7b448d",
    "dup Best-Match G-S reload=true: 17/876cccf4ff7b448d",
    "skew Largest-Size NG-NS reload=false: 10/902393f0ffa240d5",
    "skew Largest-Size NG-NS reload=true: 10/902393f0ffa240d5",
    "skew Largest-Size G-S reload=false: 10/39c2bd84c8a16e0e",
    "skew Largest-Size G-S reload=true: 10/39c2bd84c8a16e0e",
    "skew Largest-Records NG-NS reload=false: 10/902393f0ffa240d5",
    "skew Largest-Records NG-NS reload=true: 10/902393f0ffa240d5",
    "skew Largest-Records G-S reload=false: 10/39c2bd84c8a16e0e",
    "skew Largest-Records G-S reload=true: 10/39c2bd84c8a16e0e",
    "skew Largest-Size-Self-Victim NG-NS reload=false: 10/235c7a4cf1828af5",
    "skew Largest-Size-Self-Victim NG-NS reload=true: 10/235c7a4cf1828af5",
    "skew Largest-Size-Self-Victim G-S reload=false: 10/f076cae8618a0e93",
    "skew Largest-Size-Self-Victim G-S reload=true: 10/f076cae8618a0e93",
    "skew Median-Size NG-NS reload=false: 14/4f007b21ae9711e8",
    "skew Median-Size NG-NS reload=true: 14/4f007b21ae9711e8",
    "skew Median-Size G-S reload=false: 14/2460a145a5807ceb",
    "skew Median-Size G-S reload=true: 14/2460a145a5807ceb",
    "skew Median-Records NG-NS reload=false: 14/4f007b21ae9711e8",
    "skew Median-Records NG-NS reload=true: 14/4f007b21ae9711e8",
    "skew Median-Records G-S reload=false: 14/2460a145a5807ceb",
    "skew Median-Records G-S reload=true: 14/2460a145a5807ceb",
    "skew Smallest-Size NG-NS reload=false: 14/48c8eb568064643f",
    "skew Smallest-Size NG-NS reload=true: 14/48c8eb568064643f",
    "skew Smallest-Size G-S reload=false: 14/1e29117a774dcf42",
    "skew Smallest-Size G-S reload=true: 14/1e29117a774dcf42",
    "skew Smallest-Records NG-NS reload=false: 14/48c8eb568064643f",
    "skew Smallest-Records NG-NS reload=true: 14/48c8eb568064643f",
    "skew Smallest-Records G-S reload=false: 14/1e29117a774dcf42",
    "skew Smallest-Records G-S reload=true: 14/1e29117a774dcf42",
    "skew Smallest-Size-Self-Victim NG-NS reload=false: 10/235c7a4cf1828af5",
    "skew Smallest-Size-Self-Victim NG-NS reload=true: 10/235c7a4cf1828af5",
    "skew Smallest-Size-Self-Victim G-S reload=false: 12/e5846db749aa9e94",
    "skew Smallest-Size-Self-Victim G-S reload=true: 12/e5846db749aa9e94",
    "skew Random NG-NS reload=false: 12/1ae0b90bc060815a",
    "skew Random NG-NS reload=true: 12/1ae0b90bc060815a",
    "skew Random G-S reload=false: 12/627d5b9b5216f7dd",
    "skew Random G-S reload=true: 12/627d5b9b5216f7dd",
    "skew Half-Empty NG-NS reload=false: 14/48c8eb568064643f",
    "skew Half-Empty NG-NS reload=true: 14/48c8eb568064643f",
    "skew Half-Empty G-S reload=false: 14/1e29117a774dcf42",
    "skew Half-Empty G-S reload=true: 14/1e29117a774dcf42",
    "skew Least-Fragmentation NG-NS reload=false: 10/235c7a4cf1828af5",
    "skew Least-Fragmentation NG-NS reload=true: 10/235c7a4cf1828af5",
    "skew Least-Fragmentation G-S reload=false: 10/f076cae8618a0e93",
    "skew Least-Fragmentation G-S reload=true: 10/f076cae8618a0e93",
    "skew Low-High NG-NS reload=false: 11/4abd1530cb7dcb79",
    "skew Low-High NG-NS reload=true: 11/4abd1530cb7dcb79",
    "skew Low-High G-S reload=false: 13/05eadcf3bd294da8",
    "skew Low-High G-S reload=true: 13/05eadcf3bd294da8",
    "skew Record-Size-Ratio NG-NS reload=false: 10/517a6d8493793ee1",
    "skew Record-Size-Ratio NG-NS reload=true: 10/517a6d8493793ee1",
    "skew Record-Size-Ratio G-S reload=false: 10/42c0f5872fc945a3",
    "skew Record-Size-Ratio G-S reload=true: 10/42c0f5872fc945a3",
    "skew Best-Match NG-NS reload=false: 10/ba63f7dc023af2f7",
    "skew Best-Match NG-NS reload=true: 10/ba63f7dc023af2f7",
    "skew Best-Match G-S reload=false: 10/ad975ebfbc0b278f",
    "skew Best-Match G-S reload=true: 10/ad975ebfbc0b278f",
  )

  test("golden victim decisions: every policy sees the same candidates and context and chooses the same") {
    val inputs = Seq(
      ("dup", TestData.records(1500, keySpace = 400, 20, 200, seed = 51),
        TestData.records(1500, keySpace = 400, 20, 200, seed = 52, idBase = 50000), 16),
      ("skew", TestData.skewed(2000, 300, hotShare = 0.6, 30, 120, seed = 21),
        TestData.skewed(1000, 300, hotShare = 0.3, 30, 120, seed = 22, idBase = 60000), 10),
    )
    var reloading = 0
    val got =
      for ((input, b, p, frames) <- inputs; mk <- VictimPolicy.all13(seed = 31) :+ (() => BestMatch);
           g <- Seq(GrowthPolicy.NGNS, GrowthPolicy.GS); reload <- Seq(false, true))
        yield {
          val v   = new RecordingVictim(mk())
          val cfg = baseCfg(memoryFrames = frames)
            .copy(insertion = () => FirstFit, victim = () => v, growth = g, reloadSpilled = reload, probeFilter = false)
          val (_, stats) = emitted(b, p, cfg)
          if (stats.reloadedPartitions > 0) reloading += 1
          s"$input ${v.name} ${g.name} reload=$reload: ${v.digest}"
        }
    assert(reloading == 30, "the reload path must be reached")
    assert(got.size == goldenVictimDecisions.size)
    got.zip(goldenVictimDecisions).foreach { case (g, want) => assert(g == want) }
  }
}
