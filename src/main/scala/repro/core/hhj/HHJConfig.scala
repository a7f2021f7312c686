package repro.core.hhj

import repro.core.growth.GrowthPolicy
import repro.core.insertion.{Append, InsertionPolicy}
import repro.core.victim.{LargestSize, VictimPolicy}

/** How many partitions each round of the join uses (§4). */
sealed trait PartitionRule {
  /** Partition count for round 1, where input sizes are unknown. */
  def firstRound: Int
}

object PartitionRule {

  /** The same fixed partition count in every round — the Figure-3 setting. */
  final case class FixedAllRounds(p: Int) extends PartitionRule {
    require(p >= 2)
    def firstRound: Int = p
  }

  /** Fixed count for round 1 (sizes unknown); later rounds use Equation 2
    * on the now-known spilled-partition sizes, clamped below by
    * `laterLowerBound`. The paper's recommendation is
    * `Dynamic(20, laterLowerBound = 20)` (the default config); Figure 4 uses
    * `Dynamic(p, laterLowerBound = 2)`.
    */
  final case class Dynamic(firstRound: Int = 20, laterLowerBound: Int = 20) extends PartitionRule {
    require(firstRound >= 2 && laterLowerBound >= 2)
  }

  /** Partition count for a later round; `Dynamic` applies Equation 2 with
    * Table 1's fudge factor (1.3).
    */
  def forRound(rule: PartitionRule, buildBytes: Long, memoryFrames: Int, frameSize: Int): Int =
    rule match {
      case FixedAllRounds(p) => math.min(p, memoryFrames - 1)
      case Dynamic(_, lb) =>
        val buildFrames = math.max(1L, math.ceil(buildBytes.toDouble / frameSize).toLong)
        Shapiro.roundPartitions(buildFrames, memoryFrames.toLong, lowerBound = lb)
    }
}

/** Full configuration of the Dynamic HHJ operator.
  *
  * @param memoryFrames  join memory budget in frames (|M| of the paper)
  * @param frameSize     frame capacity in bytes (AsterixDB default 32 KB)
  * @param partitionRule number-of-partitions policy (§4)
  * @param insertion     partition insertion policy factory (§5; fresh
  *                      instance per round — some policies are stateful)
  * @param victim        victim selection policy factory (§7)
  * @param growth        spilled-partition growth policy (§6)
  * @param roleReversal  §8.2: later rounds build on the smaller input
  * @param inMemoryHashJoin §8.3: later rounds whose build fits in memory
  *                      skip partitioning entirely
  * @param reloadSpilled §8.5: after the build phase, reload spilled build
  *                      partitions that fit in leftover memory
  *
  * The later rounds' fixed thresholds are not configurable: Equation 2 uses
  * Table 1's fudge factor 1.3 ([[Shapiro.roundPartitions]]), and §8.3's
  * fits-in-memory allowance, §8.1's bail-out and the depth cap are
  * constants in [[DynamicHHJ]].
  */
final case class HHJConfig(
    memoryFrames: Int,
    frameSize: Int = 32 * 1024,
    partitionRule: PartitionRule = PartitionRule.Dynamic(),
    insertion: () => InsertionPolicy = () => Append(8),
    victim: () => VictimPolicy = () => LargestSize,
    growth: GrowthPolicy = GrowthPolicy.NGNS,
    roleReversal: Boolean = true,
    inMemoryHashJoin: Boolean = true,
    reloadSpilled: Boolean = false,
    seed: Long = 42,
) {
  require(memoryFrames >= 3, "need at least 3 frames of join memory")
  require(memoryFrames > partitionRule.firstRound,
    s"memoryFrames=$memoryFrames must exceed first-round partitions=${partitionRule.firstRound} " +
      "(each partition needs an output frame)")
}
