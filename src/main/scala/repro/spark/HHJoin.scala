package repro.spark

import org.apache.spark.sql.{classic, DataFrame, Encoders, Row}
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeSet}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, UnaryNode}
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}

import repro.core.hhj.{HHJConfig, HHJStats}

/** Dynamic Hybrid Hash Join as an explicit DataFrame operation: `join`
  * returns an inner equi-join planned into [[DynamicHHJExec]] with the given
  * configuration, whichever strategies the session holds when it is planned.
  * Following AsterixDB's FROM-clause rule (§2.2: the first input is the
  * probe side), `left` probes and `right` builds.
  */
object HHJoin {

  /** Inner equi-join of `left` and `right`.
    *
    * @param leftKeys  join column names in `left` (probe side)
    * @param rightKeys join column names in `right` (build side), positionally
    *                  matched with `leftKeys`
    * @param cfg       the Dynamic HHJ configuration used in every task
    * @param numPartitions Spark-level partition count (0 = session default)
    */
  def join(
      left: DataFrame,
      right: DataFrame,
      leftKeys: Seq[String],
      rightKeys: Seq[String],
      cfg: HHJConfig = HHJConfig(memoryFrames = 64, frameSize = 32 * 1024),
      numPartitions: Int = 0,
  ): DataFrame = {
    require(leftKeys.nonEmpty && leftKeys.size == rightKeys.size, "key lists must match positionally")
    require(numPartitions >= 0, s"numPartitions must be 0 (the session default) or positive, not $numPartitions")
    val cond    = leftKeys.zip(rightKeys).map { case (l, r) => left(l) === right(r) }.reduce(_ && _)
    val joined  = left.join(right, cond)
    val session = joined.queryExecution.sparkSession
    // The strategy carries no config, so installing it once per session is
    // enough and `HHJStrategy.uninstall` leaves it in place.
    HHJStrategy.updateStrategies(session)(ss => if (ss.contains(PlanHHJoin)) ss else ss :+ PlanHHJoin)
    val plan = HHJoinNode(cfg, Some(numPartitions).filter(_ > 0), joined.queryExecution.analyzed)
    new classic.Dataset[Row](session, plan, Encoders.row(joined.schema))
  }
}

/** Marks a join that [[HHJoin.join]] asked to run with `cfg`. */
private case class HHJoinNode(cfg: HHJConfig, numPartitions: Option[Int], child: LogicalPlan) extends UnaryNode {
  override def output: Seq[Attribute] = child.output
  // Claiming every child column keeps ColumnPruning from putting a Project
  // between this node and the join it marks.
  override def references: AttributeSet = child.outputSet
  override protected def withNewChildInternal(newChild: LogicalPlan): HHJoinNode = copy(child = newChild)
}

/** Plans an [[HHJoinNode]] as [[HHJStrategy]] would with its config. When the
  * optimizer has rewritten the join away (an input known to be empty, say),
  * the rewritten plan runs through Spark's own operators.
  */
private object PlanHHJoin extends SparkStrategy {
  def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case HHJoinNode(cfg, n, join) =>
      HHJStrategy(cfg)(join) match {
        case Seq(exec: DynamicHHJExec) => exec.copy(requiredNumPartitions = n) :: Nil
        case _                         => planLater(join) :: Nil
      }
    case _ => Nil
  }
}

/** Test hook: aggregated spill statistics across the per-partition joins
  * executed in this JVM (meaningful in local mode, where all tasks share
  * the JVM). Reset before a query, inspect after it completes.
  */
object LastStats {
  import java.util.concurrent.atomic.AtomicLong
  val spillBytes   = new AtomicLong
  val rounds       = new AtomicLong
  val victimSpills = new AtomicLong
  val bnljRounds   = new AtomicLong

  private[spark] def set(s: HHJStats): Unit = {
    spillBytes.addAndGet(s.totalSpillBytes)
    rounds.addAndGet(s.rounds.toLong)
    victimSpills.addAndGet(s.victimSpills)
    bnljRounds.addAndGet(s.bnljRounds.toLong)
    ()
  }

  def reset(): Unit = { spillBytes.set(0); rounds.set(0); victimSpills.set(0); bnljRounds.set(0) }
}
