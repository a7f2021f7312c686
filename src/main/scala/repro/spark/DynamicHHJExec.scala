package repro.spark

import java.nio.ByteBuffer
import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, Expression, JoinedRow, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.planning.ExtractEquiJoinKeys
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.plans.physical.{ClusteredDistribution, Distribution, Partitioning, PartitioningCollection}
import org.apache.spark.sql.execution.{BinaryExecNode, SparkPlan, SparkStrategy}
import org.apache.spark.unsafe.Platform

import repro.core.frames.JoinRec
import repro.core.hhj.{DynamicHHJ, HHJConfig}
import repro.core.spill.{DiskSpillStore, Serde}

/** Dynamic Hybrid Hash Join as a Catalyst physical operator.
  *
  * The extension-point layering promised in DESIGN.md: requiredChildDistribution
  * asks Spark to hash-co-partition both children on the join keys (Spark
  * inserts the exchanges), and `doExecute` runs one instance of the paper's
  * operator per partition over `UnsafeRow`s, spilling real bytes to disk.
  * Plug in via [[HHJStrategy]]: `HHJStrategy.install(spark, cfg)` — after
  * which plain `df.join(df2, ...)` / SQL inner equi-joins execute through
  * the Dynamic HHJ engine. [[HHJoin.join]] plans a single join into it.
  *
  * The probe side is `left`, the build side `right` (AsterixDB's FROM-clause
  * convention, paper §2.2). `requiredNumPartitions` overrides the
  * exchanges' partition count.
  */
case class DynamicHHJExec(
    leftKeys: Seq[Expression],
    rightKeys: Seq[Expression],
    cfg: HHJConfig,
    left: SparkPlan,
    right: SparkPlan,
    requiredNumPartitions: Option[Int] = None,
) extends BinaryExecNode {

  override def output: Seq[Attribute] = left.output ++ right.output

  /** An inner join's output is partitioned as each child's, as in Spark's
    * `ShuffledJoin`, so a later join on the same keys needs no new exchange.
    */
  override def outputPartitioning: Partitioning =
    PartitioningCollection(Seq(left.outputPartitioning, right.outputPartitioning))

  override def requiredChildDistribution: Seq[Distribution] =
    Seq(leftKeys, rightKeys).map(ClusteredDistribution(_, requiredNumPartitions = requiredNumPartitions))

  override protected def withNewChildrenInternal(newLeft: SparkPlan, newRight: SparkPlan): DynamicHHJExec =
    copy(left = newLeft, right = newRight)

  protected override def doExecute(): RDD[InternalRow] = {
    val lOutput = left.output
    val rOutput = right.output
    val lKeys   = leftKeys
    val rKeys   = rightKeys
    val conf    = cfg
    left.execute().zipPartitions(right.execute()) { (probeIt, buildIt) =>
      // One key projection per side. Each reuses its output row, so every
      // key row is consumed (null check, hash, or comparison) before the
      // same side's next projection.
      val probeKeyGen = UnsafeProjection.create(lKeys, lOutput)
      val buildKeyGen = UnsafeProjection.create(rKeys, rOutput)

      def hash(keyRow: UnsafeRow): Long = scala.util.hashing.byteswap64(keyRow.hashCode.toLong)

      def recs(it: Iterator[InternalRow], keyGen: UnsafeProjection, frameSize: Int): Iterator[JoinRec[UnsafeRow]] =
        it.flatMap { row =>
          val keys = keyGen(row)
          if (keys.anyNull) None // null keys never match an inner equi-join
          else {
            // Row-based children emit UnsafeRows, as Spark's own hashed
            // relations assume; copy, since a child may reuse its row.
            val u = row.asInstanceOf[UnsafeRow].copy()
            Some(JoinRec(hash(keys), math.min(u.getSizeInBytes, frameSize), u))
          }
        }

      val store  = new DiskSpillStore[UnsafeRow](Files.createTempDirectory("hhj-exec-spill").toFile, UnsafeRowSerde)
      val out    = ArrayBuffer.empty[InternalRow]
      val joined = new JoinedRow
      // Downstream operators (shuffle writers in particular) require
      // UnsafeRow output, so flatten each joined pair.
      val outProj = UnsafeProjection.create(lOutput ++ rOutput, lOutput ++ rOutput)
      try {
        val stats = DynamicHHJ.join(
          recs(buildIt, buildKeyGen, conf.frameSize),
          recs(probeIt, probeKeyGen, conf.frameSize),
          conf,
          store,
          (b: JoinRec[UnsafeRow], p: JoinRec[UnsafeRow]) => {
            // Hash-collision filter: exact key comparison.
            if (buildKeyGen(b.payload) == probeKeyGen(p.payload))
              out += outProj(joined(p.payload, b.payload)).copy()
          },
        )
        LastStats.set(stats)
      } finally store.close() // rethrows a failed spill write once the files and dir are gone
      out.iterator
    }
  }
}

/** Serde spilling `UnsafeRow`s byte-for-byte. The field count differs
  * between build and probe rows, so it is written per record, before the
  * row's bytes.
  */
private object UnsafeRowSerde extends Serde[UnsafeRow] {
  def bytes(r: UnsafeRow): Int = 4 + r.getSizeInBytes
  def write(r: UnsafeRow, out: ByteBuffer): Unit = {
    out.putInt(r.numFields())
    r.writeToMemory(out.array(), Platform.BYTE_ARRAY_OFFSET + out.arrayOffset() + out.position())
    out.position(out.position() + r.getSizeInBytes)
  }
  def read(in: ByteBuffer, bytes: Int): UnsafeRow = {
    val nFields = in.getInt()
    val row     = new Array[Byte](bytes - 4)
    in.get(row)
    val r = new UnsafeRow(nFields)
    r.pointTo(row, row.length)
    r
  }
}

/** Plans every inner equi-join without a residual condition into
  * [[DynamicHHJExec]]. Install with `HHJStrategy.install(spark, cfg)`.
  */
case class HHJStrategy(cfg: HHJConfig) extends SparkStrategy {
  def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case ExtractEquiJoinKeys(Inner, leftKeys, rightKeys, None, _, left, right, _) =>
      DynamicHHJExec(leftKeys, rightKeys, cfg, planLater(left), planLater(right)) :: Nil
    case _ => Nil
  }
}

object HHJStrategy {
  /** Install the strategy on a session (idempotent). */
  def install(spark: SparkSession, cfg: HHJConfig): Unit =
    updateStrategies(spark)(_.filterNot(_.isInstanceOf[HHJStrategy]) :+ HHJStrategy(cfg))

  def uninstall(spark: SparkSession): Unit =
    updateStrategies(spark)(_.filterNot(_.isInstanceOf[HHJStrategy]))

  /** Every change to a session's extra strategies is this read-modify-write
    * under the session's lock, so concurrent callers keep each other's updates.
    */
  private[spark] def updateStrategies(spark: SparkSession)(f: Seq[SparkStrategy] => Seq[SparkStrategy]): Unit =
    spark.synchronized { spark.experimental.extraStrategies = f(spark.experimental.extraStrategies) }
}
