package repro.spark

import java.io.{DataInputStream, DataOutputStream}
import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, Expression, JoinedRow, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.planning.ExtractEquiJoinKeys
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.plans.physical.{ClusteredDistribution, Distribution}
import org.apache.spark.sql.execution.{BinaryExecNode, SparkPlan, SparkStrategy}

import repro.core.frames.JoinRec
import repro.core.hhj.{DynamicHHJ, HHJConfig}
import repro.core.spill.{DiskSpillStore, Serde}

/** Dynamic Hybrid Hash Join as a Catalyst physical operator.
  *
  * The extension-point layering promised in DESIGN.md: requiredChildDistribution
  * asks Spark to hash-co-partition both children on the join keys (Spark
  * inserts the exchanges), and `doExecute` runs one instance of the paper's
  * operator per partition over `UnsafeRow`s, spilling real bytes to disk.
  * Plug in via [[HHJStrategy]]:
  * `spark.experimental.extraStrategies = Seq(HHJStrategy(cfg))` — after
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
      // Two independent projections per side so projected key rows can be
      // compared without copying (each projection reuses its own buffer).
      val probeKeyGen  = UnsafeProjection.create(lKeys, lOutput)
      val buildKeyGen  = UnsafeProjection.create(rKeys, rOutput)
      val probeKeyGen2 = UnsafeProjection.create(lKeys, lOutput)
      val buildKeyGen2 = UnsafeProjection.create(rKeys, rOutput)
      // Children may emit any InternalRow (e.g. a JoinedRow from a nested
      // operator); normalize to UnsafeRow via an identity projection.
      val probeToUnsafe = UnsafeProjection.create(lOutput, lOutput)
      val buildToUnsafe = UnsafeProjection.create(rOutput, rOutput)

      def hash(keyRow: UnsafeRow): Long = scala.util.hashing.byteswap64(keyRow.hashCode.toLong)

      def recs(
          it: Iterator[InternalRow],
          keyGen: UnsafeProjection,
          toUnsafe: UnsafeProjection,
          frameSize: Int,
      ): Iterator[JoinRec[UnsafeRow]] =
        it.flatMap { row =>
          val keys = keyGen(row)
          if (keys.anyNull) None // null keys never match an inner equi-join
          else {
            val u = toUnsafe(row).copy()
            Some(JoinRec(hash(keys), math.min(u.getSizeInBytes, frameSize), u))
          }
        }

      val dir    = Files.createTempDirectory("hhj-exec-spill").toFile
      val store  = new DiskSpillStore[UnsafeRow](dir, UnsafeRowSerde)
      val out    = ArrayBuffer.empty[InternalRow]
      val joined = new JoinedRow
      // Downstream operators (shuffle writers in particular) require
      // UnsafeRow output, so flatten each joined pair.
      val outProj = UnsafeProjection.create(lOutput ++ rOutput, lOutput ++ rOutput)
      try {
        val stats = DynamicHHJ.join(
          recs(buildIt, buildKeyGen, buildToUnsafe, conf.frameSize),
          recs(probeIt, probeKeyGen, probeToUnsafe, conf.frameSize),
          conf,
          store,
          (b: JoinRec[UnsafeRow], p: JoinRec[UnsafeRow]) => {
            // Hash-collision filter: exact key comparison.
            if (buildKeyGen2(b.payload) == probeKeyGen2(p.payload))
              out += outProj(joined(p.payload, b.payload)).copy()
          },
        )
        LastStats.set(stats)
      } finally {
        store.close()
        dir.delete(): Unit
      }
      out.iterator
    }
  }
}

/** Serde spilling `UnsafeRow`s byte-for-byte. The field count differs
  * between build and probe rows, so it is written per record.
  */
private object UnsafeRowSerde extends Serde[UnsafeRow] {
  def write(r: UnsafeRow, out: DataOutputStream): Unit = {
    out.writeInt(r.numFields())
    val bytes = r.getBytes
    out.writeInt(bytes.length)
    out.write(bytes)
  }
  def read(in: DataInputStream): UnsafeRow = {
    val nFields = in.readInt()
    val n       = in.readInt()
    val bytes   = new Array[Byte](n)
    in.readFully(bytes)
    val row = new UnsafeRow(nFields)
    row.pointTo(bytes, n)
    row
  }
}

/** Plans every inner equi-join without a residual condition into
  * [[DynamicHHJExec]]. Install with
  * `spark.experimental.extraStrategies = Seq(HHJStrategy(cfg))`.
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
    spark.experimental.extraStrategies =
      spark.experimental.extraStrategies.filterNot(_.isInstanceOf[HHJStrategy]) :+ HHJStrategy(cfg)

  def uninstall(spark: SparkSession): Unit =
    spark.experimental.extraStrategies =
      spark.experimental.extraStrategies.filterNot(_.isInstanceOf[HHJStrategy])
}
