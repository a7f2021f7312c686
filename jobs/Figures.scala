package repro.jobs

import repro.bench.Studies
import repro.bench.Studies.LargeRatios
import repro.wisconsin.{KeyDist, RecordSpec}

/** Prints the paper's tables, by name, exactly as the bench suites print
  * them. The studies are engine-level (the paper's experiments are
  * single-operator runs), so this runs anywhere a JVM runs. Examples:
  *
  *   sbt -batch "runMain repro.jobs.Figures table1 fig12"
  *   spark-submit --class repro.jobs.Figures target/scala-2.13/repro_2.13-*.jar fig3 fig4 fig5
  */
object Figures {

  private def insertion(fig: Int, largeRatio: Double, spec: RecordSpec): String =
    Studies.insertionTable(fig, largeRatio, Studies.insertionStudy(Studies.standardInsertionPolicies(), spec))

  private def victim(fig: Int, largeRatio: Double, spec: RecordSpec, keys: KeyDist): String =
    Studies.victimTable(fig, largeRatio, keys, Studies.victimStudy(spec, keys))

  /** Name -> the figure's tables, each computed when printed. */
  val registry: Seq[(String, Seq[() => String])] = Seq(
    "table1" -> Seq(() => Studies.table1Table(Studies.table1())),
    "fig3"   -> Seq(() => Studies.sweepTable(3, Studies.partitionSweep(fixedAllRounds = true))),
    "fig4"   -> Seq(() => Studies.sweepTable(4, Studies.partitionSweep(fixedAllRounds = false))),
    "fig5"   -> Seq(() => Studies.sweepTable(5, Studies.partitionSweep(fixedAllRounds = true))),
    "fig678" -> LargeRatios.reverse.map(r => () => Studies.paramChoiceTable(r, Studies.parameterChoiceStudy(r))),
    "fig9"   -> Seq(() => insertion(9, 0.0, RecordSpec.AllSmall)),
    "fig10"  -> LargeRatios.map(r => () => insertion(10, r, RecordSpec.threeLarge(r))),
    "fig11"  -> LargeRatios.map(r => () => insertion(11, r, RecordSpec.oneLarge(r))),
    "fig12"  -> Seq(() => Studies.growthTable(Studies.growthStudy())),
    "fig13"  -> Seq(KeyDist.Unique, KeyDist.NormalSkew).map(k => () => victim(13, 0.0, RecordSpec.AllSmall, k)),
    "fig14"  -> LargeRatios.map(r => () => victim(14, r, RecordSpec.oneLarge(r), KeyDist.Unique)),
    "fig15"  -> LargeRatios.map(r => () => victim(15, r, RecordSpec.threeLarge(r), KeyDist.Unique)),
    "fig16"  -> LargeRatios.map(r => () => victim(16, r, RecordSpec.oneLarge(r), KeyDist.NormalSkew)),
    "fig17"  -> LargeRatios.map(r => () => victim(17, r, RecordSpec.threeLarge(r), KeyDist.NormalSkew)),
  )

  def main(args: Array[String]): Unit = {
    val tables  = registry.toMap
    val unknown = args.filterNot(tables.contains)
    require(args.nonEmpty && unknown.isEmpty,
      s"usage: Figures <name>...; unknown: ${unknown.mkString(" ")}; names: ${registry.map(_._1).mkString(" ")}")
    for (name <- args; table <- tables(name)) println(table())
  }
}
