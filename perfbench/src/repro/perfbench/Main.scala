package repro.perfbench

/** Entry point: runs one workload and prints its result as the last line. */
object Main {
  def main(argv: Array[String]): Unit = {
    val o = Options.parse(argv)
    val result = o.workload match {
      case "engine_fit"   => EngineBench.run(EngineBench.Fit, o)
      case "engine_spill" => EngineBench.run(EngineBench.Spill, o)
      case "spark_sf01"   => SparkBench.run(o)
      case other          => throw new IllegalArgumentException(s"unknown workload $other")
    }
    println(result.json)
    System.out.flush()
    sys.exit(0)
  }
}
