package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Paper Table 1: partitions from Equation 2, M = 128 MB. Our values must
  * match the paper's exactly (the formula is closed-form).
  */
class Table1Bench extends AnyFunSuite {

  private val paper = Studies.Table1Paper

  test("Table 1: Equation 2 partition counts (paper vs measured)") {
    val got = Studies.table1()
    println(Studies.table1Table(got))
    got.foreach { case (mb, p) => assert(p == paper(mb), s"build=${mb}MB") }
  }
}
