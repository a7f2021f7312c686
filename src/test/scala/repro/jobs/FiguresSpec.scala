package repro.jobs

import java.io.ByteArrayOutputStream

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Studies

class FiguresSpec extends AnyFunSuite {

  private val names = Figures.registry.map(_._1)

  test("Figures table1 prints the Table 1 block the bench prints") {
    val out = new ByteArrayOutputStream()
    Console.withOut(out)(Figures.main(Array("table1")))
    assert(out.toString("UTF-8") == Studies.table1Table(Studies.table1()) + "\n")
  }

  test("an unknown name fails and lists every valid name") {
    val e = intercept[IllegalArgumentException](Figures.main(Array("table1", "fig99")))
    assert(e.getMessage.contains("fig99"))
    names.foreach(n => assert(e.getMessage.contains(n), s"message should list $n"))
  }

  test("the registry names are unique and cover Table 1 and Figures 3-17") {
    assert(names.distinct == names)
    assert(names.toSet == (Seq("table1", "fig3", "fig4", "fig5", "fig678") ++ (9 to 17).map(f => s"fig$f")).toSet)
  }
}
