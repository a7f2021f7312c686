package repro.bench

import java.io.File

import org.scalatest.funsuite.AnyFunSuite

import repro.wisconsin.{KeyDist, RecordSpec}

/** The studies' joins spill through a disk store; the bench suites print
  * their tables, and this checks the spill path itself.
  */
class StudiesSpec extends AnyFunSuite {

  test("a spilling study gives the same rows twice and leaves no spill directory") {
    def spillDirs: Set[String] =
      new File(System.getProperty("java.io.tmpdir")).list().filter(_.startsWith("studies-spill")).toSet
    val before = spillDirs
    def run()  = Studies.victimStudy(RecordSpec.AllSmall, KeyDist.Unique, Seq(1.2))
    val rows   = run()
    assert(rows.size == 13 && rows.forall(r => r.seqWriteFrames + r.randWriteOps > 0), s"every policy must spill: $rows")
    assert(run() == rows)
    assert(spillDirs -- before == Set.empty)
  }
}
