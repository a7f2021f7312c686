package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Figures 6-8: choosing the parameter values for Append(k), First-Fit(%p)
  * and Random(%p) on the 1-Large-Record-Coexist dataset at 90/50/10% large
  * records.
  *
  * Paper findings: all parameter values reach similar frame fullness (large
  * records dominate placement), but the number of searched frames grows
  * with the parameter — hence Append(8), First-Fit(10%), Random(10%).
  */
class Fig678ParamChoiceBench extends AnyFunSuite {

  for (largeRatio <- Seq(0.9, 0.5, 0.1)) {
    lazy val rows = Studies.parameterChoiceStudy(largeRatio)

    test(f"Figures 6-8: parameter sweep at ${(largeRatio * 100).toInt}%% large records") {
      println(Studies.paramChoiceTable(largeRatio, rows))

      def row(p: String) = rows.find(_.policy == p).get

      // Fullness is nearly insensitive to the parameter within each family
      // (the paper notes the 10%-large case "slightly differs" — Random's
      // blind probing is the most sensitive there).
      for (family <- Seq("Append", "First-Fit", "Random")) {
        val fam  = rows.filter(_.policy.startsWith(family))
        val band = if (family == "Random") 0.20 else 0.12
        assert(fam.map(_.frameFullness).max - fam.map(_.frameFullness).min < band,
          s"$family fullness should be parameter-insensitive")
      }
      // Search effort rises with the parameter (the figures' (d,e,f) panels).
      assert(row("Append(8)").framesSearched <= row("Append(10)").framesSearched)
      assert(row("Append(2)").framesSearched <= row("Append(8)").framesSearched)
      assert(row("First-Fit(10%)").framesSearched <= row("First-Fit(100%)").framesSearched)
      assert(row("Random(10%)").framesSearched <= row("Random(100%)").framesSearched)
    }
  }
}
