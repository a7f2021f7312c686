package repro.wisconsin

import repro.core.frames.JoinRec

/** Record-size distribution of the paper's modified Wisconsin benchmark
  * datasets (Table 2): small records of 700-1500 B, optionally mixed with
  * large records at a given ratio.
  */
final case class RecordSpec(
    smallMin: Int,
    smallMax: Int,
    largeMin: Int,
    largeMax: Int,
    largeRatio: Double,
) {
  require(largeRatio >= 0 && largeRatio <= 1)
  def hasLarge: Boolean = largeRatio > 0 && largeMax > 0

  /** Expected record size — used to size datasets by bytes. */
  def expectedSize: Double = {
    val small = (smallMin + smallMax) / 2.0
    val large = if (hasLarge) (largeMin + largeMax) / 2.0 else 0.0
    largeRatio * large + (1 - largeRatio) * small
  }
}

object RecordSpec {
  /** Table 2, "All Small Records": 700-1500 B. */
  val AllSmall = RecordSpec(700, 1500, 0, 0, 0.0)

  /** Table 2, "1-Large Record Coexist": large records of 18-20 KB — one per
    * 32 KB frame — at `ratio` of the population.
    */
  def oneLarge(ratio: Double) = RecordSpec(700, 1500, 18 * 1024, 20 * 1024, ratio)

  /** Table 2, "3-Large Records Coexist": large records of 8-10 KB. */
  def threeLarge(ratio: Double) = RecordSpec(700, 1500, 8 * 1024, 10 * 1024, ratio)
}

/** Join-key distribution of a generated dataset. */
sealed trait KeyDist
object KeyDist {
  /** Unique integers 1..n (the paper's non-skewed case; Wisconsin `unique1`). */
  case object Unique extends KeyDist

  /** The paper's §7.1.1 skew: keys drawn from a Normal distribution with
    * mean = cardinality/2 and σ scaled from the paper's (8208 at cardinality
    * 985 000), clamped to [1, cardinality] — 99% of values come from 5% of
    * the domain.
    */
  case object NormalSkew extends KeyDist
}

/** Deterministic Wisconsin-benchmark-lite record streams for the core
  * engine (metadata-only payloads). The Spark-side integration tests use
  * [[repro.SynthData]] instead; this generator exists to mirror the exact
  * workloads of the paper's §5-§7 experiments.
  */
object WisconsinGen {
  /** σ/cardinality of the paper's skew setting (8208 / 985 000). */
  val SigmaRatio: Double = 8208.0 / 985000.0

  /** Number of records that makes a dataset of roughly `targetBytes`. */
  def cardinalityFor(targetBytes: Long, spec: RecordSpec): Int =
    math.max(1L, math.round(targetBytes / spec.expectedSize)).toInt

  /** `n` records with sizes from `spec` and keys from `keys`. Fully
    * deterministic in (n, spec, keys, seed).
    */
  def records(n: Int, spec: RecordSpec, keys: KeyDist, seed: Long): Iterator[JoinRec[Null]] = {
    val rnd = new java.util.Random(seed)
    val sigma = n * SigmaRatio
    val mean  = n / 2.0
    Iterator.tabulate(n) { i =>
      val size =
        if (spec.hasLarge && rnd.nextDouble() < spec.largeRatio)
          spec.largeMin + rnd.nextInt(spec.largeMax - spec.largeMin + 1)
        else
          spec.smallMin + rnd.nextInt(spec.smallMax - spec.smallMin + 1)
      val key: Long = keys match {
        case KeyDist.Unique => i.toLong + 1
        case KeyDist.NormalSkew =>
          val g = math.round(mean + rnd.nextGaussian() * sigma)
          math.max(1L, math.min(n.toLong, g))
      }
      JoinRec[Null](key, size, null)
    }
  }

  /** A dataset of roughly `targetBytes`, as (cardinality, stream factory).
    * The stream is re-creatable (the engine consumes build and probe
    * separately and the benches reuse inputs across policies).
    */
  def dataset(targetBytes: Long, spec: RecordSpec, keys: KeyDist, seed: Long): (Int, () => Iterator[JoinRec[Null]]) = {
    val n = cardinalityFor(targetBytes, spec)
    (n, () => records(n, spec, keys, seed))
  }
}
