package repro.baselines

import scala.collection.mutable
import repro.core.EdgeStream

/** Naive parallelisation of the baseline estimators, exactly as the REPT paper
  * defines it (Section IV-B): c independent instances (independent RNG seeds)
  * each process the whole stream; the parallel estimate is the mean of the c
  * per-instance estimates (globally and per node).
  */
object ParallelBaseline {

  val MascotName = "MASCOT"
  val TriestName = "TRIEST"
  val GpsName    = "GPS"

  /** Per-instance result in a common shape. */
  final case class InstanceResult(tauHat: Double, tauVHat: collection.Map[Int, Double])

  /** Deterministic per-processor RNG seed. */
  def procSeed(base: Long, proc: Int): Long =
    EdgeStream.mix64(base ^ (0x9e3779b97f4a7c15L * (proc + 1)))

  /** One instance of `method` at the memory of REPT(p = 1/m), per Section
    * IV-B: MASCOT samples with p = 1/m; Trièst gets budget |E|/m; GPS gets
    * |E|/(2m) (weights cost the other half of its memory). Local estimates
    * are kept only when `locals` is set; `dense` is the run's
    * `EdgeStream.relabel(stream)`.
    */
  def instance(method: String, m: Int, stream: Array[Long], dense: EdgeStream.Relabel,
               seed: Long, locals: Boolean): InstanceResult = {
    def result(tauHat: Double, tauVHat: => collection.Map[Int, Double]) =
      InstanceResult(tauHat, if (locals) tauVHat else Map.empty[Int, Double])
    method match {
      case MascotName =>
        val e = new MascotProcessor(1.0 / m, seed).processStream(stream, dense)
        result(e.tauHat, e.tauVHat)
      case TriestName =>
        val budget = math.max(2, math.round(stream.length.toDouble / m).toInt)
        val e = new TriestImprProcessor(budget, seed).processStream(stream, dense)
        result(e.tauHat, e.tauVHat)
      case GpsName =>
        val budget = math.max(1, math.round(stream.length.toDouble / (2.0 * m)).toInt)
        val e = new GpsInStreamProcessor(budget, seed).processStream(stream, dense)
        result(e.tauHat, e.tauVHat)
      case other => throw new IllegalArgumentException(s"unknown baseline $other")
    }
  }

  /** Mean of c instance results (absent nodes count as 0 in the mean). */
  def average(results: Seq[InstanceResult]): InstanceResult = {
    val c = results.size.toDouble
    val g = results.map(_.tauHat).sum / c
    val acc = mutable.LongMap.empty[Double].withDefaultValue(0.0)
    for (r <- results; (v, x) <- r.tauVHat) acc(v.toLong) += x
    InstanceResult(g, acc.iterator.map { case (k, x) => (k.toInt, x / c) }.toMap)
  }
}
