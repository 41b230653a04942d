package repro.baselines

import scala.collection.mutable
import repro.core.{Adjacency, EdgeStream, StreamEngine}

/** Trièst-IMPR (De Stefani et al., KDD'16) — reservoir-sampled streaming
  * triangle counting with the "improved" weighted counters, the variant the
  * REPT paper benchmarks.
  *
  * A reservoir of at most `budget` edges is maintained with standard reservoir
  * sampling (insert always while t ≤ M; afterwards keep with probability M/t,
  * evicting a uniformly random resident edge). *Before* the sampling decision
  * for the t-th edge (u,v), every common neighbour w of u,v in the reservoir
  * graph increments the global and local counters by
  * η_t = max(1, (t−1)(t−2)/(M(M−1))) — the IMPR weighting that makes the
  * counters directly unbiased estimates (no end-of-stream rescaling).
  */
final class TriestImprProcessor(val budget: Int, val seed: Long) extends StreamEngine {
  require(budget >= 2, s"budget must be >= 2, got $budget")

  private val rng = new java.util.SplittableRandom(seed)
  private val adj = new Adjacency
  private val reservoir = new Array[Long](budget) // dense edge keys
  private var size = 0
  private var t: Long = 0L
  private var global: Double = 0.0
  private val localCnt = mutable.LongMap.empty[Double].withDefaultValue(0.0)

  /** Unbiased global estimate (the counter itself). */
  def tauHat: Double = global

  /** Unbiased local estimates (zero-count nodes omitted). */
  def tauVHat: collection.Map[Int, Double] =
    localCnt.iterator.map { case (d, x) => (original(d.toInt), x) }.toMap

  def edgesSeen: Long = t
  def sampledEdges: Int = size

  // The IMPR weight of the edge being processed.
  private var w8: Double = 0.0
  private val countLocal: Adjacency.Visitor = (_, _, w) => localCnt(w) += w8

  protected def processEdge(edge: Long, u: Int, v: Int): Unit = {
    if (u == v) return
    t += 1
    val m = budget.toDouble
    w8 = math.max(1.0, (t - 1).toDouble * (t - 2).toDouble / (m * (m - 1)))
    val k = adj.forEachCommon(u, v, countLocal)
    if (k > 0) {
      global += k * w8
      localCnt(u) += k * w8
      localCnt(v) += k * w8
    }
    if (size < budget) {
      reservoir(size) = EdgeStream.key(u, v); size += 1; adj.add(u, v)
    } else if (rng.nextDouble() < budget / t.toDouble) {
      val victim = rng.nextInt(budget)
      val old = reservoir(victim)
      adj.remove(EdgeStream.keyU(old), EdgeStream.keyV(old))
      reservoir(victim) = EdgeStream.key(u, v)
      adj.add(u, v)
    }
  }
}
