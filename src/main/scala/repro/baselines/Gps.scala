package repro.baselines

import scala.collection.mutable
import repro.core.{Adjacency, EdgeStream, StreamEngine}

/** GPS In-Stream (Ahmed et al., VLDB'17) — graph priority sampling.
  *
  * Each arriving edge e gets a weight w(e) computed from the current sample
  * (we use the triangle-focused choice w(e) = 9·(#triangles e closes in the
  * sample) + 1; the GPS framework leaves this configurable) and a priority
  * rank r(e) = w(e)/u(e) with u ~ U(0,1). The sample keeps the `budget`
  * highest-rank edges; z* tracks the largest rank ever rejected or evicted
  * (the priority-sampling threshold). An edge in the sample has estimated
  * inclusion probability q(e) = min(1, w(e)/z*).
  *
  * In-Stream estimation: when (u,v) arrives, *before* its sampling decision,
  * every triangle it closes over sampled edges (u,w),(v,w) contributes
  * 1/(q(u,w)·q(v,w)) to the global and local counters, frozen at the current
  * threshold — the lower-variance variant the REPT paper benchmarks.
  *
  * Per the paper's memory-parity argument (sampled edges *and* their weights
  * both cost memory), benchmarks give GPS half the edge budget of the other
  * methods.
  */
final class GpsInStreamProcessor(val budget: Int, val seed: Long) extends StreamEngine {
  require(budget >= 1, s"budget must be >= 1, got $budget")

  private val rng = new java.util.SplittableRandom(seed)
  private val adj = new Adjacency
  private val weightOf = mutable.LongMap.empty[Double]
  // Min-heap of (rank, edgeKey); ranks are fixed at insertion so no lazy
  // deletes.
  private val heap = new java.util.PriorityQueue[GpsInStreamProcessor.Entry](
    budget + 1, (a, b) => java.lang.Double.compare(a.rank, b.rank))
  private var z: Double = 0.0
  private var global: Double = 0.0
  private val localCnt = mutable.LongMap.empty[Double].withDefaultValue(0.0)

  def tauHat: Double = global

  def tauVHat: collection.Map[Int, Double] =
    localCnt.iterator.map { case (d, x) => (original(d.toInt), x) }.toMap

  def sampledEdges: Int = heap.size
  def threshold: Double = z

  private def q(edgeKey: Long): Double = {
    val w = weightOf(edgeKey)
    if (z <= 0 || w >= z) 1.0 else w / z
  }

  private def addEdge(u: Int, v: Int, weight: Double, rank: Double): Unit = {
    val k = EdgeStream.key(u, v)
    adj.add(u, v)
    weightOf(k) = weight
    heap.add(GpsInStreamProcessor.Entry(rank, k))
  }

  private def removeMin(): Unit = {
    val min = heap.poll()
    z = math.max(z, min.rank)
    val k = min.edgeKey
    weightOf.remove(k)
    adj.remove(EdgeStream.keyU(k), EdgeStream.keyV(k))
  }

  private val countClosed: Adjacency.Visitor = (u, v, w) => {
    val inc = 1.0 / (q(EdgeStream.key(u, w)) * q(EdgeStream.key(v, w)))
    global += inc
    localCnt(u) += inc; localCnt(v) += inc; localCnt(w) += inc
  }

  protected def processEdge(edge: Long, u: Int, v: Int): Unit = {
    if (u == v) return
    val k = adj.forEachCommon(u, v, countClosed)
    val weight = 9.0 * k + 1.0
    var unif = rng.nextDouble()
    while (unif == 0.0) unif = rng.nextDouble()
    val rank = weight / unif
    if (heap.size < budget) addEdge(u, v, weight, rank)
    else if (rank > heap.peek().rank) { removeMin(); addEdge(u, v, weight, rank) }
    else z = math.max(z, rank)
  }
}

object GpsInStreamProcessor {
  /** A sampled edge: its rank and its key in dense ids. */
  final case class Entry(rank: Double, edgeKey: Long)
}
