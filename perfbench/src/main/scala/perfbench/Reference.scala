package perfbench

import java.util.concurrent.{Callable, Executors}

import repro.core.{EdgeHasher, Rept}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Straight-line REPT used as the benchmark's ground truth.
  *
  * It is written from the paper's Algorithms 1 and 2, not from the code
  * under test: the only things it shares with the program are the public
  * edge hash (`EdgeHasher`) and the per-group seed (`Rept.groupSeed`), which
  * define which processor stores which edge. Everything else — adjacency,
  * counters, estimators — is re-derived here.
  */
object Reference {

  /** Counters of one run over all c processors, in processor order
    * (group-major, slot-minor), plus the estimates derived from them.
    */
  final case class Counters(
      m: Int,
      c: Int,
      tau: Array[Long],
      eta: Array[Long],
      tauV: Array[Map[Int, Long]],
      etaV: Array[Map[Int, Long]],
  ) {
    /** Whether the c > m, c mod m ≠ 0 estimator (Algorithm 2) applies. */
    def needsEta: Boolean = c > m && c % m != 0

    def tauHat: Double = Reference.tauHat(m, c, tau, eta)

    def tauVHat: Map[Int, Double] = {
      val nodes = tauV.iterator.flatMap(_.keysIterator).toSet
      nodes.iterator.map { v =>
        (v, Reference.tauHat(m, c, tauV.map(_.getOrElse(v, 0L)), etaV.map(_.getOrElse(v, 0L))))
      }.toMap
    }
  }

  /** One REPT processor: observes every edge, stores those hashing to its
    * slot, counts the semi-triangles each arriving edge closes in its stored
    * graph, and keeps Algorithm 2's per-edge τ_(u,v) and pair counters η.
    */
  final class Processor(hasher: EdgeHasher, slot: Int) {
    private val adj = mutable.HashMap.empty[Int, mutable.Set[Int]]
    private val tauEdge = mutable.HashMap.empty[(Int, Int), Long]
    var tau = 0L
    var eta = 0L
    val tauV = mutable.HashMap.empty[Int, Long]
    val etaV = mutable.HashMap.empty[Int, Long]

    private def bump(m: mutable.HashMap[Int, Long], v: Int, by: Long): Unit =
      if (by != 0) m(v) = m.getOrElse(v, 0L) + by

    private def edge(a: Int, b: Int): (Int, Int) = if (a < b) (a, b) else (b, a)

    def observe(u: Int, v: Int): Unit = {
      if (u == v) return
      val nu = adj.getOrElse(u, mutable.Set.empty[Int])
      val nv = adj.getOrElse(v, mutable.Set.empty[Int])
      val (small, big) = if (nu.size <= nv.size) (nu, nv) else (nv, nu)
      val common = small.filter(big.contains)
      val k = common.size.toLong
      tau += k
      bump(tauV, u, k)
      bump(tauV, v, k)
      for (w <- common) {
        bump(tauV, w, 1)
        val tuw = tauEdge.getOrElse(edge(u, w), 0L)
        val tvw = tauEdge.getOrElse(edge(v, w), 0L)
        eta += tuw + tvw
        bump(etaV, w, tuw + tvw)
        bump(etaV, u, tuw)
        bump(etaV, v, tvw)
        tauEdge(edge(u, w)) = tuw + 1
        tauEdge(edge(v, w)) = tvw + 1
      }
      if (hasher.slot(u, v) == slot) {
        adj.getOrElseUpdate(u, mutable.Set.empty) += v
        adj.getOrElseUpdate(v, mutable.Set.empty) += u
        tauEdge(edge(u, v)) = k
      }
    }
  }

  /** Run all c processors of REPT(1/m, c) over `edges` (arrival order),
    * `threads` processors at a time.
    */
  def run(edges: Array[(Int, Int)], m: Int, c: Int, seed: Long, threads: Int): Counters = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val jobs = (0 until c).map { p =>
        new Callable[Processor] {
          def call(): Processor = {
            // Processor p sits at slot p mod m of group p / m; groups are
            // hashed independently.
            val proc = new Processor(new EdgeHasher(m, Rept.groupSeed(seed, p / m)), p % m)
            for ((u, v) <- edges) proc.observe(u, v)
            proc
          }
        }
      }
      val procs = pool.invokeAll(jobs.asJava).asScala.map(_.get()).toIndexedSeq
      Counters(m, c, procs.map(_.tau).toArray, procs.map(_.eta).toArray,
        procs.map(_.tauV.toMap).toArray, procs.map(_.etaV.toMap).toArray)
    } finally pool.shutdownNow()
  }

  /** The paper's estimate from per-processor counters (global, or one
    * node's when given that node's τ_v and η_v): Theorem 2 for c ≤ m, the
    * full-group mean for c = c₁·m, and otherwise Algorithm 2's Graybill–Deal
    * combination with plug-in variances. Arithmetic is written in the order
    * the paper states it so that equal counters give bit-equal estimates.
    */
  def tauHat(m: Int, c: Int, tau: Array[Long], eta: Array[Long]): Double = {
    val md = m.toDouble
    if (c <= m) md * md / c * tau.sum
    else {
      val c1 = c / m
      val c2 = c % m
      val t1 = md / c1 * tau.take(c1 * m).sum
      if (c2 == 0) t1
      else {
        val t2 = md * md / c2 * tau.drop(c1 * m).sum
        val etaHat = math.pow(md, 3) / c * eta.sum
        val w1 = t1 * (m - 1) / c1
        val w2 = (t1 * (md * m - c2) + 2.0 * etaHat * (m - c2)) / c2
        if (w1 + w2 <= 0) (t1 + t2) / 2.0 else (w2 * t1 + w1 * t2) / (w1 + w2)
      }
    }
  }
}
