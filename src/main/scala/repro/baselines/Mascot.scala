package repro.baselines

import repro.core.{Adjacency, LongCounts, StreamEngine}

/** MASCOT (Lim & Kang, KDD'15), the improved memory-efficient variant used by
  * the REPT paper as its main baseline.
  *
  * For each arriving edge (u,v) it first counts the semi-triangles closed by
  * (u,v) in the sampled graph (unconditionally — the count-then-sample trick
  * that gives the p⁻² scaling), then keeps (u,v) with probability p. At the
  * end, τ̃ = (#semi-triangles)/p² and τ̃_v = (count_v)/p², both unbiased with
  * Var(τ̃) = τ(p⁻²−1) + 2η(p⁻¹−1) (Lemma 6 of [16], quoted in Section I).
  *
  * Each parallel-MASCOT processor is one independent instance of this engine
  * (own RNG seed); the parallel estimate averages the c instances.
  */
final class MascotProcessor(val p: Double, val seed: Long) extends StreamEngine {
  require(p > 0 && p <= 1, s"p must be in (0,1], got $p")

  private val rng = new java.util.SplittableRandom(seed)
  private val adj = new Adjacency
  private var semi: Long = 0L
  private val semiV = new LongCounts
  private var stored: Long = 0L

  /** Raw semi-triangle count before scaling. */
  def semiTriangles: Long = semi

  /** Global estimate τ̃ = semi/p². */
  def tauHat: Double = semi / (p * p)

  /** Local estimates τ̃_v (zero-count nodes omitted). */
  def tauVHat: collection.Map[Int, Double] =
    semiV.toMap.map { case (d, n) => (original(d.toInt), n / (p * p)) }

  def sampledEdges: Long = stored

  private val countSemi: Adjacency.Visitor = (_, _, w) => semiV.add(w, 1)

  protected def processEdge(edge: Long, u: Int, v: Int): Unit = {
    if (u == v) return
    val k = adj.forEachCommon(u, v, countSemi)
    if (k > 0) { semi += k; semiV.add(u, k); semiV.add(v, k) }
    // One draw per edge, whether or not (u, v) is already stored.
    if (rng.nextDouble() < p && adj.add(u, v)) stored += 1
  }
}
