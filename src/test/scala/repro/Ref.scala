package repro

import scala.util.Random

/** Brute-force reference implementations over tiny ordered edge lists —
  * deliberately independent of both the engines and the Spark exact modules,
  * so each can be validated against straight-line code.
  *
  * Edges are given in arrival order; time of edge i is its index.
  */
object Ref {

  final case class Tri(nodes: Set[Int], edgeTimes: Map[(Int, Int), Int]) {
    val formTime: Int = edgeTimes.values.max
    def lastEdge: (Int, Int) = edgeTimes.maxBy(_._2)._1
    def edges: Set[(Int, Int)] = edgeTimes.keySet
  }

  private def canon(u: Int, v: Int): (Int, Int) = (math.min(u, v), math.max(u, v))

  /** All triangles of the (simple) graph with their per-edge arrival times. */
  def triangles(edges: Seq[(Int, Int)]): Seq[Tri] = {
    val timeOf = edges.zipWithIndex.map { case ((u, v), t) => canon(u, v) -> t }.toMap
    require(timeOf.size == edges.size, "duplicate edges in fixture")
    val nodes = edges.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
    for {
      i <- nodes.indices; j <- (i + 1) until nodes.size; k <- (j + 1) until nodes.size
      a = nodes(i); b = nodes(j); c = nodes(k)
      if timeOf.contains(canon(a, b)) && timeOf.contains(canon(a, c)) &&
        timeOf.contains(canon(b, c))
    } yield Tri(Set(a, b, c), Map(
      canon(a, b) -> timeOf(canon(a, b)),
      canon(a, c) -> timeOf(canon(a, c)),
      canon(b, c) -> timeOf(canon(b, c))))
  }

  def tau(edges: Seq[(Int, Int)]): Long = triangles(edges).size.toLong

  def tauV(edges: Seq[(Int, Int)]): Map[Int, Long] =
    triangles(edges).flatMap(_.nodes).groupBy(identity).view.mapValues(_.size.toLong).toMap

  /** Pairs of distinct triangles sharing edge g; classifies against the η and
    * η⁺ definitions (see ExactEta). Optional node filter restricts both
    * triangles to Δ_v.
    */
  private def pairCounts(edges: Seq[(Int, Int)], nodeFilter: Option[Int]): (Long, Long) = {
    val tris = nodeFilter match {
      case Some(v) => triangles(edges).filter(_.nodes.contains(v))
      case None    => triangles(edges)
    }
    var eta = 0L; var etaPlus = 0L
    for (i <- tris.indices; j <- (i + 1) until tris.size) {
      val a = tris(i); val b = tris(j)
      val shared = a.edges intersect b.edges
      if (shared.size == 1) {
        val g = shared.head
        val lastInA = a.lastEdge == g
        val lastInB = b.lastEdge == g
        if (!lastInA && !lastInB) { eta += 1; etaPlus += 1 }
        else {
          // η⁺ additionally counts pairs where g is last only in the earlier
          // triangle (strictly earlier formation time).
          val (earlier, later) = if (a.formTime < b.formTime) (a, b) else (b, a)
          if (a.formTime != b.formTime && earlier.lastEdge == g && later.lastEdge != g)
            etaPlus += 1
        }
      }
    }
    (eta, etaPlus)
  }

  def eta(edges: Seq[(Int, Int)]): Long = pairCounts(edges, None)._1
  def etaPlus(edges: Seq[(Int, Int)]): Long = pairCounts(edges, None)._2
  def etaV(edges: Seq[(Int, Int)], v: Int): Long = pairCounts(edges, Some(v))._1
  def etaPlusV(edges: Seq[(Int, Int)], v: Int): Long = pairCounts(edges, Some(v))._2

  /** Random simple graph as an ordered edge list (deterministic in seed). */
  def randomGraph(n: Int, e: Int, seed: Long): Seq[(Int, Int)] = {
    val rng = new Random(seed)
    val pairs = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (pairs.size < e && guard < e * 100) {
      val u = rng.nextInt(n); val v = rng.nextInt(n)
      if (u != v) pairs += canon(u, v)
      guard += 1
    }
    rng.shuffle(pairs.toSeq)
  }

  /** A small graph whose triangles sit on the extreme ids Int.MinValue, −1,
    * 0, 1 and Int.MaxValue: K5 on those five, in shuffled order with half its
    * edges reversed, then three triangles through node 7 and one on 0, 1, 2.
    */
  val extremeIdEdges: Seq[(Int, Int)] = {
    val x = Seq(Int.MinValue, -1, 0, 1, Int.MaxValue)
    val k5 = for (i <- x.indices; j <- (i + 1) until x.size)
      yield if ((i + j) % 2 == 0) (x(i), x(j)) else (x(j), x(i))
    new Random(5).shuffle(k5) ++
      Seq((Int.MaxValue, 7), (7, Int.MinValue), (7, -1), (2, 7), (2, 0), (1, 2))
  }

  /** Random graph with a planted clique prefix — triangle-rich fixtures. */
  def cliquePlusNoise(cliqueSize: Int, n: Int, extraEdges: Int, seed: Long): Seq[(Int, Int)] = {
    val rng = new Random(seed)
    val clique = for (i <- 0 until cliqueSize; j <- (i + 1) until cliqueSize) yield (i, j)
    val noise = randomGraph(n, extraEdges, seed + 1).filterNot(clique.contains)
    rng.shuffle(clique ++ noise)
  }
}
