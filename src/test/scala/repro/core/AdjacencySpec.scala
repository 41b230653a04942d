package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable
import scala.util.Random

class AdjacencySpec extends AnyFunSuite {

  /** The common neighbours `forEachCommon` visits, checking that every visit
    * carries the queried (u, v) and that the returned count matches.
    */
  private def visited(adj: Adjacency, u: Int, v: Int): List[Int] = {
    val seen = mutable.ListBuffer.empty[Int]
    val k = adj.forEachCommon(u, v, (a, b, w) => {
      assert(a == u && b == v, s"visit got ($a, $b) for ($u, $v)")
      seen += w
    })
    assert(k == seen.size, s"count $k for ${seen.size} visits at ($u, $v)")
    seen.toList
  }

  private def refCommon(ref: Set[(Int, Int)], u: Int, v: Int): Set[Int] = {
    def nbrs(x: Int) = ref.collect { case (a, b) if a == x => b; case (a, b) if b == x => a }
    nbrs(u) intersect nbrs(v)
  }

  test("random adds and removes: the visit yields exactly the brute-force common neighbours") {
    val n = 12
    for (seed <- 1L to 5L) {
      val rng = new Random(seed)
      val adj = new Adjacency
      var ref = Set.empty[(Int, Int)]
      for (step <- 1 to 400) {
        val (u, v) = {
          val a = rng.nextInt(n); val b = (a + 1 + rng.nextInt(n - 1)) % n
          (math.min(a, b), math.max(a, b))
        }
        // Removals mostly hit a stored edge; some miss, which must be a no-op.
        if (ref.nonEmpty && rng.nextInt(5) < 2) {
          val (x, y) = if (rng.nextInt(4) == 0) (u, v) else ref.toSeq(rng.nextInt(ref.size))
          if (rng.nextBoolean()) adj.remove(x, y) else adj.remove(y, x)
          ref -= ((x, y))
        } else {
          if (rng.nextBoolean()) adj.add(u, v) else adj.add(v, u)
          ref += ((u, v))
        }
        assert(adj.nodes == ref.flatMap { case (a, b) => Seq(a, b) }.size, s"seed $seed step $step")
        for (x <- 0 until n; y <- 0 until n if x != y) {
          val got = visited(adj, x, y)
          assert(got.distinct.size == got.size, s"repeated visit at ($x, $y)")
          assert(got.toSet == refCommon(ref, x, y), s"seed $seed step $step ($x, $y)")
        }
      }
    }
  }

  test("removing a node's last neighbour leaves no empty entry behind") {
    val adj = new Adjacency
    adj.add(1, 2); adj.add(2, 3); adj.add(1, 3)
    assert(adj.nodes == 3)
    adj.remove(1, 2)
    assert(adj.nodes == 3)
    adj.remove(3, 1)
    assert(adj.nodes == 2)
    assert(visited(adj, 1, 2).isEmpty && visited(adj, 2, 1).isEmpty)
    adj.remove(2, 3)
    assert(adj.nodes == 0)
    adj.add(1, 2)
    assert(adj.nodes == 2)
  }
}
