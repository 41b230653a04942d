package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable
import scala.util.Random

class AdjacencySpec extends AnyFunSuite {

  /** An `Adjacency` addressed by original ids: they become dense ids on the
    * way in, handed out by one `DenseIds` in first-call order as
    * `StreamEngine` does, and a visit's dense ids become original ids again.
    */
  private final class Graph {
    val adj = new Adjacency
    val ids = new DenseIds
    def add(u: Int, v: Int): Boolean = adj.add(ids(u), ids(v))
    def remove(u: Int, v: Int): Unit = adj.remove(ids(u), ids(v))
    def nodes: Int = adj.nodes
    def forEachCommon(u: Int, v: Int)(visit: (Int, Int, Int) => Unit): Int = {
      val (du, dv, node) = (ids(u), ids(v), ids.original)
      adj.forEachCommon(du, dv, (a, b, w) => visit(node(a), node(b), node(w)))
    }
  }

  /** The common neighbours `forEachCommon` visits, in visit order, checking
    * that every visit carries the queried (u, v) and that the returned count
    * matches.
    */
  private def visited(g: Graph, u: Int, v: Int): List[Int] = {
    val seen = mutable.ListBuffer.empty[Int]
    val k = g.forEachCommon(u, v) { (a, b, w) =>
      assert(a == u && b == v, s"visit got ($a, $b) for ($u, $v)")
      seen += w
    }
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
      val adj = new Graph
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
    val adj = new Graph
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

  test("at scale: tables grow, deletions shift back, freed rows are reused, extreme ids work") {
    val rng = new Random(2024)
    val special = Array(0, -1, Int.MinValue, Int.MaxValue)
    val ids = (special.iterator ++ Iterator.continually(rng.nextInt()))
      .distinct.take(2000).toArray
    // Low indices (the special ids first) are picked most often: hubs with long rows.
    def pick(): Int = ids(math.min(rng.nextInt(ids.length), rng.nextInt(ids.length)))
    val adj = new Graph
    val ref = mutable.HashMap.empty[Int, mutable.Set[Int]]
    val stored = mutable.ArrayBuffer.empty[(Int, Int)]

    def add(u: Int, v: Int): Unit = {
      val isNew = !ref.get(u).exists(_.contains(v))
      assert(adj.add(u, v) == isNew, s"add($u, $v)")
      if (isNew) {
        ref.getOrElseUpdate(u, mutable.Set.empty) += v
        ref.getOrElseUpdate(v, mutable.Set.empty) += u
        stored += ((u, v))
      }
    }
    def removeAt(i: Int): Unit = {
      val (u, v) = stored(i)
      stored(i) = stored.last; stored.remove(stored.length - 1)
      if (rng.nextBoolean()) adj.remove(u, v) else adj.remove(v, u)
      for ((x, y) <- Seq((u, v), (v, u))) {
        ref(x) -= y
        if (ref(x).isEmpty) ref.remove(x)
      }
    }
    def check(phase: String): Unit = {
      assert(adj.nodes == ref.size, phase)
      val pairs = special.toSeq.flatMap(a => special.toSeq.map(b => (a, b))).filter(p => p._1 != p._2) ++
        Seq.fill(300)((pick(), pick())) ++
        Seq.fill(300)(stored(rng.nextInt(stored.length))) ++
        Seq.fill(300) {
          // Two neighbours of one node: pairs likely to share more neighbours.
          val (x, _) = stored(rng.nextInt(stored.length))
          val ns = ref(x).toIndexedSeq
          (ns(rng.nextInt(ns.size)), ns(rng.nextInt(ns.size)))
        }
      for ((x, y) <- pairs if x != y) {
        val got = visited(adj, x, y)
        val want = ref.getOrElse(x, mutable.Set.empty[Int]) intersect ref.getOrElse(y, mutable.Set.empty[Int])
        assert(got.distinct.size == got.size, s"$phase: repeated visit at ($x, $y)")
        assert(got.toSet == want, s"$phase ($x, $y)")
      }
    }

    // 1. Grow: 10,000 adds (some repeat an edge, in either order).
    for (_ <- 1 to 10000) {
      val u = pick(); val v = pick()
      if (u != v) { if (rng.nextInt(10) == 0 && stored.nonEmpty) { val (a, b) = stored(rng.nextInt(stored.length)); add(b, a) } else add(u, v) }
    }
    check("grow")
    // 2. Churn: 6,000 mixed adds and removes, with removes of absent edges.
    for (_ <- 1 to 6000) {
      if (rng.nextBoolean()) removeAt(rng.nextInt(stored.length))
      else {
        val u = pick(); val v = pick()
        if (u != v) {
          if (rng.nextInt(4) == 0 && !ref.get(u).exists(_.contains(v))) adj.remove(u, v) else add(u, v)
        }
      }
    }
    check("churn")
    // 3. Drain: remove 90 % of what is left, emptying most rows.
    for (_ <- 1 to stored.length * 9 / 10) removeAt(rng.nextInt(stored.length))
    check("drain")
    for (x <- special if ref.contains(x); y <- ref(x).toList) { // the extreme ids lose every edge
      stored -= ((x, y)); stored -= ((y, x))
      adj.remove(x, y); ref(x) -= y; ref(y) -= x
      if (ref(y).isEmpty) ref.remove(y)
    }
    special.foreach(ref.remove)
    check("specials gone")
    // 4. Refill: new edges reuse the freed rows, the extreme ids included.
    for (_ <- 1 to 3000) { val u = pick(); val v = pick(); if (u != v) add(u, v) }
    for (i <- special.indices; j <- special.indices if i < j) add(special(i), special(j))
    check("refill")
  }

  test("rows on either side of the scan cut-off: the visit follows the shorter row and finds every common neighbour") {
    // Row lengths around the cut-off of 16: both scanned, one side probed, both probed.
    val sizes = Seq((1, 1), (3, 16), (16, 16), (16, 17), (17, 16), (12, 40), (17, 40), (40, 40), (60, 33))
    for (((a, b), t) <- sizes.zipWithIndex; shared <- Seq(0, 1, 5, a min b).filter(_ <= (a min b)).distinct) {
      val g = new Graph
      val (u, v) = (-1000 - t, Int.MaxValue - t)
      val common = (0 until shared).map(i => 100 * i + 7)
      // Each row holds its own neighbours with the common ones spread through
      // it, the last common one at the end, so a scan one entry short misses it.
      def rowOf(x: Int, n: Int, tag: Int): Seq[Int] = {
        val own = (0 until n - shared).map(i => tag * 100000 + i)
        val mixed = own.zipWithIndex.flatMap { case (y, i) =>
          if (i % 3 == 0 && i / 3 < shared - 1) Seq(common(i / 3), y) else Seq(y)
        }
        val placed = mixed.filter(common.contains).toSet
        mixed ++ common.filterNot(placed) // what is left goes last
      }
      val nu = rowOf(u, a, 1)
      val nv = rowOf(v, b, 2)
      assert(nu.size == a && nv.size == b && nu.distinct.size == a)
      nu.foreach(w => g.add(u, w))
      nv.foreach(w => g.add(w, v))
      val shorter = if (a <= b) nu else nv
      val want = shorter.filter(common.contains).toList
      assert(visited(g, u, v) == want, s"|N(u)| = $a, |N(v)| = $b, $shared shared")
      assert(visited(g, v, u) == (if (b <= a) nv else nu).filter(common.contains).toList)
    }
  }

  test("a freed row taken by another node answers for that node only") {
    val g = new Graph
    g.add(5, 1); g.add(5, 2); g.add(10, 1); g.add(10, 2); g.add(10, 3)
    assert(visited(g, 10, 5) == List(1, 2))
    g.remove(10, 1); g.remove(2, 10); g.remove(10, 3) // 10 and 3 free their rows
    assert(g.nodes == 3)
    assert(visited(g, 10, 5).isEmpty && visited(g, 5, 10).isEmpty)
    g.add(20, 2); g.add(20, 4) // 20 and 4 take the freed rows
    assert(g.nodes == 5)
    assert(visited(g, 10, 5).isEmpty && visited(g, 10, 20).isEmpty)
    assert(visited(g, 20, 5) == List(2) && visited(g, 5, 20) == List(2))
    assert(visited(g, 1, 2) == List(5) && visited(g, 2, 4) == List(20))
    g.add(10, 4) // 10 comes back in a fresh row
    assert(visited(g, 10, 20) == List(4) && visited(g, 10, 5).isEmpty)
  }
}
