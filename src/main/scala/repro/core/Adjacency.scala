package repro.core

import scala.collection.mutable

/** The stored graph of one streaming engine (REPT, MASCOT, Trièst, GPS) and
  * the common-neighbour walk that starts every engine's per-edge step. The
  * adjacency format and the intersection method are known only here.
  *
  * Every node present has at least one stored neighbour.
  */
final class Adjacency extends Serializable {
  private val adj = mutable.HashMap.empty[Int, mutable.HashSet[Int]]

  /** Store the undirected edge (u, v). */
  def add(u: Int, v: Int): Unit = {
    adj.getOrElseUpdate(u, mutable.HashSet.empty) += v
    adj.getOrElseUpdate(v, mutable.HashSet.empty) += u
  }

  /** Drop the undirected edge (u, v), and any endpoint left with no neighbour. */
  def remove(u: Int, v: Int): Unit = { unlink(u, v); unlink(v, u) }

  private def unlink(x: Int, y: Int): Unit = {
    val s = adj.getOrElse(x, null)
    if (s != null) { s -= y; if (s.isEmpty) adj.remove(x) }
  }

  /** Number of nodes with at least one stored neighbour. */
  def nodes: Int = adj.size

  /** Calls `visit(u, v, w)` for every common neighbour w of u and v, walking
    * the smaller neighbour set and probing the larger; returns their number.
    */
  def forEachCommon(u: Int, v: Int, visit: Adjacency.Visitor): Int = {
    val nu = adj.getOrElse(u, null)
    val nv = adj.getOrElse(v, null)
    if (nu == null || nv == null) return 0
    val small = if (nu.size <= nv.size) nu else nv
    val big = if (small eq nu) nv else nu
    var k = 0
    val it = small.iterator
    while (it.hasNext) {
      val w = it.next()
      if (big.contains(w)) { k += 1; visit(u, v, w) }
    }
    k
  }
}

object Adjacency {
  /** Per-common-neighbour callback of `forEachCommon`; primitive arguments,
    * so a visit allocates nothing.
    */
  trait Visitor extends Serializable {
    def apply(u: Int, v: Int, w: Int): Unit
  }
}
