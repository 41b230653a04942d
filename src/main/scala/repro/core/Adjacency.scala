package repro.core

/** The stored graph of one streaming engine (REPT, MASCOT, Trièst, GPS) and
  * the common-neighbour walk that starts every engine's per-edge step. The
  * adjacency format and the intersection method are known only here.
  *
  * All of it is primitive arrays:
  *  - an open-addressing set of canonical edge keys (`EdgeStream.key`), with
  *    backward-shift deletion; 0 marks a free slot. Only the self-loop (0, 0)
  *    has key 0; self-loops are never stored, and a probe for one (the walk
  *    makes it when u's row holds v) ends at a free slot, so finds nothing;
  *  - an open-addressing node → row index; a slot is free when its row is 0,
  *    so every `Int` is a valid node id;
  *  - one growable `Int` neighbour array per row, in insertion order, removed
  *    from by swapping in its last entry. A node left with no neighbour gives
  *    its row back to a free list, so every node present has at least one
  *    stored neighbour.
  */
final class Adjacency extends Serializable {
  import Adjacency._

  private var edges = new Array[Long](16)
  private var edgeCount = 0

  private var nodeKeys = new Array[Int](16)
  private var nodeRows = new Array[Int](16) // row + 1; 0 = free slot
  private var nodeCount = 0

  private var rows = new Array[Array[Int]](16)
  private var degree = new Array[Int](16)
  private var rowsUsed = 0
  private var freeRows = new Array[Int](16)
  private var freeCount = 0

  /** Store the undirected edge (u, v); false if it was already stored. */
  def add(u: Int, v: Int): Boolean = {
    require(u != v, s"self-loop ($u, $u)")
    if (!insertEdge(EdgeStream.key(u, v))) return false
    append(rowOrNew(u), v)
    append(rowOrNew(v), u)
    true
  }

  /** Drop the undirected edge (u, v), and any endpoint left with no neighbour;
    * a no-op if (u, v) is not stored.
    */
  def remove(u: Int, v: Int): Unit =
    if (deleteEdge(EdgeStream.key(u, v))) { unlink(u, v); unlink(v, u) }

  /** The stored edges' keys, in table order. */
  def edgeKeys: Array[Long] = {
    val out = new Array[Long](edgeCount)
    var n = 0
    var i = 0
    while (i < edges.length) {
      if (edges(i) != 0L) { out(n) = edges(i); n += 1 }
      i += 1
    }
    out
  }

  /** Number of nodes with at least one stored neighbour. */
  def nodes: Int = nodeCount

  /** Calls `visit(u, v, w)` for every common neighbour w of u and v, walking
    * the shorter neighbour array and probing the edge set for (w, other
    * endpoint); returns their number.
    */
  def forEachCommon(u: Int, v: Int, visit: Adjacency.Visitor): Int = {
    val ru = rowOf(u)
    val rv = rowOf(v)
    if (ru < 0 || rv < 0) return 0
    val uShorter = degree(ru) <= degree(rv)
    val row = if (uShorter) rows(ru) else rows(rv)
    val n = if (uShorter) degree(ru) else degree(rv)
    val other = if (uShorter) v else u
    var k = 0
    var i = 0
    while (i < n) {
      val w = row(i)
      if (hasEdge(EdgeStream.key(w, other))) { k += 1; visit(u, v, w) }
      i += 1
    }
    k
  }

  // ---- edge set ----

  /** Slot of an edge key in the set, or of the free slot where it would go. */
  private def edgeSlot(key: Long): Int = {
    val mask = edges.length - 1
    var i = mixLong(key) & mask
    while (edges(i) != 0L && edges(i) != key) i = (i + 1) & mask
    i
  }

  private def hasEdge(key: Long): Boolean = edges(edgeSlot(key)) != 0L

  private def insertEdge(key: Long): Boolean = {
    val i = edgeSlot(key)
    if (edges(i) != 0L) return false
    edges(i) = key
    edgeCount += 1
    if (2 * edgeCount > edges.length - 1) {
      val old = edges
      edges = new Array[Long](old.length * 2)
      for (e <- old if e != 0L) edges(edgeSlot(e)) = e
    }
    true
  }

  private def deleteEdge(key: Long): Boolean = {
    var i = edgeSlot(key)
    if (edges(i) == 0L) return false
    // Backward shift: pull later entries of the probe run into the hole when
    // the hole lies between their home slot and where they sit.
    val mask = edges.length - 1
    var j = i
    while ({ j = (j + 1) & mask; edges(j) != 0L }) {
      if (((j - (mixLong(edges(j)) & mask)) & mask) >= ((j - i) & mask)) {
        edges(i) = edges(j); i = j
      }
    }
    edges(i) = 0L
    edgeCount -= 1
    true
  }

  // ---- node index ----

  /** Slot of node x in the index, or of the free slot where it would go. */
  private def nodeSlot(x: Int): Int = {
    val mask = nodeKeys.length - 1
    var i = mixInt(x) & mask
    while (nodeRows(i) != 0 && nodeKeys(i) != x) i = (i + 1) & mask
    i
  }

  /** Row of node x, or −1 if x has no stored neighbour. */
  private def rowOf(x: Int): Int = nodeRows(nodeSlot(x)) - 1

  private def rowOrNew(x: Int): Int = {
    val s = nodeSlot(x)
    if (nodeRows(s) != 0) return nodeRows(s) - 1
    val r = if (freeCount > 0) { freeCount -= 1; freeRows(freeCount) } else newRow()
    rows(r) = new Array[Int](4)
    nodeKeys(s) = x; nodeRows(s) = r + 1
    nodeCount += 1
    if (2 * nodeCount > nodeKeys.length - 1) growNodes()
    r
  }

  private def newRow(): Int = {
    if (rowsUsed == rows.length) {
      rows = java.util.Arrays.copyOf(rows, rowsUsed * 2)
      degree = java.util.Arrays.copyOf(degree, rowsUsed * 2)
      freeRows = java.util.Arrays.copyOf(freeRows, rowsUsed * 2)
    }
    rowsUsed += 1
    rowsUsed - 1
  }

  private def growNodes(): Unit = {
    val (oldKeys, oldRows) = (nodeKeys, nodeRows)
    nodeKeys = new Array[Int](oldKeys.length * 2)
    nodeRows = new Array[Int](oldRows.length * 2)
    var i = 0
    while (i < oldKeys.length) {
      if (oldRows(i) != 0) {
        val s = nodeSlot(oldKeys(i))
        nodeKeys(s) = oldKeys(i); nodeRows(s) = oldRows(i)
      }
      i += 1
    }
  }

  private def append(r: Int, w: Int): Unit = {
    val d = degree(r)
    if (d == rows(r).length) rows(r) = java.util.Arrays.copyOf(rows(r), d * 2)
    rows(r)(d) = w
    degree(r) = d + 1
  }

  /** Remove y from x's row (both are stored neighbours of each other). */
  private def unlink(x: Int, y: Int): Unit = {
    var s = nodeSlot(x)
    val r = nodeRows(s) - 1
    val row = rows(r)
    val d = degree(r) - 1
    var i = 0
    while (row(i) != y) i += 1
    row(i) = row(d)
    degree(r) = d
    if (d > 0) return
    // x has no neighbour left: free its row and delete it from the index.
    rows(r) = null
    freeRows(freeCount) = r; freeCount += 1
    nodeCount -= 1
    val mask = nodeKeys.length - 1
    var j = s
    while ({ j = (j + 1) & mask; nodeRows(j) != 0 }) {
      if (((j - (mixInt(nodeKeys(j)) & mask)) & mask) >= ((j - s) & mask)) {
        nodeKeys(s) = nodeKeys(j); nodeRows(s) = nodeRows(j); s = j
      }
    }
    nodeRows(s) = 0
  }
}

object Adjacency {
  /** Per-common-neighbour callback of `forEachCommon`; primitive arguments,
    * so a visit allocates nothing.
    */
  trait Visitor extends Serializable {
    def apply(u: Int, v: Int, w: Int): Unit
  }

  /** Hash spreaders for open addressing (golden-ratio multiply, then fold the
    * high bits down so that masking the low bits sees them).
    */
  private[core] def mixLong(x: Long): Int = {
    val h = x * 0x9e3779b97f4a7c15L
    val g = h ^ (h >>> 32)
    (g ^ (g >>> 16)).toInt
  }

  private[core] def mixInt(x: Int): Int = {
    val h = x * 0x9e3779b9
    h ^ (h >>> 16)
  }
}
