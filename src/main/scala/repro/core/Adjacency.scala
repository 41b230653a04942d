package repro.core

/** The stored graph of one streaming engine (REPT, MASCOT, Trièst, GPS) and
  * the common-neighbour walk that starts every engine's per-edge step. The
  * adjacency format and the intersection method are known only here.
  *
  * Nodes are named by their dense ids (`StreamEngine`) only: the edge set,
  * the rows, the signatures and the visits all use them. All of it is
  * primitive arrays:
  *  - an open-addressing set of canonical edge keys (`EdgeStream.key` of the
  *    dense ids), with backward-shift deletion; 0 marks a free slot. Only the
  *    self-loop (0, 0) has key 0; self-loops are never stored, and a probe for
  *    one (the walk makes it when u's row holds v) ends at a free slot, so
  *    finds nothing;
  *  - a row index: row + 1 per dense id, 0 for a node with no row;
  *  - one growable `Int` neighbour array per row, in insertion order, removed
  *    from by swapping in its last entry, and a 64-bit signature per row: the
  *    OR of `bit(w)` over the neighbours w ever added to it. A removal leaves
  *    the bit set, so the signature stays a superset of the row's bits. A node
  *    left with no neighbour gives its row back to a free list with a zero
  *    signature, so every node present has at least one stored neighbour.
  */
final class Adjacency {
  import Adjacency._

  private var edges = new Array[Long](16)
  private var edgeCount = 0

  private var rowOfId = new Array[Int](16) // node → row + 1; 0 = no row
  private var nodeCount = 0

  private var rows = new Array[Array[Int]](16)
  private var degree = new Array[Int](16)
  private var masks = new Array[Long](16)
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

  /** Drop the undirected edge (u, v) and any endpoint left with no
    * neighbour; a no-op if (u, v) is not stored.
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

  /** Calls `visit(u, v, w)` for every common neighbour w of u and v, in the
    * order of the shorter neighbour array, and returns their number.
    * Disjoint signatures mean no common neighbour. Otherwise
    * each w of the shorter array is looked up in the longer one: by a scan
    * when that has at most `ScanMax` entries, else by probing the edge set
    * for (w, other endpoint).
    */
  def forEachCommon(u: Int, v: Int, visit: Adjacency.Visitor): Int = {
    val ru = rowOf(u)
    val rv = rowOf(v)
    if (ru < 0 || rv < 0 || (masks(ru) & masks(rv)) == 0L) return 0
    val uShorter = degree(ru) <= degree(rv)
    val short = if (uShorter) ru else rv
    val long = if (uShorter) rv else ru
    val row = rows(short)
    val n = degree(short)
    var k = 0
    var i = 0
    if (degree(long) <= ScanMax) {
      val other = rows(long)
      val nOther = degree(long)
      while (i < n) {
        val w = row(i)
        var j = 0
        while (j < nOther && other(j) != w) j += 1
        if (j < nOther) { k += 1; visit(u, v, w) }
        i += 1
      }
    } else {
      val other = if (uShorter) v else u
      while (i < n) {
        val w = row(i)
        if (hasEdge(EdgeStream.key(w, other))) { k += 1; visit(u, v, w) }
        i += 1
      }
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

  // ---- rows ----

  /** Row of node x, or −1 if it has no stored neighbour. */
  private def rowOf(x: Int): Int = if (x < rowOfId.length) rowOfId(x) - 1 else -1

  private def rowOrNew(x: Int): Int = {
    if (x >= rowOfId.length)
      rowOfId = java.util.Arrays.copyOf(rowOfId, math.max(2 * rowOfId.length, x + 1))
    if (rowOfId(x) != 0) return rowOfId(x) - 1
    val r = if (freeCount > 0) { freeCount -= 1; freeRows(freeCount) } else newRow()
    rows(r) = new Array[Int](4)
    rowOfId(x) = r + 1
    nodeCount += 1
    r
  }

  private def newRow(): Int = {
    if (rowsUsed == rows.length) {
      rows = java.util.Arrays.copyOf(rows, rowsUsed * 2)
      degree = java.util.Arrays.copyOf(degree, rowsUsed * 2)
      masks = java.util.Arrays.copyOf(masks, rowsUsed * 2)
      freeRows = java.util.Arrays.copyOf(freeRows, rowsUsed * 2)
    }
    rowsUsed += 1
    rowsUsed - 1
  }

  private def append(r: Int, w: Int): Unit = {
    val d = degree(r)
    if (d == rows(r).length) rows(r) = java.util.Arrays.copyOf(rows(r), d * 2)
    rows(r)(d) = w
    degree(r) = d + 1
    masks(r) |= bit(w)
  }

  /** Remove y from the row of x (the two are stored neighbours of each
    * other).
    */
  private def unlink(x: Int, y: Int): Unit = {
    val r = rowOfId(x) - 1
    val row = rows(r)
    val d = degree(r) - 1
    var i = 0
    while (row(i) != y) i += 1
    row(i) = row(d)
    degree(r) = d
    if (d > 0) return
    // The node has no neighbour left: free its row.
    rows(r) = null
    masks(r) = 0L
    freeRows(freeCount) = r; freeCount += 1
    rowOfId(x) = 0
    nodeCount -= 1
  }
}

object Adjacency {
  /** Per-common-neighbour callback of `forEachCommon`, given the dense ids
    * of the queried pair and of the neighbour; primitive arguments, so a
    * visit allocates nothing.
    */
  trait Visitor {
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

  /** Longest row that `forEachCommon` scans instead of probing the edge set. */
  private final val ScanMax = 16

  /** A node's bit in a row signature: the top 6 bits of a golden-ratio
    * multiply.
    */
  private def bit(w: Int): Long = 1L << ((w * 0x9e3779b9) >>> 26)
}
