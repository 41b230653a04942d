package repro.core

/** One REPT processor (Algorithm 1 / Algorithm 2 of the paper).
  *
  * The processor *observes* every edge of the stream but *stores* only edges
  * whose shared-hash slot equals `slotId` (expected p = 1/m fraction). On each
  * arriving edge (u,v) it counts the semi-triangles closed by (u,v) — the
  * common neighbours of u and v in its stored graph — updating the global
  * counter τ⁽ⁱ⁾ and the local counters τ_v⁽ⁱ⁾; then, if h(u,v) = slotId, it
  * inserts (u,v).
  *
  * When `trackEta` is set it additionally maintains the triangle-pair
  * counters of Algorithm 2: per-stored-edge triangle multiplicities τ_(u,v)⁽ⁱ⁾
  * and the pair counts η⁽ⁱ⁾, η_v⁽ⁱ⁾ needed by the c > m estimator.
  *
  * Memory is O(|E⁽ⁱ⁾|) plus the counter maps, matching the paper's per-
  * processor budget. Strictly one pass; self-loops are ignored; the stream is
  * assumed duplicate-free (as in the paper's model), but a repeated edge is
  * still stored, and counted in |E⁽ⁱ⁾|, only once.
  *
  * The slot hash reads the stream's packed key; the stored graph and the
  * τ_v, η_v and τ_(u,v) tables are keyed by dense ids (`StreamEngine`). Every
  * report (`tauV`, `etaV`, `tauEdgeCounters`, `counters`, `state`) names
  * nodes and edges by their original ids.
  */
final class ReptProcessor(
    val m: Int,
    val slotId: Int,
    val hashSeed: Long,
    val trackEta: Boolean = false,
) extends StreamEngine {
  require(slotId >= 0 && slotId < m, s"slotId $slotId outside [0,$m)")

  val hasher = new EdgeHasher(m, hashSeed)

  private val adj = new Adjacency
  private var tauCnt: Long = 0L
  private var etaCnt: Long = 0L
  private val tauVCnt  = new LongCounts
  private val etaVCnt  = new LongCounts
  private val tauEdge  = new LongCounts
  private var stored: Long = 0L

  /** Number of semi-triangles counted so far (τ⁽ⁱ⁾). */
  def tau: Long = tauCnt

  /** Triangle-pair counter η⁽ⁱ⁾ (only meaningful when trackEta). */
  def eta: Long = etaCnt

  /** Per-node semi-triangle counts τ_v⁽ⁱ⁾ (nodes with zero count omitted). */
  def tauV: collection.Map[Int, Long] = tauVCnt.toMap.map { case (d, n) => (original(d.toInt), n) }

  /** Per-node pair counts η_v⁽ⁱ⁾ (only meaningful when trackEta). */
  def etaV: collection.Map[Int, Long] = etaVCnt.toMap.map { case (d, n) => (original(d.toInt), n) }

  /** Per-stored-edge triangle multiplicities τ_(u,v)⁽ⁱ⁾ keyed by packed edge. */
  def tauEdgeCounters: collection.Map[Long, Long] = tauEdge.toMap.map { case (k, n) => (originalKey(k), n) }

  /** Number of edges currently stored in E⁽ⁱ⁾. */
  def sampledEdges: Long = stored

  /** This processor's counters as one compact record; the per-node arrays
    * are left empty unless `locals` is set.
    */
  def counters(locals: Boolean): ReptProcessor.Counters = {
    // Every node with an η_v entry also has a (positive) τ_v entry.
    val n = if (locals) tauVCnt.size else 0
    val nodes = new Array[Int](n)
    val tauV = new Array[Long](n)
    val etaV = new Array[Long](n)
    if (locals) {
      var j = 0
      tauVCnt.foreachEntry { (d, x) =>
        nodes(j) = original(d.toInt); tauV(j) = x; etaV(j) = etaVCnt(d); j += 1
      }
    }
    ReptProcessor.Counters(tauCnt, etaCnt, stored, nodes, tauV, etaV)
  }

  /** This processor's whole state as flat arrays, with `seen` carried along
    * for the caller: `resume` on a fresh processor of the same
    * (m, slotId, hashSeed, trackEta) continues from it exactly.
    */
  def state(seen: Long): ReptProcessor.State = {
    val c = counters(locals = true)
    val edges = adj.edgeKeys
    ReptProcessor.State(seen, c.tau, c.eta, c.stored, c.nodes, c.tauV,
      if (trackEta) c.etaV else Array.emptyLongArray, edges.map(originalKey),
      if (trackEta) edges.map(tauEdge(_)) else Array.emptyLongArray)
  }

  /** The one pass of this fresh processor over `batch`, continuing from
    * `s`: a pass over the stream cut at `s.seen` followed by this one ends
    * with the counters of one pass over both. The stored edges, then the
    * other counted nodes, then the batch's endpoints take dense ids from one
    * `DenseIds`; it and each counter table are sized once, from the state's
    * and the batch's lengths.
    */
  def resume(s: ReptProcessor.State, batch: Array[Long]): this.type = {
    require(tauCnt == 0L && stored == 0L, "resume needs a fresh processor")
    tauCnt = s.tau
    etaCnt = s.eta
    stored = s.stored
    tauVCnt.reserve(s.nodes.length)
    if (trackEta) { etaVCnt.reserve(s.nodes.length); tauEdge.reserve(s.edges.length) }
    val ids = new DenseIds
    ids.reserve(2 * s.edges.length + s.nodes.length + 2 * batch.length)
    var j = 0
    while (j < s.edges.length) {
      val u = ids(EdgeStream.keyU(s.edges(j)))
      val v = ids(EdgeStream.keyV(s.edges(j)))
      adj.add(u, v)
      if (trackEta) tauEdge(EdgeStream.key(u, v)) = s.tauEdge(j)
      j += 1
    }
    j = 0
    while (j < s.nodes.length) {
      val d = ids(s.nodes(j))
      tauVCnt(d) = s.tauV(j)
      if (trackEta) etaVCnt(d) = s.etaV(j)
      j += 1
    }
    processStream(batch, EdgeStream.Relabel(ids.pairs(batch), ids.original))
  }

  /** The packed key, in original ids, of the edge with dense key k. */
  private def originalKey(k: Long): Long =
    EdgeStream.key(original(EdgeStream.keyU(k)), original(EdgeStream.keyV(k)))

  /** Counts the semi-triangle (u, v, w) at w and, with η tracking, pairs it
    * with the earlier triangles on its edges (u, w) and (v, w).
    */
  private val closeSemi: Adjacency.Visitor = (u, v, w) => {
    tauVCnt.add(w, 1)
    if (trackEta) {
      val kuw = EdgeStream.key(u, w)
      val kvw = EdgeStream.key(v, w)
      val tuw = tauEdge(kuw)
      val tvw = tauEdge(kvw)
      etaCnt += tuw + tvw
      etaVCnt.add(w, tuw + tvw)
      etaVCnt.add(u, tuw)
      etaVCnt.add(v, tvw)
      tauEdge(kuw) = tuw + 1
      tauEdge(kvw) = tvw + 1
    }
  }

  /** Process one stream edge (counting precedes the sampling decision,
    * exactly as in Algorithms 1–2).
    */
  protected def processEdge(edge: Long, u: Int, v: Int): Unit = {
    if (u == v) return
    val k = adj.forEachCommon(u, v, closeSemi)
    if (k > 0) {
      tauCnt += k
      tauVCnt.add(u, k)
      tauVCnt.add(v, k)
    }
    if (hasher.slot(edge) == slotId) {
      if (adj.add(u, v)) stored += 1
      // τ_(u,v) starts at |N_{u,v}⁽ⁱ⁾| — the semi-triangles (u,v) just closed.
      if (trackEta) tauEdge(EdgeStream.key(u, v)) = k.toLong
    }
  }
}

object ReptProcessor {
  /** A processor's finished counters: τ⁽ⁱ⁾, η⁽ⁱ⁾, the stored-edge count
    * |E⁽ⁱ⁾|, and τ_v⁽ⁱ⁾ / η_v⁽ⁱ⁾ as arrays parallel to `nodes`.
    */
  final case class Counters(tau: Long, eta: Long, stored: Long,
                            nodes: Array[Int], tauV: Array[Long], etaV: Array[Long]) {
    /** `tau, eta, stored`, then `nodes`, `tauV` and `etaV` (`Blob`). */
    def toBytes: Array[Byte] = Blob.encode(Array(tau, eta, stored), nodes, tauV, etaV)
  }

  object Counters {
    def fromBytes(bytes: Array[Byte]): Counters =
      Blob.decode(bytes)(r => Counters(r.long(), r.long(), r.long(), r.ints(), r.longs(), r.longs()))
  }

  /** A processor's whole state (`ReptProcessor.state`), flat and in
    * original ids, so it does not depend on the dense ids: `seen`, the
    * counters as in `Counters` with every τ_v⁽ⁱ⁾ entry, the stored edge keys
    * E⁽ⁱ⁾ and τ_(u,v)⁽ⁱ⁾ parallel to them. `etaV` and `tauEdge` are empty
    * without η tracking.
    */
  final case class State(seen: Long, tau: Long, eta: Long, stored: Long,
                         nodes: Array[Int], tauV: Array[Long], etaV: Array[Long],
                         edges: Array[Long], tauEdge: Array[Long]) {
    /** `seen, tau, eta, stored`, then `nodes`, `tauV`, `etaV`, `edges` and
      * `tauEdge` (`Blob`).
      */
    def toBytes: Array[Byte] = Blob.encode(Array(seen, tau, eta, stored), nodes, tauV, etaV, edges, tauEdge)
  }

  object State {
    def fromBytes(bytes: Array[Byte]): State = Blob.decode(bytes)(r =>
      State(r.long(), r.long(), r.long(), r.long(), r.ints(), r.longs(), r.longs(), r.longs(), r.longs()))
  }
}
