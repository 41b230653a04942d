package repro.core

/** A one-pass streaming triangle-count engine: `processEdge` is its per-edge
  * step, and every engine reads a packed stream through the same loop.
  *
  * Each edge reaches the step with both ids of each endpoint: the original
  * ids (u, v), which the edge set, visits and counters use, and dense ids
  * (du, dv), which `Adjacency` finds rows by. A pass handed a run's
  * `EdgeStream.Relabel` reads them from it; the entry points handed only
  * original ids draw them from the engine's own `DenseIds`, made on first
  * use and kept (and checkpointed) with the engine, so that successive calls
  * and `ReptProcessor.restore` share one id space. The two sources never mix
  * on one engine.
  */
trait StreamEngine {

  /** Process one stream edge (u, v) whose endpoints have dense ids (du, dv). */
  protected def processEdge(u: Int, v: Int, du: Int, dv: Int): Unit

  private var ownIds: DenseIds = _
  private var relabelled = false

  /** The engine's own dense ids. */
  protected final def denseIds: DenseIds = {
    if (ownIds == null) {
      require(!relabelled, "this engine took its dense ids from a relabel")
      ownIds = new DenseIds
    }
    ownIds
  }

  /** Process one stream edge. */
  final def processEdge(u: Int, v: Int): Unit = {
    val ids = denseIds
    processEdge(u, v, ids(u), ids(v))
  }

  /** One pass over a packed-key edge stream, continuing the engine's own
    * dense ids.
    */
  final def processStream(stream: Array[Long]): this.type = pass(stream, denseIds.pairs(stream))

  /** The one pass of a fresh engine over `stream`, with dense ids from the
    * run's `dense = EdgeStream.relabel(stream)`.
    */
  final def processStream(stream: Array[Long], dense: EdgeStream.Relabel): this.type = {
    require(ownIds == null && !relabelled, "a relabelled pass needs a fresh engine")
    require(dense.pairs.length == stream.length, "the relabel is of another stream")
    relabelled = true
    pass(stream, dense.pairs)
  }

  /** Feeds stream(i) with the dense pair pairs(i), in stream order. */
  private def pass(stream: Array[Long], pairs: Array[Long]): this.type = {
    var i = 0
    while (i < stream.length) {
      val e = stream(i)
      val d = pairs(i)
      processEdge(EdgeStream.keyU(e), EdgeStream.keyV(e), EdgeStream.keyU(d), EdgeStream.keyV(d))
      i += 1
    }
    this
  }
}
