package repro.core

/** A one-pass streaming triangle-count engine: `processEdge` is its per-edge
  * step, and every engine reads a packed stream through the same loop.
  *
  * This is where original node ids end. Each edge reaches the step as its
  * packed stream key, the edge's hash identity in original ids, and the dense
  * ids of its two endpoints; below the step, `Adjacency` and every counter
  * and sample are keyed by dense ids only. An engine turns a dense id back
  * into its node id with `original` when it reports. A pass handed a run's
  * `EdgeStream.Relabel` takes the dense ids and the dense → original table
  * from it; the entry points handed only original ids draw them from the
  * engine's own `DenseIds`, made on first use and kept (and checkpointed)
  * with the engine, so that successive calls and `ReptProcessor.restore`
  * share one id space. The two sources never mix on one engine.
  */
trait StreamEngine {

  /** Process one stream edge with packed key `edge` whose endpoints have
    * dense ids (u, v).
    */
  protected def processEdge(edge: Long, u: Int, v: Int): Unit

  private var ownIds: DenseIds = _
  private var relabelled: Array[Int] = _ // a relabel's dense → original table

  /** The engine's own dense ids. */
  protected final def denseIds: DenseIds = {
    if (ownIds == null) {
      require(relabelled == null, "this engine took its dense ids from a relabel")
      ownIds = new DenseIds
    }
    ownIds
  }

  /** The node id that has dense id d. */
  protected final def original(d: Int): Int =
    if (relabelled != null) relabelled(d) else ownIds.node(d)

  /** Process one stream edge (u, v), in original ids. */
  final def processEdge(u: Int, v: Int): Unit = {
    val ids = denseIds
    processEdge(EdgeStream.key(u, v), ids(u), ids(v))
  }

  /** One pass over a packed-key edge stream, continuing the engine's own
    * dense ids.
    */
  final def processStream(stream: Array[Long]): this.type = pass(stream, denseIds.pairs(stream))

  /** The one pass of a fresh engine over `stream`, with dense ids from the
    * run's `dense = EdgeStream.relabel(stream)`.
    */
  final def processStream(stream: Array[Long], dense: EdgeStream.Relabel): this.type = {
    require(ownIds == null && relabelled == null, "a relabelled pass needs a fresh engine")
    require(dense.pairs.length == stream.length, "the relabel is of another stream")
    relabelled = dense.original
    pass(stream, dense.pairs)
  }

  /** Feeds stream(i) with the dense pair pairs(i), in stream order. */
  private def pass(stream: Array[Long], pairs: Array[Long]): this.type = {
    var i = 0
    while (i < stream.length) {
      val d = pairs(i)
      processEdge(stream(i), EdgeStream.keyU(d), EdgeStream.keyV(d))
      i += 1
    }
    this
  }
}
