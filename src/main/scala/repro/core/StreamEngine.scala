package repro.core

/** A one-pass streaming triangle-count engine: `processEdge` is its per-edge
  * step, and every engine reads a packed stream through the same loop, once.
  *
  * This is where original node ids end. Each edge reaches the step as its
  * packed stream key, the edge's hash identity in original ids, and the dense
  * ids of its two endpoints; below the step, `Adjacency` and every counter
  * and sample are keyed by dense ids only. The dense ids and the dense →
  * original table come from one `EdgeStream.Relabel`, handed to the engine's
  * one pass; an engine turns a dense id back into its node id with
  * `original` when it reports.
  */
trait StreamEngine {

  /** Process one stream edge with packed key `edge` whose endpoints have
    * dense ids (u, v).
    */
  protected def processEdge(edge: Long, u: Int, v: Int): Unit

  private var relabelled: Array[Int] = _ // the pass's dense → original table

  /** The node id that has dense id d. */
  protected final def original(d: Int): Int = relabelled(d)

  /** The one pass of a fresh engine over `stream`, relabelling it first. */
  final def processStream(stream: Array[Long]): this.type = processStream(stream, EdgeStream.relabel(stream))

  /** The one pass of a fresh engine over `stream`, with dense ids from the
    * run's `dense = EdgeStream.relabel(stream)`.
    */
  final def processStream(stream: Array[Long], dense: EdgeStream.Relabel): this.type = {
    require(relabelled == null, "an engine makes one pass")
    require(dense.pairs.length == stream.length, "the relabel is of another stream")
    relabelled = dense.original
    var i = 0
    while (i < stream.length) {
      val d = dense.pairs(i)
      processEdge(stream(i), EdgeStream.keyU(d), EdgeStream.keyV(d))
      i += 1
    }
    this
  }
}
