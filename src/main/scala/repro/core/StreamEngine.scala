package repro.core

/** A one-pass streaming triangle-count engine: `processEdge` is its per-edge
  * step, and every engine reads a packed stream through the same loop.
  */
trait StreamEngine {

  /** Process one stream edge. */
  def processEdge(u: Int, v: Int): Unit

  /** One pass over a packed-key edge stream. */
  final def processStream(stream: Array[Long]): this.type = {
    var i = 0
    while (i < stream.length) {
      val e = stream(i)
      processEdge(EdgeStream.keyU(e), EdgeStream.keyV(e))
      i += 1
    }
    this
  }
}
