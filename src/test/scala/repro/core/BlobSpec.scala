package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref

class BlobSpec extends AnyFunSuite {

  private val extreme = Ref.extremeIdEdges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  /** A record's fields, with each array as a sequence so that `==` compares contents. */
  private def fields(p: Product): Seq[Any] = p.productIterator.map {
    case a: Array[_] => a.toSeq
    case x => x
  }.toSeq

  /** States and counters of an empty pass, and of passes over the extreme-id
    * fixture with η tracking off and on, at m = 1 (every edge stored).
    */
  private lazy val records: Seq[(ReptProcessor.State, ReptProcessor.Counters)] =
    Seq(Array.emptyLongArray -> false, extreme -> false, extreme -> true).map { case (stream, eta) =>
      val p = new ReptProcessor(1, 0, 3, eta).processStream(stream)
      (p.state(stream.length), p.counters(locals = true))
    }

  test("State and Counters round-trip through their bytes: empty arrays, eta off, extreme ids") {
    val Seq(empty, etaOff, etaOn) = records
    assert(fields(empty._1).collect { case a: Seq[_] => a }.forall(_.isEmpty))
    assert(etaOff._1.etaV.isEmpty && etaOff._1.tauEdge.isEmpty && etaOn._1.tauEdge.nonEmpty)
    for (id <- Seq(Int.MinValue, -1, 0, Int.MaxValue)) assert(etaOn._2.nodes.contains(id), s"node $id")
    assert(etaOn._1.edges.contains(EdgeStream.key(Int.MinValue, Int.MaxValue)))
    // Header values at the ends of Long's range.
    val edge = ReptProcessor.State(Long.MaxValue, Long.MinValue, -1L, 0L, Array(Int.MinValue), Array(Long.MinValue),
      Array(Long.MaxValue), Array(-1L), Array(Long.MinValue))
    for (s <- records.map(_._1) :+ edge)
      assert(fields(ReptProcessor.State.fromBytes(s.toBytes)) == fields(s))
    for (c <- records.map(_._2))
      assert(fields(ReptProcessor.Counters.fromBytes(c.toBytes)) == fields(c))
  }

  test("a cut, padded or corrupt blob throws instead of decoding") {
    val (state, counters) = records.last
    for ((bytes, decode) <- Seq[(Array[Byte], Array[Byte] => Any)](
           state.toBytes -> ReptProcessor.State.fromBytes, counters.toBytes -> ReptProcessor.Counters.fromBytes)) {
      for (cut <- 0 until bytes.length) intercept[RuntimeException](decode(bytes.take(cut)))
      intercept[IllegalArgumentException](decode(bytes :+ 0.toByte))
    }
    // The length of `nodes` follows the 4-long header; a negative or an
    // oversized one is refused before any array is allocated.
    for (n <- Seq(-1, Int.MaxValue)) {
      val bytes = state.toBytes
      java.nio.ByteBuffer.wrap(bytes).order(java.nio.ByteOrder.LITTLE_ENDIAN).putInt(32, n)
      intercept[IllegalArgumentException](ReptProcessor.State.fromBytes(bytes))
    }
  }
}
