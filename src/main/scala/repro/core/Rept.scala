package repro.core

import scala.collection.mutable

/** Sequential (single-JVM) REPT driver: runs the c processors of
  * Layout(m, c) one after another over the stream and combines their
  * counters into the paper's global and local estimates. The Spark runner
  * (`ReptSpark`) runs the same processors as tasks and the same `combine` on
  * the driver, so the two agree bit for bit for the same seed.
  */
object Rept {

  /** Full output of one REPT run. `tauVHat` holds only nodes with a nonzero
    * counter; absent nodes estimate 0. `perProcStored` is |E⁽ⁱ⁾|, the edges
    * processor i stored (about |E|/m each).
    */
  final case class Result(
      m: Int,
      c: Int,
      tauHat: Double,
      tauVHat: Map[Int, Double],
      perProcTau: Array[Long],
      perProcEta: Array[Long],
      perProcStored: Array[Long],
  )

  /** Deterministic per-group hash seed: groups must be mutually independent. */
  def groupSeed(baseSeed: Long, group: Int): Long =
    EdgeStream.mix64(baseSeed ^ (0x5851f42d4c957f2dL * (group + 1)))

  /** Processor i of any REPT(1/m, c) run: slot i mod m of group i / m (for
    * c ≤ m, slot i of the single group 0), tracking η when `trackEta` is set.
    */
  def processor(m: Int, seed: Long, i: Int, trackEta: Boolean): ReptProcessor =
    new ReptProcessor(m, i % m, groupSeed(seed, i / m), trackEta)

  /** Processor i of Layout(m, c), tracking η when the layout needs it. */
  def processor(lay: ReptEstimator.Layout, seed: Long, i: Int): ReptProcessor =
    processor(lay.m, seed, i, lay.needsEta)

  /** Run REPT(p = 1/m, c) over a packed-key stream; its one relabel is
    * shared by the c processors.
    */
  def run(stream: Array[Long], m: Int, c: Int, seed: Long, locals: Boolean = true): Result = {
    val lay = ReptEstimator.Layout(m, c)
    val dense = EdgeStream.relabel(stream)
    combine(lay, (0 until c).map(i =>
      processor(lay, seed, i).processStream(stream, dense).counters(locals)))
  }

  /** Combine the c processors' counters (in processor order) into estimates.
    * Shared by every REPT driver: sequential, Spark and streaming.
    */
  def combine(lay: ReptEstimator.Layout, procs: Seq[ReptProcessor.Counters]): Result = {
    require(procs.length == lay.c, s"expected ${lay.c} processors, got ${procs.length}")
    val perProcTau = procs.map(_.tau).toArray
    val perProcEta = procs.map(_.eta).toArray
    val tauHat = ReptEstimator.estimateGlobal(lay.m, lay.c, perProcTau.toIndexedSeq,
      perProcEta.toIndexedSeq)
    Result(lay.m, lay.c, tauHat, localEstimates(lay, procs), perProcTau, perProcEta,
      procs.map(_.stored).toArray)
  }

  /** Per-node estimates from the processors' local counters: per node, the
    * τ_v sums over full-group and remaining processors and the η_v sum, fed
    * to `ReptEstimator.estimate`.
    */
  def localEstimates(lay: ReptEstimator.Layout, procs: Seq[ReptProcessor.Counters]): Map[Int, Double] = {
    val full = lay.c1 * lay.m
    val sums = mutable.LongMap.empty[Array[Long]]
    for ((p, i) <- procs.iterator.zipWithIndex; j <- p.nodes.indices) {
      val s = sums.getOrElseUpdate(p.nodes(j).toLong, new Array[Long](3))
      s(if (i < full) 0 else 1) += p.tauV(j)
      s(2) += p.etaV(j)
    }
    sums.iterator.map { case (v, s) => v.toInt -> ReptEstimator.estimate(lay, s(0), s(1), s(2)) }.toMap
  }
}
