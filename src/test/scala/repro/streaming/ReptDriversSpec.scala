package repro.streaming

import repro.{Ref, SparkSpec}
import repro.core.{EdgeStream, Rept, ReptSpark}

/** The three REPT drivers on the layouts at the edges of the model: the
  * sequential `Rept.run`, `ReptSpark.run` and `ReptStreaming.run` must give
  * the same τ̂, per-processor counters and τ̂_v, bit for bit.
  */
class ReptDriversSpec extends SparkSpec {

  private val stream = Ref.cliquePlusNoise(8, 24, 60, 202)
    .map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def bits(locals: Map[Int, Double]): Map[Int, Long] =
    locals.map { case (v, x) => v -> bits(x) }

  private val extreme = Ref.extremeIdEdges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  // (case, stream, m, c, seed, exact τ_v that τ̂_v must equal)
  private val cases = Seq(
    ("m=2, c=101: fifty full groups and a leftover processor", stream, 2, 101, 43L, None),
    ("m=64 over a 40-edge stream, c=70", stream.take(40), 64, 70, 47L, None),
    ("an empty stream, c > m with a leftover group", Array.empty[Long], 4, 6, 53L, None),
    ("m=c=1 on the extreme node ids, exact", extreme, 1, 1, 59L, Some(Ref.tauV(Ref.extremeIdEdges))),
  )

  for ((name, s, m, c, seed, exact) <- cases)
    test(s"Rept.run, ReptSpark.run and ReptStreaming.run agree bit for bit: $name") {
      val seq = Rept.run(s, m, c, seed)
      for (tauV <- exact) assert(seq.tauVHat == tauV.map { case (v, n) => v -> n.toDouble })
      val par = ReptSpark.run(spark, s, m, c, seed)
      val parLocals = par.locals.get.collect()
        .map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate")).toMap
      val live = ReptStreaming.run(spark, s, m, c, seed, batchSize = math.max(1, (s.length + 1) / 2))
      for ((driver, tauHat, tau, eta, stored, locals) <- Seq(
             ("Spark", par.tauHat, par.perProcTau, par.perProcEta, par.perProcStored, parLocals),
             ("streaming", live.tauHat, live.perProcTau, live.perProcEta, live.perProcStored, live.tauVHat))) {
        assert(bits(tauHat) == bits(seq.tauHat), s"$driver tauHat $tauHat != ${seq.tauHat}")
        assert(tau.toSeq == seq.perProcTau.toSeq, s"$driver perProcTau")
        assert(eta.toSeq == seq.perProcEta.toSeq, s"$driver perProcEta")
        assert(stored.toSeq == seq.perProcStored.toSeq, s"$driver perProcStored")
        assert(bits(locals) == bits(seq.tauVHat), s"$driver tauVHat")
      }
    }
}
