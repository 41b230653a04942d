package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Spark runner for one REPT(1/m, c) pass: one task per processor. Task i
  * runs `Rept.processor(layout, seed, i)` over the broadcast edge stream and
  * returns its counters as one compact record; the driver collects the c
  * records once and combines them with `Rept.combine`. Each task therefore
  * stores only its own ≈ |E|/m edges, and nothing is cached.
  *
  * Bit-identical to the sequential `Rept.run` for the same (m, c, seed).
  */
object ReptSpark {

  /** Run result: the global estimate plus (optionally) the per-node estimate
    * DataFrame (node, estimate), built from the driver's map; absent nodes
    * estimate 0. `perProcStored` is the edges each processor stored.
    */
  final case class SparkResult(tauHat: Double, locals: Option[DataFrame],
                               perProcTau: Array[Long], perProcEta: Array[Long],
                               perProcStored: Array[Long])

  def run(spark: SparkSession, stream: Array[Long], m: Int, c: Int, seed: Long,
          locals: Boolean = true): SparkResult = {
    import spark.implicits._
    val lay = ReptEstimator.Layout(m, c)
    val bc = spark.sparkContext.broadcast(stream)
    val counters = try {
      spark.sparkContext.parallelize(0 until c, c)
        .map(i => Rept.processor(lay, seed, i).processStream(bc.value).counters(locals))
        .collect()
    } finally bc.destroy()
    val r = Rept.combine(lay, counters.toIndexedSeq)
    val localsDf = if (locals) Some(r.tauVHat.toSeq.toDF("node", "estimate")) else None
    SparkResult(r.tauHat, localsDf, r.perProcTau, r.perProcEta, r.perProcStored)
  }
}
