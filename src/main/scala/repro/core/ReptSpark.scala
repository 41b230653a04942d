package repro.core

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Spark runner for one REPT(1/m, c) pass: one task per processor. Task i
  * runs `Rept.processor(layout, seed, i)` over the broadcast edge stream and
  * its relabel, and returns its counters as one compact record; the driver
  * collects the c records once and combines them with `Rept.combine`. Each
  * task therefore stores only its own ≈ |E|/m edges, and nothing is cached.
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
    val r = Rept.combine(lay, fanOut(spark, stream, 0 until c) { (i, s, dense) =>
      Rept.processor(lay, seed, i).processStream(s, dense).counters(locals)
    })
    val localsDf = if (locals) Some(r.tauVHat.toSeq.toDF("node", "estimate")) else None
    SparkResult(r.tauHat, localsDf, r.perProcTau, r.perProcEta, r.perProcStored)
  }

  /** The one Spark fan-out of every driver: broadcasts `stream`, runs
    * `f(unit, stream, relabel)` for each unit as a task over
    * min(|units|, 256) partitions, and returns the results in unit order.
    * `relabel` is `EdgeStream.relabel(stream)`, made by the first task that
    * needs it in each JVM and shared by the others, so it is built once per
    * run in local mode and never serialised. The broadcast is destroyed when
    * the results are in, or on failure.
    */
  def fanOut[U: ClassTag, R: ClassTag](spark: SparkSession, stream: Array[Long], units: Seq[U])
                                      (f: (U, Array[Long], EdgeStream.Relabel) => R): IndexedSeq[R] = {
    val bc = spark.sparkContext.broadcast(new Shared(stream))
    try spark.sparkContext.parallelize(units, math.min(units.size, 256))
      .map { u => val s = bc.value; f(u, s.stream, s.dense) }.collect().toIndexedSeq
    finally bc.destroy()
  }

  /** A fan-out's broadcast value: the stream, and its relabel made on first
    * use (a lazy val, so concurrent tasks wait for the one that builds it).
    */
  private final class Shared(val stream: Array[Long]) extends Serializable {
    @transient lazy val dense: EdgeStream.Relabel = EdgeStream.relabel(stream)
  }
}
