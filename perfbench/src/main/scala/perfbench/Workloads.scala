package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.ReptSpark
import repro.streaming.ReptStreaming
import repro.graphgen.GraphGen

/** How an op drives REPT. */
sealed trait Mode
object Mode {
  /** `ReptSpark.run(locals = false)`: τ̂ only. */
  case object Global extends Mode
  /** `ReptSpark.run(locals = true)` plus collecting the τ̂_v DataFrame. */
  case object Locals extends Mode
  /** `ReptStreaming.run` in fixed-size micro-batches. */
  case object Streaming extends Mode
}

/** One benchmark workload: a catalog graph and a REPT configuration. The
  * workload seed is both the graph generator's seed and REPT's hash seed;
  * `defaultSeed` reproduces the catalog graph exactly.
  */
final case class Workload(name: String, graph: String, defaultSeed: Long,
                          m: Int, c: Int, mode: Mode, batchSize: Int = 0) {
  /** Whether the op returns per-node estimates to check. */
  def locals: Boolean = mode != Mode.Global
}

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("soc-global-c10", "soc-lite", 101, m = 10, c = 10, Mode.Global),
    Workload("web-locals-c21", "web-lite", 202, m = 10, c = 21, Mode.Locals),
    Workload("comm-stream-c4", "comm-small", 606, m = 10, c = 4, Mode.Streaming, batchSize = 4000),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(
      s"unknown workload $name; expected one of ${all.map(_.name).mkString(", ")}"))

  /** The catalog graph's generator with the catalog's parameters and the
    * given seed, as a (t, u, v) stream DataFrame.
    */
  def graph(spark: SparkSession, name: String, seed: Long): DataFrame = name match {
    case "soc-lite" =>
      GraphGen.chungLu(spark, n = 60000, targetEdges = 300000, alpha = 2.0, seed = seed, scale = 30)
    case "web-lite" =>
      GraphGen.plantedCommunities(spark, nCommunities = 100, size = 80, pIn = 0.7,
        nRandom = 30000, seed = seed)
    case "comm-small" =>
      GraphGen.plantedCommunities(spark, nCommunities = 400, size = 25, pIn = 0.35,
        nRandom = 20000, seed = seed)
    case other => sys.error(s"unknown graph $other")
  }

  /** What an op returns, reduced to what the correctness check compares. */
  final case class Outcome(tauHat: Double, tau: Array[Long], eta: Array[Long],
                           locals: Option[Map[Int, Double]])

  /** One op: packed stream in, τ̂ (and τ̂_v where the workload asks) out.
    * The τ̂_v DataFrame is collected inside the op, since `ReptSpark.run`
    * returns it unevaluated.
    */
  def op(spark: SparkSession, w: Workload, stream: Array[Long], seed: Long,
         spans: Spans): Outcome = w.mode match {
    case Mode.Global | Mode.Locals =>
      val r = spans("spark.run")(ReptSpark.run(spark, stream, w.m, w.c, seed, locals = w.locals))
      val locals = r.locals.map { df =>
        spans("locals.collect")(df.collect()
          .map(row => row.getAs[Int]("node") -> row.getAs[Double]("estimate")).toMap)
      }
      Outcome(r.tauHat, r.perProcTau, r.perProcEta, locals)
    case Mode.Streaming =>
      val r = spans("spark.run")(ReptStreaming.run(spark, stream, w.m, w.c, seed, w.batchSize))
      Outcome(r.tauHat, r.perProcTau, r.perProcEta, Some(r.tauVHat))
  }

  /** Compare an op's outcome with the reference; None when it matches.
    * Per-processor τ must be bit-equal, and η too wherever the program
    * tracks it (it may leave η at zero when the estimator does not need it).
    * τ̂ must be equal, τ̂_v within 1e-9 per node (`expLocals` holds the
    * reference's nonzero τ̂_v).
    */
  def check(o: Outcome, ref: Reference.Counters, expLocals: Map[Int, Double]): Option[String] = {
    if (!o.tau.sameElements(ref.tau)) Some("per-processor tau differs")
    else if (!o.eta.sameElements(ref.eta) && (ref.needsEta || o.eta.exists(_ != 0L)))
      Some("per-processor eta differs")
    else if (o.tauHat != ref.tauHat) Some(s"tauHat ${o.tauHat} != ${ref.tauHat}")
    else o.locals.flatMap { got0 =>
      val got = got0.filter(_._2 != 0.0)
      if (got.keySet != expLocals.keySet)
        Some(s"local node sets differ (${got.size} vs ${expLocals.size})")
      else expLocals.collectFirst {
        case (v, x) if math.abs(got(v) - x) >= 1e-9 => s"local estimate of node $v: ${got(v)} != $x"
      }
    }
  }
}

/** Wraps a layer call in a span, or just runs it when tracing is off. */
trait Spans {
  def apply[A](name: String)(body: => A): A
}

object Spans {
  val off: Spans = new Spans { def apply[A](name: String)(body: => A): A = body }
}
