package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, ParallelBaseline, TriestImprProcessor}
import repro.core.{EdgeStream, Rept, ReptEstimator, ReptProcessor}

/** Repeated-trial experiment runner behind every accuracy table.
  *
  * One invocation sweeps a whole list of processor counts `cs` at fixed
  * m = 1/p. The key reuse property: REPT processor i — slot i mod m of group
  * i / m, hashed with `Rept.groupSeed` — counts the same whatever c is, so
  * the processors 0..maxC−1 of one trial cover every c in the sweep as a
  * processor prefix, read exactly as `ReptEstimator.Layout(m, c)` prescribes.
  * Likewise a baseline's processor i is independent of c, so the c-processor
  * parallel estimate is the mean over processor prefix 0..c−1.
  *
  * Work units (one REPT processor or one baseline engine pass each) across
  * all methods and trials are Spark tasks over the broadcast edge stream;
  * their counter rows come back as a cached DataFrame. REPT estimates for a
  * given c use the functions behind `Rept.combine`: `estimateGlobal` on the
  * driver, `Rept.localEstimates` in one task per trial.
  *
  * Budgets follow Section IV-B: MASCOT samples with p = 1/m; Trièst gets
  * budget |E|/m; GPS gets |E|/(2m) (weights cost the other half of its
  * memory).
  */
object TrialHarness {

  val ReptName   = "REPT"
  val MascotName = "MASCOT"
  val TriestName = "TRIEST"
  val GpsName    = "GPS"

  /** One work unit: REPT processor (unit = group, slot = slot in the group)
    * or a baseline engine pass (unit = processor index, slot = 0).
    */
  final case class Task(method: String, trial: Int, unit: Int, slot: Int, seed: Long)

  /** Counter row. REPT: per (group, slot), node = −1 for the processor's
    * globals (x = τ⁽ⁱ⁾, eta = η⁽ⁱ⁾), node ≥ 0 for that node's counters.
    * Baselines: slot = 0; x is the processor's (already scaled) estimate.
    */
  final case class CounterRow(method: String, trial: Int, unit: Int, slot: Int,
                              node: Int, x: Double, eta: Double)

  final case class Config(
      m: Int,
      cs: Seq[Int],
      trials: Int,
      seed: Long,
      methods: Seq[String],
      locals: Boolean,
  ) {
    require(cs.nonEmpty && cs.forall(_ >= 1), s"bad cs: $cs")
    val maxC: Int = cs.max
    /** Number of REPT groups the processors 0..maxC−1 span. */
    val reptGroups: Int = math.max(1, (maxC + m - 1) / m)
    /** η tracking needed if any c > m has a leftover group. */
    val needsEta: Boolean = cs.exists(c => ReptEstimator.Layout(m, c).needsEta)
  }

  final case class Result(cfg: Config, raw: DataFrame) {
    import Result._

    /** Per-trial global estimates for (method, c). */
    lazy val globals: Map[(String, Int), Seq[Double]] = {
      val rows = raw.where(col("node") === -1).collect().map { r =>
        Key(r.getAs[String]("method"), r.getAs[Int]("trial"), r.getAs[Int]("unit"),
            r.getAs[Int]("slot")) -> (r.getAs[Double]("x"), r.getAs[Double]("eta"))
      }.toMap
      (for (method <- cfg.methods; c <- cfg.cs) yield {
        val perTrial = (0 until cfg.trials).map { trial =>
          if (method == ReptName) {
            val procs = (0 until c).map(i => rows(Key(method, trial, i / cfg.m, i % cfg.m)))
            ReptEstimator.estimateGlobal(cfg.m, c, procs.map(_._1.toLong), procs.map(_._2.toLong))
          }
          else (0 until c).map(i => rows(Key(method, trial, i, 0))._1).sum / c
        }
        (method, c) -> perTrial
      }).toMap
    }

    /** Per-(trial, node) estimate DataFrame for (method, c); None when the
      * run was configured without locals.
      */
    def localEstimates(method: String, c: Int): Option[DataFrame] = {
      if (!cfg.locals) return None
      val rows = raw.where(col("node") =!= -1 && col("method") === method)
      Some(
        if (method != ReptName)
          rows.where(col("unit") < c)
            .groupBy("trial", "node").agg((sum("x") / c) as "estimate")
        else reptLocalEstimates(rows, cfg.m, c))
    }
  }

  object Result {
    private final case class Key(method: String, trial: Int, unit: Int, slot: Int)
  }

  /** REPT per-(trial, node) estimates for processor count c from per-node
    * counter rows: each trial's processors 0..c−1 go through
    * `Rept.localEstimates`, one task per trial.
    */
  def reptLocalEstimates(reptRows: DataFrame, m: Int, c: Int): DataFrame = {
    import reptRows.sparkSession.implicits._
    val lay = ReptEstimator.Layout(m, c)
    reptRows.where(col("unit") * m + col("slot") < c).as[CounterRow]
      .groupByKey(_.trial)
      .flatMapGroups { (trial, rows) =>
        val byProc = rows.toSeq.groupBy(r => r.unit * m + r.slot)
        val procs = (0 until c).map { i =>
          val rs = byProc.getOrElse(i, Nil)
          ReptProcessor.Counters(0L, 0L, 0L, rs.map(_.node).toArray, rs.map(_.x.toLong).toArray,
            rs.map(_.eta.toLong).toArray)
        }
        Rept.localEstimates(lay, procs).iterator.map { case (v, x) => (trial, v, x) }
      }
      .toDF("trial", "node", "estimate")
  }

  /** Seed for one (method, trial): methods and trials draw independent
    * randomness from the sweep's base seed.
    */
  def trialSeed(base: Long, method: String, trial: Int): Long =
    EdgeStream.mix64(base ^ (method.hashCode.toLong << 32) ^ (trial + 1).toLong)

  /** Launch the sweep. Call `result.raw.unpersist()` when done. */
  def run(spark: SparkSession, stream: Array[Long], cfg: Config): Result = {
    import spark.implicits._
    val tasks: Seq[Task] = cfg.methods.flatMap { method =>
      (0 until cfg.trials).flatMap { trial =>
        val ts = trialSeed(cfg.seed, method, trial)
        if (method == ReptName)
          (0 until cfg.maxC).map(i =>
            Task(method, trial, i / cfg.m, i % cfg.m, Rept.groupSeed(ts, i / cfg.m)))
        else
          (0 until cfg.maxC).map(i => Task(method, trial, i, 0, ParallelBaseline.procSeed(ts, i)))
      }
    }
    val bc = spark.sparkContext.broadcast(stream)
    val m = cfg.m
    val locals = cfg.locals
    val needsEta = cfg.needsEta
    val nEdges = stream.length
    val rows = spark.sparkContext.parallelize(tasks, math.min(tasks.size, 256))
      .flatMap(t => runTask(t, bc.value, m, needsEta, locals, nEdges))
      .toDF()
      .cache()
    rows.count() // materialise before callers branch off it
    Result(cfg, rows)
  }

  /** Execute one work unit. */
  def runTask(t: Task, stream: Array[Long], m: Int, needsEta: Boolean, locals: Boolean,
              nEdges: Int): Iterator[CounterRow] = t.method match {
    case ReptName =>
      val p = new ReptProcessor(m, t.slot, t.seed, needsEta).processStream(stream).counters(locals)
      Iterator.single(CounterRow(t.method, t.trial, t.unit, t.slot, -1, p.tau.toDouble,
        p.eta.toDouble)) ++
        p.nodes.indices.iterator.map(j => CounterRow(t.method, t.trial, t.unit, t.slot,
          p.nodes(j), p.tauV(j).toDouble, p.etaV(j).toDouble))
    case MascotName =>
      val e = new MascotProcessor(1.0 / m, t.seed).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case TriestName =>
      val budget = math.max(2, math.round(nEdges.toDouble / m).toInt)
      val e = new TriestImprProcessor(budget, t.seed).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case GpsName =>
      val budget = math.max(1, math.round(nEdges.toDouble / (2.0 * m)).toInt)
      val e = new GpsInStreamProcessor(budget, t.seed).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case other => throw new IllegalArgumentException(s"unknown method $other")
  }

  private def emitBaseline(t: Task, tauHat: Double,
                           tauVHat: collection.Map[Int, Double]): Iterator[CounterRow] =
    Iterator.single(CounterRow(t.method, t.trial, t.unit, 0, -1, tauHat, 0.0)) ++
      tauVHat.iterator.map { case (v, x) => CounterRow(t.method, t.trial, t.unit, 0, v, x, 0.0) }
}
