package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.ParallelBaseline
import repro.baselines.ParallelBaseline.InstanceResult
import repro.core.{EdgeStream, Rept, ReptEstimator, ReptProcessor, ReptSpark}

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
  * all methods and trials are fanned out as Spark tasks (`ReptSpark.fanOut`);
  * each returns one typed record (`ReptProcessor.Counters` or
  * `ParallelBaseline.InstanceResult`), collected once and combined on the
  * driver by the functions every other driver uses: `estimateGlobal` and
  * `Rept.localEstimates` for REPT, `ParallelBaseline.average` for the
  * baselines, whose budgets `ParallelBaseline.instance` sets. Nothing is
  * cached.
  */
object TrialHarness {

  val ReptName   = "REPT"
  val MascotName: String = ParallelBaseline.MascotName
  val TriestName: String = ParallelBaseline.TriestName
  val GpsName: String    = ParallelBaseline.GpsName

  /** A work unit's record: REPT counters or a baseline instance result. */
  type Record = Either[ReptProcessor.Counters, InstanceResult]

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
    /** η tracking needed if any c > m has a leftover group. */
    val needsEta: Boolean = cs.exists(c => ReptEstimator.Layout(m, c).needsEta)
  }

  /** A sweep's records: per (method, trial), processors 0..maxC−1 in order. */
  final case class Result(spark: SparkSession, cfg: Config,
                          records: Map[(String, Int), IndexedSeq[Record]]) {

    private def rept(trial: Int, c: Int): IndexedSeq[ReptProcessor.Counters] =
      records((ReptName, trial)).take(c).collect { case Left(p) => p }

    private def baseline(method: String, trial: Int, c: Int): InstanceResult =
      ParallelBaseline.average(records((method, trial)).take(c).collect { case Right(r) => r })

    /** Per-trial global estimates for (method, c). */
    lazy val globals: Map[(String, Int), Seq[Double]] =
      (for (method <- cfg.methods; c <- cfg.cs) yield
        (method, c) -> (0 until cfg.trials).map { trial =>
          if (method == ReptName) {
            val procs = rept(trial, c)
            ReptEstimator.estimateGlobal(cfg.m, c, procs.map(_.tau), procs.map(_.eta))
          } else baseline(method, trial, c).tauHat
        }).toMap

    /** Per-(trial, node) estimate DataFrame for (method, c); None when the
      * run was configured without locals.
      */
    def localEstimates(method: String, c: Int): Option[DataFrame] = {
      if (!cfg.locals) return None
      import spark.implicits._
      val lay = ReptEstimator.Layout(cfg.m, c)
      val rows = for {
        trial <- 0 until cfg.trials
        (v, x) <- if (method == ReptName) Rept.localEstimates(lay, rept(trial, c))
                  else baseline(method, trial, c).tauVHat
      } yield (trial, v, x)
      Some(rows.toDF("trial", "node", "estimate"))
    }
  }

  /** Seed for one (method, trial): methods and trials draw independent
    * randomness from the sweep's base seed.
    */
  def trialSeed(base: Long, method: String, trial: Int): Long =
    EdgeStream.mix64(base ^ (method.hashCode.toLong << 32) ^ (trial + 1).toLong)

  /** Launch the sweep. */
  def run(spark: SparkSession, stream: Array[Long], cfg: Config): Result = {
    val known = Seq(ReptName, MascotName, TriestName, GpsName)
    require(cfg.methods.forall(known.contains), s"unknown method in ${cfg.methods}")
    val keys = for (method <- cfg.methods; trial <- 0 until cfg.trials) yield (method, trial)
    val units = for ((method, trial) <- keys; i <- 0 until cfg.maxC) yield (method, trial, i)
    val (m, needsEta, locals, seed) = (cfg.m, cfg.needsEta, cfg.locals, cfg.seed)
    val out = ReptSpark.fanOut(spark, stream, units) { case ((method, trial, i), s, dense) =>
      val ts = trialSeed(seed, method, trial)
      if (method == ReptName)
        Left(Rept.processor(m, ts, i, needsEta).processStream(s, dense).counters(locals)): Record
      else Right(ParallelBaseline.instance(method, m, s, dense, ParallelBaseline.procSeed(ts, i),
        locals)): Record
    }
    // fanOut keeps the units' order: maxC consecutive records per key.
    Result(spark, cfg, keys.zip(out.grouped(cfg.maxC)).toMap)
  }
}
