package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.time.Instant

import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, TriestImprProcessor}
import repro.core.{EdgeStream, Rept, ReptEstimator, ReptProcessor}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** The REPT benchmark: one JVM, one caller, a closed loop of ops.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * Set-up builds the session, generates and ingests the workload's graph
  * (three times; the median counts), computes the reference counters and
  * warms up. Then ops run back to back for `--seconds`, each checked against
  * the reference. With `--trace 0` the last line reports the end-to-end
  * metrics. With `--trace 1` the same untraced loop runs first, then a
  * traced loop and one traced call into each remaining layer, and the last
  * line reports the per-layer metrics.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  /** One op of the measured loop. */
  final case class OpRun(seconds: Double, batches: Seq[StreamingQueryProgress], stateMb: Double)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val cores = math.min(sys.props.get("perfbench.cores").map(_.toInt)
      .getOrElse(Int.MaxValue), Runtime.getRuntime.availableProcessors())
    val work = sys.props.getOrElse("perfbench.work", "target/perfbench-work")
    // The repository's jobs session, pinned to local mode with one task
    // thread per core and one shuffle partition per task thread; no UI,
    // files under `work`. At the jobs' default of 64 partitions, every
    // streaming batch commits 64 state-store partitions, 60 of them empty,
    // and each commit forks `readlink` twice through Hadoop's local file
    // system: the op then measured the host's process start-up more than REPT.
    val spark = SparkSession.builder().appName("rept-perfbench")
      .master(s"local[$cores]")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .getOrCreate()
    try new Bench(spark, args, cores, work).run()
    finally spark.stop()
  }

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(kv.getOrElse("workload", sys.error("--workload is required")))
    Args(w, kv.get("seed").map(_.toLong).getOrElse(w.defaultSeed),
      kv.getOrElse("seconds", "10").toDouble, kv.getOrElse("trace", "0") == "1")
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile (0 for an empty sample). */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def secondsOf[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

final class Bench(spark: SparkSession, args: Main.Args, cores: Int, work: String) {
  import Main._

  private val w = args.workload
  private val seed = args.seed
  private val sc = spark.sparkContext
  private val progress = new ProgressListener
  spark.streams.addListener(progress)

  private var attempted = 0
  private val failures = ArrayBuffer.empty[String]

  private def cachedMb: Double = sc.getRDDStorageInfo.map(_.memSize).sum / 1048576.0

  def run(): Unit = {
    val spawnMs = sys.props.get("perfbench.spawnEpochMs").map(_.toLong)
      .getOrElse(ManagementFactory.getRuntimeMXBean.getStartTime)
    val startS = (System.currentTimeMillis() - spawnMs) / 1e3

    // Set-up. Ingest three times and count the median.
    val ingests = (1 to 3).map { _ =>
      secondsOf(EdgeStream.collectStream(Workloads.graph(spark, w.graph, seed)))
    }
    val stream = ingests.last._1
    val ingestS = median(ingests.map(_._2))
    val ((edges, ref), refS) = secondsOf {
      val edges = Workloads.graph(spark, w.graph, seed).select("t", "u", "v").collect()
        .sortBy(_.getLong(0)).map(r => (r.getInt(1), r.getInt(2)))
      (edges, Reference.run(edges, w.m, w.c, seed, cores))
    }
    val refLocals = if (w.locals) ref.tauVHat.filter(_._2 != 0.0) else Map.empty[Int, Double]
    val warmS = warmUp(stream)
    val setupS = startS + ingestS + refS + warmS
    note(s"setup: jvm+session ${fmt(startS)} s, ingest ${fmt(ingestS)} s (median of 3), " +
      s"reference ${fmt(refS)} s, warm-up ${fmt(warmS)} s; |E| = ${edges.length}")

    val plain = loop(stream, ref, refLocals, Spans.off)
    val opS = plain.map(_.seconds)
    note(f"untraced ops: n=${opS.size}, median ${median(opS)}%.4f s, " +
      f"q1 ${quantile(opS, 0.25)}%.4f s, q3 ${quantile(opS, 0.75)}%.4f s, max ${opS.max}%.4f s; " +
      opS.map(x => f"$x%.3f").mkString("in order: ", " ", ""))

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("estimate_s", median(opS), "s"),
        ("setup_s", setupS, "s"),
        ("batch_latency_p50_s", median(plain.flatMap(batchLatencies)), "s"),
        ("state_mb", median(plain.map(_.stateMb)), "MB"),
      )
      else traced(stream, edges.length, ref, refLocals, plain, ingestS)

    env(setupS)
    val failed = failures.size
    failures.distinct.take(5).foreach(f => note(s"FAILED op: $f"))
    println(Json.obj(
      "correct" -> Json.raw((failed == 0).toString),
      "attempted" -> Json.raw(attempted.toString),
      "failed" -> Json.raw(failed.toString),
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
      }: _*),
    ))
  }

  /** Warm the JIT and Spark's code caches: whole ops, back to back, for at
    * least twelve seconds. The op times of `soc-global-c10` and
    * `comm-stream-c4` keep falling for about that long as Spark's
    * driver-side code gets compiled.
    */
  private def warmUp(stream: Array[Long]): Double = secondsOf {
    val t0 = System.nanoTime()
    do Workloads.op(spark, w, stream, seed, Spans.off)
    while (System.nanoTime() - t0 < 12e9)
    ListenerBus.drain(sc)
    progress.drain()
  }._2

  /** Closed loop: the next op starts when the last returns. It runs for
    * `--seconds`, and for at least one op.
    */
  private def loop(stream: Array[Long], ref: Reference.Counters, refLocals: Map[Int, Double],
                   spans: Spans): Seq[OpRun] = {
    val out = ArrayBuffer.empty[OpRun]
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (out.isEmpty || elapsed < args.seconds) {
      val before = cachedMb
      val (res, s) = secondsOf(Try(spans("op")(Workloads.op(spark, w, stream, seed, spans))))
      ListenerBus.drain(sc)
      val batches = progress.drain()
      spans match {
        case t: Tracer => batches.foreach { b =>
          val start = Trace.fromEpochMs(Instant.parse(b.timestamp).toEpochMilli)
          t.record(Span(t.nextId(), 0L, 0L, "stream.batch", start,
            start + (durS(b, "triggerExecution") * 1e9).toLong, Map("rows" -> b.numInputRows.toDouble)))
        }
        case _ =>
      }
      val stateMb =
        if (w.mode == Mode.Streaming)
          batches.lastOption.map(_.stateOperators.map(_.memoryUsedBytes).sum / 1048576.0).getOrElse(0.0)
        else cachedMb - before
      verdict(res, ref, refLocals)
      out += OpRun(s, batches, stateMb)
    }
    out.toSeq
  }

  /** Count one attempted op, and its failure if it threw or disagrees
    * with the reference.
    */
  private def verdict(res: Try[Workloads.Outcome], ref: Reference.Counters,
                      refLocals: Map[Int, Double]): Unit = {
    attempted += 1
    res match {
      case Failure(e) => failures += s"exception: $e"
      case Success(o) => failures ++= Workloads.check(o, ref, refLocals)
    }
  }

  /** Per-batch latency: the micro-batches of a streaming op, or the whole
    * op for the Spark workloads, which hand REPT the stream as one batch.
    */
  private def batchLatencies(r: OpRun): Seq[Double] =
    if (w.mode == Mode.Streaming) r.batches.map(b => durS(b, "triggerExecution")) else Seq(r.seconds)

  private def durS(b: StreamingQueryProgress, key: String): Double =
    Option(b.durationMs.get(key)).map(_.longValue / 1e3).getOrElse(0.0)

  /** Traced loop plus one traced call into each layer the op does not
    * reach; returns the per-layer metrics.
    */
  private def traced(stream: Array[Long], nE: Int, ref: Reference.Counters,
                     refLocals: Map[Int, Double], plain: Seq[OpRun],
                     ingestS: Double): Seq[(String, Double, String)] = {
    val tracer = new Tracer
    sc.addSparkListener(new SparkTraceListener(tracer))
    val ops = loop(stream, ref, refLocals, tracer)
    val hash = Rept.groupSeed(seed, 0)

    // Estimator: on the reference's counters, which every passing op's equal.
    val (tau, eta) = (ref.tau.toIndexedSeq, if (ref.needsEta) ref.eta.toIndexedSeq else Nil)
    val estUs = (1 to 5).map { _ =>
      tracer("estimator.global") {
        val n = 2000
        secondsOf((1 to n).foreach(_ => ReptEstimator.estimateGlobal(w.m, w.c, tau, eta)))._2 / n * 1e6
      }
    }

    def passes(name: String)(pass: => Any): Double = median((1 to 3).map { _ =>
      tracer(name)(secondsOf(pass)._2)
    })
    val reptS = passes("engine.rept")(new ReptProcessor(w.m, 0, hash).processStream(stream))
    val reptEtaS = passes("engine.rept_eta")(
      new ReptProcessor(w.m, 0, hash, trackEta = true).processStream(stream))
    val mascotS = passes("engine.mascot")(new MascotProcessor(1.0 / w.m, seed).processStream(stream))
    val triestS = passes("engine.triest")(
      new TriestImprProcessor(math.max(2, nE / w.m), seed).processStream(stream))
    val gpsS = passes("engine.gps")(
      new GpsInStreamProcessor(math.max(1, nE / (2 * w.m)), seed).processStream(stream))
    val (storedFrac, retainedMb) = {
      val before = heapUsed()
      val p = new ReptProcessor(w.m, 0, hash).processStream(stream)
      val after = heapUsed()
      (p.sampledEdges.toDouble / nE, (after - before) / 1048576.0)
    }

    val (seq, seqS) = secondsOf(tracer("driver.sequential")(
      Try(Rept.run(stream, w.m, w.c, seed, locals = w.locals))))
    verdict(seq.map(r => Workloads.Outcome(r.tauHat, r.perProcTau, r.perProcEta,
      if (w.locals) Some(r.tauVHat) else None)), ref, refLocals)

    ListenerBus.drain(sc)
    val spans = Trace.attach(tracer.spans)
    writeSpans(spans)

    val opSpans = spans.filter(s => s.name == "op" && s.parent == 0L)
    val byOp = spans.groupBy(_.op)
    def perOp(f: Seq[Span] => Double): Double = median(opSpans.map(o => f(byOp.getOrElse(o.op, Nil))))
    def named(ss: Seq[Span], n: String) = ss.filter(_.name == n)
    def taskSum(key: String)(ss: Seq[Span]) = named(ss, "spark.task").map(_.attrs(key)).sum
    val stageStart = spans.filter(_.name == "spark.stage").map(s => s.id -> s.start).toMap

    val tracedS = median(ops.map(_.seconds))
    val plainS = median(plain.map(_.seconds))
    val stream_ = ops.map(_.batches)
    val streaming = w.mode == Mode.Streaming
    def perBatch(f: StreamingQueryProgress => Double): Double = median(stream_.flatten.map(f))
    def stateOps(b: StreamingQueryProgress, f: org.apache.spark.sql.streaming.StateOperatorProgress => Long) =
      b.stateOperators.map(f).sum / 1e3

    if (!streaming)
      note("stream.* metrics read 0: this workload runs no streaming query")
    if (w.mode == Mode.Global)
      note("locals.collect_s reads 0: this workload runs ReptSpark.run with locals off")
    if (streaming)
      note("locals.collect_s reads 0: ReptStreaming.run returns τ̂_v already collected")

    Seq(
      ("ingest.collect_s", ingestS, "s"),
      ("ingest.edges", nE.toDouble, "count"),
      ("engine.rept.edges_per_s", nE / reptS, "1/s"),
      ("engine.rept_eta.edges_per_s", nE / reptEtaS, "1/s"),
      ("engine.rept.stored_frac", storedFrac, "ratio"),
      ("engine.rept.retained_mb", retainedMb, "MB"),
      ("engine.mascot.edges_per_s", nE / mascotS, "1/s"),
      ("engine.triest.edges_per_s", nE / triestS, "1/s"),
      ("engine.gps.edges_per_s", nE / gpsS, "1/s"),
      ("driver.sequential_s", seqS, "s"),
      ("driver.speedup", seqS / plainS, "ratio"),
      ("spark.run_s", perOp(ss => named(ss, "spark.run").map(_.seconds).sum), "s"),
      ("spark.jobs", perOp(ss => named(ss, "spark.job").size.toDouble), "count"),
      ("spark.tasks", perOp(ss => named(ss, "spark.task").size.toDouble), "count"),
      ("spark.task_busy_s", perOp(taskSum("run_s")), "s"),
      ("spark.task_p50_s", perOp(ss => median(named(ss, "spark.task").map(_.seconds))), "s"),
      ("spark.task_max_s", perOp(ss => named(ss, "spark.task").map(_.seconds).maxOption.getOrElse(0.0)), "s"),
      ("spark.sched_wait_s", perOp(ss => named(ss, "spark.task")
        .map(t => math.max(0L, t.start - stageStart.getOrElse(t.parent, t.start)) / 1e9).sum), "s"),
      ("spark.task_deser_s", perOp(taskSum("deser_s")), "s"),
      ("spark.gc_s", perOp(taskSum("gc_s")), "s"),
      ("spark.driver_s", perOp { ss =>
        named(ss, "op").headOption.map { o =>
          Trace.selfTime(o, named(ss, "spark.job")) / 1e9
        }.getOrElse(0.0)
      }, "s"),
      ("locals.collect_s", perOp(ss => named(ss, "locals.collect").map(_.seconds).sum), "s"),
      ("spark.result_mb", perOp(taskSum("result_mb")), "MB"),
      ("spark.shuffle_write_mb", perOp(taskSum("shuffle_write_mb")), "MB"),
      ("spark.shuffle_read_mb", perOp(taskSum("shuffle_read_mb")), "MB"),
      ("spark.cached_mb_after", cachedMb, "MB"),
      ("estimator.global_us", median(estUs), "us"),
      ("stream.batches", median(stream_.map(_.size.toDouble)), "count"),
      ("stream.rows_per_edge", if (streaming) median(stream_.map(_.map(_.numInputRows).sum.toDouble / nE)) else 0.0, "ratio"),
      ("stream.tasks_per_batch", if (streaming) perOp(ss => named(ss, "spark.task").size.toDouble) /
        math.max(1.0, median(stream_.map(_.size.toDouble))) else 0.0, "count"),
      ("stream.add_batch_s", perBatch(durS(_, "addBatch")), "s"),
      ("stream.query_planning_s", perBatch(durS(_, "queryPlanning")), "s"),
      ("stream.wal_commit_s", perBatch(durS(_, "walCommit")), "s"),
      ("stream.state_update_s", perBatch(stateOps(_, _.allUpdatesTimeMs)), "s"),
      ("stream.state_commit_s", perBatch(stateOps(_, _.commitTimeMs)), "s"),
      ("stream.state_rows", median(stream_.flatMap(_.lastOption.map(_.stateOperators.map(_.numRowsTotal).sum.toDouble))), "count"),
      ("stream.feed_s", if (streaming) median(ops.map(o => o.seconds - o.batches.map(durS(_, "triggerExecution")).sum)) else 0.0, "s"),
      ("stream.latency_growth", median(stream_.map(latencyGrowth)), "ratio"),
      ("trace.overhead_s", tracedS - plainS, "s"),
      ("ops_failed", failures.size.toDouble / attempted, "ratio"),
    )
  }

  /** Median latency of the last quarter of batches over the first quarter,
    * leaving out the first batch (query start-up); 0 without batches.
    */
  private def latencyGrowth(bs: Seq[StreamingQueryProgress]): Double = {
    val xs = bs.drop(1).map(durS(_, "triggerExecution"))
    val q = math.max(1, xs.size / 4)
    if (xs.size < 2) 0.0 else median(xs.takeRight(q)) / median(xs.take(q))
  }

  private def heapUsed(): Long = {
    (1 to 3).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  private def writeSpans(spans: Seq[Span]): Unit = {
    val file = Paths.get(sys.props.getOrElse("perfbench.traces", work), s"trace-${w.name}-$seed.json")
    Files.createDirectories(file.getParent)
    val lines = spans.map { s =>
      Json.obj("id" -> Json.raw(s.id.toString), "parent" -> Json.raw(s.parent.toString),
        "op" -> Json.raw(s.op.toString), "name" -> Json.str(s.name),
        "start_ns" -> Json.raw(s.start.toString), "end_ns" -> Json.raw(s.end.toString),
        "attrs" -> Json.obj(s.attrs.toSeq.map { case (k, v) => k -> Json.num(v) }: _*))
    }
    Files.write(file, lines.map(_.text).asJava, StandardCharsets.UTF_8)
    note(s"trace: ${spans.size} spans written to $file")
  }

  /** One line recording where and how the numbers were taken. */
  private def env(setupS: Double): Unit = println(Json.obj(
    "env" -> Json.obj(
      "workload" -> Json.str(w.name), "graph" -> Json.str(w.graph),
      "m" -> Json.raw(w.m.toString), "c" -> Json.raw(w.c.toString),
      "batch_size" -> Json.raw(w.batchSize.toString),
      "seed" -> Json.raw(seed.toString), "default_seed" -> Json.raw(w.defaultSeed.toString),
      "cores" -> Json.raw(cores.toString),
      "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "jdk" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.version")}"),
      "gc" -> Json.str(ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", ")),
      "spark" -> Json.str(spark.version),
      "session" -> Json.obj(spark.conf.getAll.toSeq.sorted
        .filter { case (k, _) => k.startsWith("spark.") &&
          !Seq("JavaOptions", "port", "startTime", "s3a", "dir", "id").exists(k.contains) }
        .map { case (k, v) => k -> Json.str(v) }: _*),
      "commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "trace" -> Json.raw(args.trace.toString),
      "seconds" -> Json.num(args.seconds),
      "time" -> Json.str(Instant.now().toString),
    )))

  private def note(s: String): Unit = println(s"# $s")
  private def fmt(x: Double): String = f"$x%.3f"
}

/** Just enough JSON for the result lines. */
object Json {
  final case class J(text: String) { override def toString: String = text }
  def raw(s: String): J = J(s)
  def num(x: Double): J = J(if (x.isNaN || x.isInfinite) "null" else x.toString)
  def str(s: String): J = J("\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case ch if ch < ' ' => f"\\u${ch.toInt}%04x"
    case ch => ch.toString
  } + "\"")
  def obj(kv: (String, J)*): J = J(kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}"))
}
