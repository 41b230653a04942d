package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.executor.TaskMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval. Times are nanoseconds on the benchmark's clock
  * (`Trace.now`); Spark's millisecond event times are mapped onto it.
  */
final case class Span(id: Long, parent: Long, op: Long, name: String,
                      start: Long, end: Long, attrs: Map[String, Double] = Map.empty) {
  def seconds: Double = (end - start) / 1e9
}

/** In-memory span recorder. Spans from the benchmark's own calls nest by
  * the dynamic scope of `apply`. Spark job, stage and task intervals and
  * streaming batch intervals are recorded without a parent and placed by
  * `Trace.attach`. Nothing is written until `spans` is read at the end of
  * the run.
  */
final class Tracer extends Spans {
  private val ids = new AtomicLong(0)
  private val done = new ConcurrentLinkedQueue[Span]()
  @volatile private var stack: List[(Long, Long)] = Nil // (span id, op id)

  def record(s: Span): Unit = done.add(s)
  def nextId(): Long = ids.incrementAndGet()

  /** Innermost open span and its op, or (0, 0) outside any span. */
  def current: (Long, Long) = stack.headOption.getOrElse((0L, 0L))

  /** Time `body` as a span; a top-level span starts a new op. */
  def apply[A](name: String)(body: => A): A = {
    val id = nextId()
    val (parent, op0) = current
    val op = if (op0 == 0L) id else op0
    stack = (id, op) :: stack
    val t0 = Trace.now()
    try body
    finally {
      stack = stack.tail
      record(Span(id, parent, op, name, t0, Trace.now()))
    }
  }

  def spans: Seq[Span] = done.asScala.toSeq.sortBy(s => (s.start, s.id))
}

object Trace {
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def now(): Long = System.nanoTime()

  /** Map a Spark event time (epoch ms) onto the `now` clock. */
  def fromEpochMs(ms: Long): Long = ms * 1000000L - epochOffsetNs

  /** Length of the part of [start, end) that `intervals` cover. */
  def covered(start: Long, end: Long, intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var reach = start
    for ((a, b) <- intervals.map { case (a, b) => (math.max(a, start), math.min(b, end)) }
           .filter { case (a, b) => b > a }.sortBy(_._1)) {
      if (b > reach) { total += b - math.max(a, reach); reach = b }
    }
    total
  }

  /** Give each span recorded without a parent (Spark jobs, streaming
    * batches) the innermost benchmark span open at its start, and give every
    * span below them that span's op. Event times have millisecond
    * resolution, hence the slack.
    */
  def attach(spans: Seq[Span]): Seq[Span] = {
    val slack = 2000000L
    val own = spans.filter(_.op != 0L)
    val loose = spans.filter(s => s.op == 0L && s.parent == 0L).map { s =>
      own.filter(o => o.start - slack <= s.start && s.start <= o.end)
        .minByOption(o => o.end - o.start)
        .fold(s)(o => s.copy(parent = o.id, op = o.op))
    }
    val opOf = mutable.Map.empty[Long, Long] ++ (own ++ loose).map(s => s.id -> s.op)
    val stages = spans.filter(s => s.op == 0L && s.name == "spark.stage")
      .map(s => s.copy(op = opOf.getOrElse(s.parent, 0L)))
    opOf ++= stages.map(s => s.id -> s.op)
    val tasks = spans.filter(s => s.op == 0L && s.name == "spark.task")
      .map(s => s.copy(op = opOf.getOrElse(s.parent, 0L)))
    own ++ loose ++ stages ++ tasks
  }

  /** A span's self time: its length minus what its children cover. */
  def selfTime(s: Span, children: Seq[Span]): Long =
    (s.end - s.start) - covered(s.start, s.end, children.map(c => (c.start, c.end)))
}

/** Records Spark job, stage and task intervals. Stages hang under their
  * job and tasks under their stage; a job's own parent and op are filled in
  * by `Trace.attach` once the run is over, from the benchmark span that was
  * open when the job started (listener events arrive late, so the span stack
  * at delivery time cannot be trusted). Task spans carry the task metrics the
  * per-layer split needs.
  */
final class SparkTraceListener(tracer: Tracer) extends SparkListener {
  private val jobStart = new java.util.concurrent.ConcurrentHashMap[Int, (Long, Long)]()
  private val stageJob = new java.util.concurrent.ConcurrentHashMap[Int, Long]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val id = tracer.nextId()
    jobStart.put(e.jobId, (id, Trace.fromEpochMs(e.time)))
    e.stageIds.foreach(s => stageJob.put(s, id))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobStart.remove(e.jobId)).foreach { case (id, start) =>
      tracer.record(Span(id, 0L, 0L, "spark.job", start, Trace.fromEpochMs(e.time)))
    }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val info = e.stageInfo
    for (sub <- info.submissionTime; fin <- info.completionTime)
      tracer.record(Span(stageId(info.stageId, info.attemptNumber()), stageJob.getOrDefault(info.stageId, 0L),
        0L, "spark.stage", Trace.fromEpochMs(sub), Trace.fromEpochMs(fin)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val info = e.taskInfo
    val m = Option(e.taskMetrics)
    def s(f: TaskMetrics => Long): Double = m.map(f).getOrElse(0L) / 1e3
    def mb(f: TaskMetrics => Long): Double = m.map(f).getOrElse(0L) / 1048576.0
    tracer.record(Span(tracer.nextId(), stageId(e.stageId, e.stageAttemptId), 0L, "spark.task",
      Trace.fromEpochMs(info.launchTime), Trace.fromEpochMs(info.finishTime), Map(
        "run_s" -> s(_.executorRunTime),
        "deser_s" -> s(_.executorDeserializeTime),
        "gc_s" -> s(_.jvmGCTime),
        "result_mb" -> mb(_.resultSize),
        "shuffle_write_mb" -> mb(_.shuffleWriteMetrics.bytesWritten),
        "shuffle_read_mb" -> mb(t => t.shuffleReadMetrics.remoteBytesRead + t.shuffleReadMetrics.localBytesRead),
      )))
  }

  // Stage spans need ids that task events can name before the stage ends.
  private def stageId(stage: Int, attempt: Int): Long = -(stage.toLong * 1000 + attempt + 1)
}

/** Collects every streaming micro-batch's progress report. Runs in traced
  * and untraced runs alike: the per-batch latency and state size are
  * end-to-end metrics of the streaming workload.
  */
final class ProgressListener extends StreamingQueryListener {
  private val reports = new ConcurrentLinkedQueue[StreamingQueryProgress]()

  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = reports.add(e.progress)
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()

  /** Reports received since the last call, oldest first. */
  def drain(): Seq[StreamingQueryProgress] = {
    val out = Seq.newBuilder[StreamingQueryProgress]
    var p = reports.poll()
    while (p != null) { out += p; p = reports.poll() }
    out.result().sortBy(_.batchId)
  }
}
