package repro.streaming

import java.nio.file.Files
import java.util.UUID
import java.util.concurrent.ConcurrentLinkedQueue

import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import org.apache.spark.sql.streaming.StreamingQueryListener._
import org.scalatest.concurrent.Eventually._
import org.scalatest.concurrent.ThreadSignaler
import org.scalatest.concurrent.TimeLimits._
import org.scalatest.time.SpanSugar._
import repro.{Ref, SparkSpec}
import repro.core.{EdgeStream, Rept, ReptEstimator}

import scala.jdk.CollectionConverters._

class ReptStreamingSpec extends SparkSpec {

  private val checkpointManagerKey = "spark.sql.streaming.checkpointFileManagerClass"
  private val shufflePartitionsKey = "spark.sql.shuffle.partitions"
  private val localFsKey = "fs.file.impl"
  private val localFsNoCacheKey = "fs.file.impl.disable.cache"

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private lazy val edges = Ref.cliquePlusNoise(8, 24, 60, 202)
  private lazy val stream = streamOf(edges)

  private def assertMatchesBatch(m: Int, c: Int, seed: Long, batchSize: Int): Unit = {
    val batch = Rept.run(stream, m, c, seed)
    val live = ReptStreaming.run(spark, stream, m, c, seed, batchSize)
    assert(live.tauHat == batch.tauHat, s"global m=$m c=$c batch=$batchSize")
    assert(live.perProcTau.toSeq == batch.perProcTau.toSeq)
    assert(live.perProcEta.toSeq == batch.perProcEta.toSeq)
    assert(live.perProcStored.toSeq == batch.perProcStored.toSeq)
    val expected = batch.tauVHat.filter(_._2 != 0.0)
    val got = live.tauVHat.filter(_._2 != 0.0)
    assert(got.keySet == expected.keySet)
    for ((k, v) <- expected) assert(math.abs(got(k) - v) < 1e-9, s"node $k")
  }

  test("streaming equals batch for c <= m") {
    assertMatchesBatch(4, 3, 5, batchSize = 40)
  }

  test("streaming equals batch for c = m") {
    assertMatchesBatch(3, 3, 7, batchSize = 25)
  }

  test("streaming equals batch for c > m with leftover group (eta path)") {
    assertMatchesBatch(2, 5, 9, batchSize = 30)
  }

  test("result is invariant to micro-batch size") {
    val a = ReptStreaming.run(spark, stream, 3, 2, 11, batchSize = 17)
    val b = ReptStreaming.run(spark, stream, 3, 2, 11, batchSize = 100)
    assert(a.tauHat == b.tauHat)
    assert(a.perProcTau.toSeq == b.perProcTau.toSeq)
    assert(a.tauVHat == b.tauVHat)
  }

  test("state persists across many tiny batches") {
    for (c <- Seq(1, 2)) {
      val (r, queries) = queriesOf(ReptStreaming.run(spark, stream, 1, c, 3, batchSize = 13))
      assert(r.tauHat == Ref.tau(edges).toDouble, s"c=$c")
      val batches = queries.last.filter(_.numInputRows > 0)
      assert(batches.size == math.ceil(stream.length / 13.0).toInt, s"c=$c")
      for (b <- batches) assert(b.sink.numOutputRows == c, s"c=$c batch ${b.batchId}")
    }
  }

  test("an empty stream gives Rept.run's answer, for c <= m and c > m with a leftover group") {
    val (_, queries) = queriesOf {
      for ((m, c) <- Seq((4, 3), (2, 5))) {
        val batch = Rept.run(Array.empty[Long], m, c, 29)
        val live = ReptStreaming.run(spark, Array.empty[Long], m, c, 29, batchSize = 10)
        assert(live.tauHat == batch.tauHat, s"m=$m c=$c")
        assert(live.tauHat == 0.0)
        assert(live.perProcTau.toSeq == Seq.fill(c)(0L))
        assert(live.perProcEta.toSeq == Seq.fill(c)(0L))
        assert(live.perProcStored.toSeq == Seq.fill(c)(0L))
        assert(live.tauVHat.isEmpty && batch.tauVHat.isEmpty)
      }
      // A marker query: once it has terminated, every earlier start event is in.
      ReptStreaming.run(spark, stream, 3, 2, 5, batchSize = stream.length)
    }
    assert(queries.size == 1, "the empty runs started a streaming query")
  }

  test("a run leaves no snapshot view in the caller's session") {
    def views() = spark.catalog.listTables().collect().map(_.name).filter(_.startsWith("rept_snapshots_")).toSeq
    ReptStreaming.run(spark, stream, 3, 2, 31, batchSize = 40)
    assert(views().isEmpty)
  }

  test("batchSize 0 is rejected before any query starts") {
    // Unchecked, grouped(0) feeds empty batches forever.
    failAfter(60.seconds) {
      intercept[IllegalArgumentException](ReptStreaming.run(spark, stream, 3, 2, 5, batchSize = 0))
    }(ThreadSignaler)
    assert(spark.streams.active.isEmpty)
  }

  test("replay feeds packs with interleaved t ranges in stream order") {
    // Three packs holding every third edge each, handed over last first,
    // and an empty one among them.
    val packs = (2 to 0 by -1).map { r =>
      val ts = stream.indices.filter(_ % 3 == r).toArray
      ReptStreaming.Pack(0, ts, ts.map(stream(_)))
    }
    val empty = ReptStreaming.Pack(0, Array.emptyIntArray, Array.emptyLongArray)
    assert(ReptStreaming.replay((packs.head +: empty +: packs.tail).iterator).toSeq == stream.toSeq)
    assert(ReptStreaming.replay(Iterator.empty).isEmpty)
  }

  test("pack bytes carry a partition's ts and keys: empty arrays and the extreme ids; a cut blob throws") {
    val extreme = streamOf(Ref.extremeIdEdges)
    for ((ts, keys) <- Seq(Array.emptyIntArray -> Array.emptyLongArray,
                           Array(0, Int.MaxValue, 7) -> Array(extreme(0), Long.MinValue, Long.MaxValue),
                           extreme.indices.reverse.toArray -> extreme)) {
      val bytes = ReptStreaming.Pack.toBytes(ts, keys)
      val pack = ReptStreaming.Pack.fromBytes(5, bytes)
      assert(pack.proc == 5 && pack.ts.toSeq == ts.toSeq && pack.keys.toSeq == keys.toSeq)
      for (cut <- 0 until bytes.length)
        intercept[RuntimeException](ReptStreaming.Pack.fromBytes(5, bytes.take(cut)))
    }
    assert(streamOf(Seq((Int.MinValue, Int.MaxValue), (-1, 0))).forall(extreme.contains))
  }

  /** `run`'s value and, per streaming query it started (in start order), that
    * query's progress events.
    */
  private def queriesOf[A](run: => A): (A, Seq[Seq[StreamingQueryProgress]]) = {
    val started = new ConcurrentLinkedQueue[UUID]
    val terminated = new ConcurrentLinkedQueue[UUID]
    val progress = new ConcurrentLinkedQueue[StreamingQueryProgress]
    val listener = new StreamingQueryListener {
      override def onQueryStarted(e: QueryStartedEvent): Unit = started.add(e.id)
      override def onQueryProgress(e: QueryProgressEvent): Unit = progress.add(e.progress)
      override def onQueryTerminated(e: QueryTerminatedEvent): Unit = terminated.add(e.id)
    }
    spark.streams.addListener(listener)
    try {
      val value = run
      // Events arrive in order: once the last query started has terminated,
      // every event of every earlier query is in too.
      eventually(timeout(30.seconds)) {
        assert(!started.isEmpty && terminated.asScala.toSet.contains(started.asScala.last))
      }
      (value, started.asScala.toSeq.map(id => progress.asScala.filter(_.id == id).toSeq))
    } finally spark.streams.removeListener(listener)
  }

  /** The progress events of the last streaming query that `run` starts. */
  private def progressOf(run: => Any): Seq[StreamingQueryProgress] = {
    val ours = queriesOf(run)._2.last
    assert(ours.nonEmpty)
    ours
  }

  test("the query runs min(c, spark.sql.shuffle.partitions) state partitions") {
    val c = 3
    val expected = math.min(c, spark.conf.get(shufflePartitionsKey).toInt)
    val ours = progressOf(ReptStreaming.run(spark, stream, 4, c, 19, batchSize = 40))
    for (p <- ours) assert(p.stateOperators(0).numShufflePartitions == expected)
  }

  test("a run leaves the caller's checkpoint manager, shuffle partitions and local file system as they were") {
    val keys = Seq(checkpointManagerKey, shufflePartitionsKey, localFsKey, localFsNoCacheKey)
    def conf(): Map[String, Option[String]] = keys.map(k => k -> spark.conf.getAll.get(k)).toMap
    def assertUnchangedByRun(): Unit = {
      val before = conf()
      ReptStreaming.run(spark, stream, 3, 2, 17, batchSize = 40)
      assert(conf() == before)
    }
    val saved = conf()
    try {
      keys.foreach(spark.conf.unset)
      assertUnchangedByRun()
      spark.conf.set(checkpointManagerKey,
        "org.apache.spark.sql.execution.streaming.checkpointing.FileContextBasedCheckpointFileManager")
      spark.conf.set(shufflePartitionsKey, "5")
      spark.conf.set(localFsKey, "org.apache.hadoop.fs.LocalFileSystem")
      spark.conf.set(localFsNoCacheKey, "false")
      assertUnchangedByRun()
    } finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }

  test("a run forks no readlink or chmod process") {
    val rec = new Recording()
    rec.enable("jdk.ProcessStart")
    rec.start()
    try ReptStreaming.run(spark, stream, 3, 2, 13, batchSize = (stream.length + 3) / 4)
    finally rec.stop()
    val file = Files.createTempFile("rept-stream-", ".jfr")
    try {
      rec.dump(file)
      val commands = RecordingFile.readAllEvents(file).asScala
        .filter(_.getEventType.getName == "jdk.ProcessStart").map(_.getString("command"))
      for (cmd <- Seq("readlink", "chmod"))
        assert(!commands.exists(_.startsWith(cmd)), s"${commands.count(_.startsWith(cmd))} $cmd starts")
    } finally {
      rec.close()
      Files.deleteIfExists(file)
    }
  }

  test("the final state takes about p|E| edge keys and the nonzero tau_v, not a serialised processor") {
    val big = streamOf(Ref.cliquePlusNoise(40, 3000, 20000, 71))
    val (m, c, seed) = (4, 2, 37L)
    val lay = ReptEstimator.Layout(m, c)
    val procs = (0 until c).map(Rept.processor(lay, seed, _).processStream(big).counters(locals = true))
    val bound = 32L * procs.map(_.stored).sum + 64L * procs.map(_.nodes.length).sum + 16384L * c
    val last = progressOf(ReptStreaming.run(spark, big, m, c, seed, batchSize = 6000)).maxBy(_.batchId)
    val used = last.stateOperators.map(_.memoryUsedBytes).sum
    assert(used > 0 && used <= bound, s"state $used B against a bound of $bound B")
  }
}
