package repro.streaming

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions

import org.apache.commons.io.FileUtils
import org.apache.hadoop.fs.{LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{Blob, Rept, ReptEstimator, ReptProcessor}

/** REPT as a genuine one-pass Structured Streaming job.
  *
  * The edge stream arrives in micro-batches of one `(t, key)` row per edge.
  * Every REPT processor must *observe* every edge, so inside the query each
  * batch partition packs its edges into one byte blob once (`Pack.toBytes`)
  * and emits one `(proc, blob)` row per logical processor, all c sharing
  * that blob: c shuffle rows per partition, not c per edge.
  * `flatMapGroupsWithState` keyed by processor id keeps each processor's
  * state across batches as one binary column, `ReptProcessor.State.toBytes`
  * — its sampled edge keys E⁽ⁱ⁾ plus counter arrays, about p·|E| longs —
  * and puts a batch's packs back in global stream order `t` however the
  * batch was split into partitions (`replay`). Each batch, a fresh processor
  * makes one pass over the batch's edges, resuming from the decoded state
  * (`ReptProcessor.resume`), which holds original ids only. After every
  * batch each processor emits a `(proc, seen, counters)` row, its
  * `ReptProcessor.Counters.toBytes` snapshot of τ⁽ⁱ⁾, η⁽ⁱ⁾ and |E⁽ⁱ⁾|; the
  * one emitted once it has seen the whole stream also carries τ_v⁽ⁱ⁾ /
  * η_v⁽ⁱ⁾. The final snapshots are decoded on the driver and combined by
  * `Rept.combine` into the batch runner's `Rept.Result`, so a streaming run
  * is bit-identical to `Rept.run` on the same (m, c, seed). Every row the
  * query shuffles, keeps or emits holds at most an `Int`, a `Long` and one
  * byte array in `Blob`'s layout, so no batch builds row encoders for nested
  * arrays.
  *
  * Each run checkpoints into its own directory under `java.io.tmpdir`,
  * deleted after the query stops, drops its memory sink's view once the
  * snapshots are read, and sets the query's conf so that its
  * checkpoint I/O starts no process:
  *  - Spark's `FileSystemBasedCheckpointFileManager` renames with
  *    `File.renameTo`; the default manager renames every offset, commit and
  *    state-store file (and its `.crc`) through Hadoop's `FileContext`, which
  *    without Hadoop's native library forks a `readlink` process for each;
  *  - `file:` paths go to `ForkFreeLocalFileSystem`, uncached: Hadoop's local
  *    file system forks `chmod` for every file it creates;
  *  - at most c state partitions run: only c keys exist, and every further
  *    partition would commit an empty state store each batch.
  * These settings are applied to the caller's session only while the query
  * starts (it copies its session's conf then) and restored right after.
  */
object ReptStreaming {

  /** One batch partition's edges, addressed to processor `proc`: stream
    * positions `ts` and packed edge keys `keys`, in partition order.
    */
  final case class Pack(proc: Int, ts: Array[Int], keys: Array[Long])

  object Pack {
    /** A partition's `ts` and `keys` as one blob, shared by its c packs. */
    def toBytes(ts: Array[Int], keys: Array[Long]): Array[Byte] = Blob.encode(Array.emptyLongArray, ts, keys)

    def fromBytes(proc: Int, bytes: Array[Byte]): Pack = Blob.decode(bytes)(r => Pack(proc, r.ints(), r.longs()))
  }

  private val CheckpointManagerKey = "spark.sql.streaming.checkpointFileManagerClass"
  private val ShufflePartitionsKey = "spark.sql.shuffle.partitions"
  private val LocalCheckpointManager =
    "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager"
  private val LocalFsKey = "fs.file.impl"
  // Hadoop caches one file system per scheme, whatever `fs.file.impl` says.
  private val LocalFsNoCacheKey = "fs.file.impl.disable.cache"

  /** Run REPT over `stream` fed in `batchSize`-edge micro-batches.
    * Deterministic in (m, c, seed) and independent of batchSize.
    */
  def run(spark: SparkSession, stream: Array[Long], m: Int, c: Int, seed: Long,
          batchSize: Int): Rept.Result = {
    require(batchSize >= 1, s"batchSize must be >= 1, got $batchSize")
    val lay = ReptEstimator.Layout(m, c)
    // No batch ever runs on an empty stream: every processor stays fresh.
    if (stream.isEmpty) return Rept.run(stream, m, c, seed)

    import spark.implicits._
    val source = MemoryStream[(Int, Long)](spark)
    // Only the length goes into the state function's closure, not the stream.
    val total = stream.length.toLong

    val snapshots = source.toDS()
      .mapPartitions { rows =>
        val part = rows.toArray
        if (part.isEmpty) Iterator.empty
        else {
          val bytes = Pack.toBytes(part.map(_._1), part.map(_._2))
          Iterator.tabulate(c)(p => (p, bytes))
        }
      }
      .groupByKey(_._1)
      .flatMapGroupsWithState[Array[Byte], (Int, Long, Array[Byte])](
        OutputMode.Update(), GroupStateTimeout.NoTimeout()) {
        (proc: Int, packs: Iterator[(Int, Array[Byte])], state: GroupState[Array[Byte]]) =>
          val batch = replay(packs.map(r => Pack.fromBytes(proc, r._2)))
          val prior = state.getOption.map(ReptProcessor.State.fromBytes)
          val p = Rept.processor(lay, seed, proc)
          prior.fold(p.processStream(batch))(p.resume(_, batch))
          val seen = prior.fold(0L)(_.seen) + batch.length
          state.update(p.state(seen).toBytes)
          Iterator.single((proc, seen, p.counters(locals = seen == total).toBytes))
      }

    val queryName = s"rept_snapshots_${System.nanoTime()}"
    val checkpoint = Files.createTempDirectory("rept-stream-").toFile
    val snaps = try {
      val query = withConf(spark, CheckpointManagerKey -> LocalCheckpointManager,
        LocalFsKey -> classOf[ForkFreeLocalFileSystem].getName, LocalFsNoCacheKey -> "true",
        ShufflePartitionsKey -> math.min(c, spark.conf.get(ShufflePartitionsKey).toInt).toString) {
        snapshots.writeStream
          .format("memory")
          .queryName(queryName)
          .outputMode("update")
          .option("checkpointLocation", checkpoint.getPath)
          .start()
      }
      try {
        stream.iterator.zipWithIndex.map(_.swap).grouped(batchSize).foreach { chunk =>
          source.addData(chunk)
          query.processAllAvailable()
        }
      } finally query.stop()
      spark.table(queryName).as[(Int, Long, Array[Byte])].collect()
    } finally {
      // The memory sink's view outlives its stopped query, with every
      // snapshot row in driver memory.
      spark.catalog.dropTempView(queryName)
      FileUtils.deleteQuietly(checkpoint)
    }

    val finalSnaps = snaps.groupBy(_._1).values.map(_.maxBy(_._2)).toSeq.sortBy(_._1)
    // Only keys 0..c−1 exist, so c final snapshots means one per processor.
    Rept.combine(lay, finalSnaps.map(s => ReptProcessor.Counters.fromBytes(s._3)))
  }

  /** One micro-batch's edge keys in global stream order `t`. The packs may
    * arrive in any order and their `t` ranges may interleave.
    */
  def replay(packs: Iterator[Pack]): Array[Long] = {
    val ps = packs.toArray
    // t is an array index, so (t << 32 | position) sorts by t as a primitive.
    val order = new Array[Long](ps.iterator.map(_.ts.length).sum)
    val keys = new Array[Long](order.length)
    var n = 0
    for (p <- ps; j <- p.ts.indices) {
      order(n) = (p.ts(j).toLong << 32) | n
      keys(n) = p.keys(j)
      n += 1
    }
    java.util.Arrays.sort(order)
    order.map(o => keys(o.toInt))
  }

  /** Run `body` with the session conf keys set to the given values, then
    * restore each key's previous value, or unset it if it had none.
    */
  private def withConf[A](spark: SparkSession, settings: (String, String)*)(body: => A): A = {
    val before = settings.map { case (k, _) => k -> spark.conf.getAll.get(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally before.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }
}

/** Hadoop's local file system, except that `setPermission` sets the
  * permission bits through `java.nio.file.Files.setPosixFilePermissions`
  * instead of forking `chmod` (which Hadoop does without its native library
  * for every file it creates). A sticky bit, which NIO cannot set, still goes
  * through Hadoop.
  */
final class ForkFreeLocalFileSystem extends LocalFileSystem(new RawLocalFileSystem {
  override def setPermission(p: Path, perm: FsPermission): Unit =
    if (perm.getStickyBit) super.setPermission(p, perm)
    else Files.setPosixFilePermissions(pathToFile(p).toPath, PosixFilePermissions.fromString(
      perm.getUserAction.SYMBOL + perm.getGroupAction.SYMBOL + perm.getOtherAction.SYMBOL))
})
