package repro.jobs

import repro.harness.BenchGraphs
import repro.streaming.ReptStreaming

/** Structured Streaming REPT entrypoint: feeds a catalog graph through the
  * micro-batch pipeline and prints the streaming estimate vs exact truth.
  *
  * Usage: spark-submit --class repro.jobs.StreamingReptJob repro.jar \
  *          [graph] [m] [c] [batchSize] [seed]
  */
object StreamingReptJob {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("rept-streaming")
    val graph = JobUtil.arg(args, 0, "comm-small")
    val m = JobUtil.arg(args, 1, "10").toInt
    val c = JobUtil.arg(args, 2, "4").toInt
    val batchSize = JobUtil.arg(args, 3, "5000").toInt
    val seed = JobUtil.arg(args, 4, "42").toLong
    val stream = BenchGraphs.stream(spark, graph)
    val info = BenchGraphs.info(spark, graph)
    val res = ReptStreaming.run(spark, stream, m, c, seed, batchSize)
    println(s"graph=$graph m=$m c=$c batchSize=$batchSize")
    println(f"exact tau = ${info.tau}  streaming REPT tauHat = ${res.tauHat}%.1f  " +
      f"relErr = ${math.abs(res.tauHat - info.tau) / info.tau}%.4f  " +
      s"(snapshots per processor: ${res.snapshotsPerProc})")
    spark.stop()
  }
}
