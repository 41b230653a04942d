package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Spark delivers listener events asynchronously; the benchmark waits for
  * them before it reads an op's jobs, tasks and micro-batches. The wait is
  * Spark-internal API, hence this package.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
