package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref
import repro.core.EdgeStream
import repro.stats.ErrorMetrics

class ParallelBaselineSpec extends AnyFunSuite {
  import ParallelBaseline._

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(9, 30, 80, 999)
  private val stream = streamOf(edges)
  private val tau = Ref.tau(edges).toDouble

  /** Parallel run: the mean of c engines, instance i seeded with
    * `procSeed(seed, i)`.
    */
  private def parallel(c: Int, seed: Long)(engine: Long => InstanceResult): InstanceResult =
    average((0 until c).map(i => engine(procSeed(seed, i))))

  private def mascot(p: Double)(s: Long): InstanceResult = {
    val e = new MascotProcessor(p, s).processStream(stream)
    InstanceResult(e.tauHat, e.tauVHat)
  }

  test("average of instance results is the arithmetic mean, absent nodes = 0") {
    val r = average(Seq(
      InstanceResult(10.0, Map(1 -> 4.0, 2 -> 2.0)),
      InstanceResult(20.0, Map(1 -> 0.0, 3 -> 6.0)),
    ))
    assert(r.tauHat == 15.0)
    assert(r.tauVHat == Map(1 -> 2.0, 2 -> 1.0, 3 -> 3.0))
  }

  test("procSeed is deterministic and distinct per processor") {
    assert(procSeed(5, 0) == procSeed(5, 0))
    assert((0 until 100).map(procSeed(5, _)).distinct.size == 100)
  }

  test("parallel MASCOT with p=1 is exact for any c") {
    val r = parallel(4, 7)(mascot(1.0))
    assert(r.tauHat == tau)
  }

  test("parallel Triest with full budget is exact for any c") {
    val r = parallel(3, 7) { s =>
      val e = new TriestImprProcessor(stream.length, s).processStream(stream)
      InstanceResult(e.tauHat, e.tauVHat)
    }
    assert(r.tauHat == tau)
  }

  test("parallel GPS with full budget is exact for any c") {
    val r = parallel(3, 7) { s =>
      val e = new GpsInStreamProcessor(stream.length, s).processStream(stream)
      InstanceResult(e.tauHat, e.tauVHat)
    }
    assert(r.tauHat == tau)
  }

  test("parallel runs are deterministic in the base seed") {
    val a = parallel(5, 42)(mascot(0.3))
    val b = parallel(5, 42)(mascot(0.3))
    assert(a.tauHat == b.tauHat && a.tauVHat == b.tauVHat)
  }

  test("averaging c processors cuts variance roughly by c") {
    val p = 0.3; val n = 800
    def varAt(c: Int, base: Int): Double =
      ErrorMetrics.sampleVariance(
        (0 until n).map(i => parallel(c, base + i)(mascot(p)).tauHat))
    val v1 = varAt(1, 1000)
    val v4 = varAt(4, 5000)
    val ratio = v1 / v4
    assert(ratio > 2.5 && ratio < 6.5, s"variance ratio $ratio should be ≈4")
  }

  test("instance follows the Section IV-B memory rule and keeps locals only on request") {
    val m = 4; val seed = 13L
    val nE = stream.length.toDouble
    val engines: Seq[(String, () => InstanceResult)] = Seq(
      MascotName -> (() => mascot(1.0 / m)(seed)),
      TriestName -> { () =>
        val e = new TriestImprProcessor(math.round(nE / m).toInt, seed).processStream(stream)
        InstanceResult(e.tauHat, e.tauVHat)
      },
      GpsName -> { () =>
        val e = new GpsInStreamProcessor(math.round(nE / (2.0 * m)).toInt, seed)
          .processStream(stream)
        InstanceResult(e.tauHat, e.tauVHat)
      },
    )
    val dense = EdgeStream.relabel(stream)
    for ((method, engine) <- engines) {
      assert(instance(method, m, stream, dense, seed, locals = true) == engine(), method)
      val global = instance(method, m, stream, dense, seed, locals = false)
      assert(global.tauHat == engine().tauHat && global.tauVHat.isEmpty, method)
    }
    intercept[IllegalArgumentException] { instance("NOPE", m, stream, dense, seed, locals = false) }
  }
}
