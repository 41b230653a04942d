package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref
import repro.core.EdgeStream

class GpsSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(10, 36, 110, 888)
  private val stream = streamOf(edges)
  private val tau = Ref.tau(edges).toDouble

  test("budget >= |E| is exact: no evictions, zero threshold, q = 1") {
    // Also on the extreme node ids, and through both `processStream` entry points.
    for (g <- Seq(edges, Ref.extremeIdEdges); relabel <- Seq(false, true)) {
      val s = streamOf(g)
      val e = new GpsInStreamProcessor(s.length, 5)
      if (relabel) e.processStream(s, EdgeStream.relabel(s)) else e.processStream(s)
      assert(e.threshold == 0.0)
      assert(e.tauHat == Ref.tau(g).toDouble)
      assert(e.tauVHat.filter(_._2 != 0).view.mapValues(_.toLong).toMap == Ref.tauV(g))
      assert(e.tauVHat.keySet == Ref.tauV(g).keySet)
      assert(e.sampledEdges == s.length)
    }
  }

  test("sample never exceeds the budget and threshold becomes positive") {
    val budget = stream.length / 4
    val e = new GpsInStreamProcessor(budget, 5).processStream(stream)
    assert(e.sampledEdges == budget)
    assert(e.threshold > 0.0)
  }

  test("triangle-free input counts zero") {
    val e = new GpsInStreamProcessor(10, 1)
      .processStream(streamOf(repro.graphgen.GraphGen.cycleEdges(10)))
    assert(e.tauHat == 0.0 && e.tauVHat.isEmpty)
  }

  test("deterministic in seed") {
    val a = new GpsInStreamProcessor(50, 21).processStream(stream)
    val b = new GpsInStreamProcessor(50, 21).processStream(stream)
    assert(a.tauHat == b.tauHat && a.threshold == b.threshold)
  }

  test("estimates are approximately unbiased at half budget (statistical)") {
    val n = 2000
    val budget = stream.length / 2
    val ests = (0 until n).map(i =>
      new GpsInStreamProcessor(budget, 2000 + i).processStream(stream).tauHat)
    val mean = ests.sum / n
    // In-Stream freezes thresholds mid-stream, so allow a modest bias band.
    assert(math.abs(mean - tau) / tau < 0.15, s"mean=$mean tau=$tau")
  }

  test("estimates remain in a sane band at quarter budget") {
    val n = 1500
    val budget = stream.length / 4
    val ests = (0 until n).map(i =>
      new GpsInStreamProcessor(budget, 6000 + i).processStream(stream).tauHat)
    val mean = ests.sum / n
    assert(math.abs(mean - tau) / tau < 0.25, s"mean=$mean tau=$tau")
    assert(ests.forall(e => e >= 0 && !e.isNaN))
  }

  test("triangle-closing edges get boosted weights") {
    // After a wedge (0,1),(0,2) is sampled, the closing edge (1,2) arrives
    // with weight 9·1+1 = 10 — observable through exactness bookkeeping at
    // full budget (all inserted, all weights retained internally) via
    // deterministic estimate increments: the estimate counts it with q = 1.
    val wedge = Seq((0, 1), (0, 2))
    assert(new GpsInStreamProcessor(10, 3).processStream(streamOf(wedge)).tauHat == 0.0)
    assert(new GpsInStreamProcessor(10, 3).processStream(streamOf(wedge :+ ((1, 2)))).tauHat == 1.0)
  }

  test("invalid budget is rejected") {
    intercept[IllegalArgumentException] { new GpsInStreamProcessor(0, 1) }
  }
}
