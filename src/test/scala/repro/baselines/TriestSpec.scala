package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref
import repro.core.EdgeStream

class TriestSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(10, 36, 110, 666)
  private val stream = streamOf(edges)
  private val tau = Ref.tau(edges).toDouble

  test("budget >= |E| reproduces exact global and local counts") {
    // Also on the extreme node ids, and through both `processStream` entry points.
    for (g <- Seq(edges, Ref.extremeIdEdges); relabel <- Seq(false, true)) {
      val s = streamOf(g)
      val e = new TriestImprProcessor(s.length, 5)
      if (relabel) e.processStream(s, EdgeStream.relabel(s)) else e.processStream(s)
      assert(e.tauHat == Ref.tau(g).toDouble)
      assert(e.tauVHat.filter(_._2 != 0).view.mapValues(_.toLong).toMap == Ref.tauV(g))
      assert(e.tauVHat.keySet == Ref.tauV(g).keySet)
      assert(e.sampledEdges == s.length)
    }
  }

  test("budget larger than |E| is also exact and stores only |E| edges") {
    val e = new TriestImprProcessor(stream.length * 3, 5).processStream(stream)
    assert(e.tauHat == tau && e.sampledEdges == stream.length)
  }

  test("reservoir never exceeds its budget") {
    val budget = stream.length / 4
    val e = new TriestImprProcessor(budget, 5).processStream(stream)
    assert(e.sampledEdges == budget)
    assert(e.edgesSeen == stream.length)
  }

  test("triangle-free input counts zero") {
    val e = new TriestImprProcessor(10, 1)
      .processStream(streamOf(repro.graphgen.GraphGen.starEdges(12)))
    assert(e.tauHat == 0.0 && e.tauVHat.isEmpty)
  }

  test("deterministic in seed") {
    val a = new TriestImprProcessor(40, 21).processStream(stream)
    val b = new TriestImprProcessor(40, 21).processStream(stream)
    assert(a.tauHat == b.tauHat)
  }

  test("the IMPR weight is 1 until the reservoir first overflows") {
    // First M+1 edges: η_t = max(1, (t−1)(t−2)/(M(M−1))) = 1 for t ≤ M+1.
    val m = 10
    val weightAt = (t: Long) => math.max(1.0, (t - 1).toDouble * (t - 2) / (m * (m - 1.0)))
    assert((1L to (m + 1)).forall(t => weightAt(t) == 1.0))
    assert(weightAt(m + 2) > 1.0)
  }

  test("tauHat is unbiased (statistical, budget = |E|/2)") {
    val n = 3000
    val budget = stream.length / 2
    val ests = (0 until n).map(i =>
      new TriestImprProcessor(budget, 3000 + i).processStream(stream).tauHat)
    val mean = ests.sum / n
    val sd = math.sqrt(repro.stats.ErrorMetrics.sampleVariance(ests) / n)
    assert(math.abs(mean - tau) < 5 * sd + 0.01 * tau, s"mean=$mean tau=$tau sd=$sd")
  }

  test("tauHat is unbiased (statistical, budget = |E|/4)") {
    val n = 3000
    val budget = stream.length / 4
    val ests = (0 until n).map(i =>
      new TriestImprProcessor(budget, 7000 + i).processStream(stream).tauHat)
    val mean = ests.sum / n
    val sd = math.sqrt(repro.stats.ErrorMetrics.sampleVariance(ests) / n)
    assert(math.abs(mean - tau) < 5 * sd + 0.02 * tau, s"mean=$mean tau=$tau sd=$sd")
  }

  test("local estimates are unbiased for the heaviest node (statistical)") {
    val n = 3000
    val budget = stream.length / 2
    val (node, truth) = Ref.tauV(edges).maxBy(_._2)
    val ests = (0 until n).map(i =>
      new TriestImprProcessor(budget, 11000 + i).processStream(stream)
        .tauVHat.getOrElse(node, 0.0))
    val mean = ests.sum / n
    val sd = math.sqrt(repro.stats.ErrorMetrics.sampleVariance(ests) / n)
    assert(math.abs(mean - truth) < 5 * sd + 0.02 * truth,
      s"node=$node mean=$mean truth=$truth")
  }

  test("smaller budgets give larger estimation error (monotone accuracy)") {
    def nrmseAt(budget: Int, base: Int): Double = {
      val ests = (0 until 400).map(i =>
        new TriestImprProcessor(budget, base + i).processStream(stream).tauHat)
      repro.stats.ErrorMetrics.nrmse(ests, tau)
    }
    val big = nrmseAt(stream.length / 2, 100)
    val small = nrmseAt(stream.length / 8, 200)
    assert(small > big, s"small-budget NRMSE $small should exceed big-budget $big")
  }

  test("invalid budget is rejected") {
    intercept[IllegalArgumentException] { new TriestImprProcessor(1, 1) }
  }
}
