package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref
import repro.core.EdgeStream
import repro.stats.ErrorMetrics

class MascotSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(10, 36, 110, 555)
  private val stream = streamOf(edges)
  private val tau = Ref.tau(edges).toDouble
  private val eta = Ref.eta(edges).toDouble

  test("p = 1 reproduces exact global and local counts") {
    // Also on the extreme node ids, and through both `processStream` entry points.
    for (g <- Seq(edges, Ref.extremeIdEdges); relabel <- Seq(false, true)) {
      val s = streamOf(g)
      val e = new MascotProcessor(1.0, 9)
      if (relabel) e.processStream(s, EdgeStream.relabel(s)) else e.processStream(s)
      assert(e.tauHat == Ref.tau(g).toDouble)
      assert(e.tauVHat.filter(_._2 != 0).view.mapValues(_.toLong).toMap == Ref.tauV(g))
      assert(e.tauVHat.keySet == Ref.tauV(g).keySet)
      assert(e.sampledEdges == s.length)
    }
  }

  test("triangle-free input counts zero at any p") {
    for (p <- Seq(0.3, 1.0)) {
      val e = new MascotProcessor(p, 3)
        .processStream(streamOf(repro.graphgen.GraphGen.cycleEdges(8)))
      assert(e.tauHat == 0.0 && e.tauVHat.isEmpty)
    }
  }

  test("tauHat is semiTriangles scaled by p^-2") {
    val e = new MascotProcessor(0.5, 11).processStream(stream)
    assert(e.tauHat == e.semiTriangles / 0.25)
  }

  test("deterministic in seed") {
    val a = new MascotProcessor(0.4, 21).processStream(stream)
    val b = new MascotProcessor(0.4, 21).processStream(stream)
    assert(a.tauHat == b.tauHat && a.sampledEdges == b.sampledEdges)
  }

  test("sampled edge count concentrates around p|E|") {
    val n = 300
    val p = 0.3
    val counts = (0 until n).map(i =>
      new MascotProcessor(p, 100 + i).processStream(stream).sampledEdges.toDouble)
    val mean = counts.sum / n
    val expected = p * stream.length
    assert(math.abs(mean - expected) < 4 * math.sqrt(p * (1 - p) * stream.length / n),
      s"mean=$mean expected=$expected")
  }

  test("tauHat is unbiased (statistical)") {
    val n = 4000; val p = 0.25
    val ests = (0 until n).map(i =>
      new MascotProcessor(p, 1000 + i).processStream(stream).tauHat)
    val theoryVar = tau * (1 / (p * p) - 1) + 2 * eta * (1 / p - 1)
    val mean = ests.sum / n
    assert(math.abs(mean - tau) < 4 * math.sqrt(theoryVar / n), s"mean=$mean tau=$tau")
  }

  test("empirical variance matches the MASCOT Lemma 6 formula") {
    val n = 6000; val p = 0.25
    val ests = (0 until n).map(i =>
      new MascotProcessor(p, 5000 + i).processStream(stream).tauHat)
    val theory = tau * (1 / (p * p) - 1) + 2 * eta * (1 / p - 1)
    val empirical = ErrorMetrics.sampleVariance(ests)
    assert(math.abs(empirical - theory) / theory < 0.25,
      s"empirical=$empirical theory=$theory")
  }

  test("self-loops are ignored") {
    val e = new MascotProcessor(1.0, 1).processStream(Array(EdgeStream.key(4, 4)))
    assert(e.sampledEdges == 0 && e.tauHat == 0.0)
  }

  test("local estimates are unbiased for the heaviest node") {
    val n = 3000; val p = 0.3
    val (node, truth) = Ref.tauV(edges).maxBy(_._2)
    val ests = (0 until n).map(i =>
      new MascotProcessor(p, 9000 + i).processStream(stream).tauVHat.getOrElse(node, 0.0))
    val etaV = Ref.etaV(edges, node).toDouble
    val theoryVar = truth * (1 / (p * p) - 1) + 2 * etaV * (1 / p - 1)
    val mean = ests.sum / n
    assert(math.abs(mean - truth) < 4 * math.sqrt(theoryVar / n),
      s"node=$node mean=$mean truth=$truth")
  }

  test("invalid p is rejected") {
    intercept[IllegalArgumentException] { new MascotProcessor(0.0, 1) }
    intercept[IllegalArgumentException] { new MascotProcessor(1.5, 1) }
  }
}
