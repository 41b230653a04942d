package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref

class ReptSequentialSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(9, 30, 70, 101)
  private val stream = streamOf(edges)

  test("m=1, c=1 run is exact for global and local counts") {
    val r = Rept.run(stream, 1, 1, 42)
    assert(r.tauHat == Ref.tau(edges).toDouble)
    assert(r.tauVHat.view.mapValues(_.toLong).toMap == Ref.tauV(edges))
  }

  test("same seed gives identical results; different seeds differ") {
    val a = Rept.run(stream, 4, 3, 7)
    val b = Rept.run(stream, 4, 3, 7)
    val c = Rept.run(stream, 4, 3, 8)
    assert(a.tauHat == b.tauHat && a.perProcTau.toSeq == b.perProcTau.toSeq)
    assert(a.perProcTau.toSeq != c.perProcTau.toSeq) // overwhelmingly likely
  }

  test("c <= m: estimate matches the m^2/c formula over per-processor counters") {
    val r = Rept.run(stream, 5, 3, 11)
    assert(r.perProcTau.length == 3)
    assert(r.tauHat == 25.0 / 3 * r.perProcTau.sum)
  }

  test("c = 2m: two independent full groups, m/c1 scaling") {
    val r = Rept.run(stream, 3, 6, 13)
    assert(r.perProcTau.length == 6)
    assert(r.tauHat == 3.0 / 2 * r.perProcTau.sum)
    // Groups use different hash seeds: slots 0..2 vs 3..5 come from
    // different partitions of the sampled edges.
    val g0 = r.perProcTau.take(3).toSeq; val g1 = r.perProcTau.drop(3).toSeq
    assert(g0.sum >= 0 && g1.sum >= 0)
  }

  test("c > m with leftover: estimator combines and stays finite and nonnegative") {
    val r = Rept.run(stream, 3, 8, 17) // c1=2, c2=2
    assert(r.perProcTau.length == 8 && r.perProcEta.length == 8)
    assert(!r.tauHat.isNaN && r.tauHat >= 0)
  }

  test("locals=false suppresses local map computation") {
    val r = Rept.run(stream, 4, 4, 19, locals = false)
    assert(r.tauVHat.isEmpty && r.tauHat >= 0)
  }

  test("globals are the same with locals on and off") {
    for ((m, c) <- Seq((4, 3), (3, 6), (3, 8))) {
      val a = Rept.run(stream, m, c, 41)
      val b = Rept.run(stream, m, c, 41, locals = false)
      assert(a.tauHat == b.tauHat, s"m=$m c=$c")
      assert(a.perProcTau.toSeq == b.perProcTau.toSeq && a.perProcEta.toSeq == b.perProcEta.toSeq)
      assert(a.tauVHat.nonEmpty && b.tauVHat.isEmpty)
    }
  }

  test("slot counters are the same for every c in which the slot is active") {
    val m = 5
    val runs = (1 to 2 * m + 3).map(c => Rept.run(stream, m, c, 3, locals = false))
    val widest = runs.last // c = 13: c1 = 2, c2 = 3, eta tracked
    for (r <- runs; i <- 0 until r.c) {
      assert(r.perProcTau(i) == widest.perProcTau(i), s"tau c=${r.c} proc=$i")
      assert(r.perProcStored(i) == widest.perProcStored(i), s"stored c=${r.c} proc=$i")
      if (ReptEstimator.Layout(m, r.c).needsEta)
        assert(r.perProcEta(i) == widest.perProcEta(i), s"eta c=${r.c} proc=$i")
    }
  }

  test("a leftover group (c mod m != 0) matches standalone processors") {
    for (m <- Seq(4, 6); active <- Seq(1, 2, 3)) {
      val c = m + active
      val lay = ReptEstimator.Layout(m, c)
      val r = Rept.run(stream, m, c, 2, locals = false)
      for (slot <- 0 until active) {
        val p = new ReptProcessor(m, slot, Rept.groupSeed(2, 1), lay.needsEta).processStream(stream)
        assert(r.perProcTau(m + slot) == p.tau, s"tau m=$m c=$c slot=$slot")
        assert(r.perProcEta(m + slot) == p.eta, s"eta m=$m c=$c slot=$slot")
        assert(r.perProcStored(m + slot) == p.sampledEdges, s"stored m=$m c=$c slot=$slot")
      }
    }
  }

  test("nodes with local estimates are genuine triangle members") {
    val r = Rept.run(stream, 3, 3, 23)
    val triNodes = Ref.tauV(edges).keySet
    assert(r.tauVHat.keySet.subsetOf(triNodes))
  }

  test("local estimates are nonnegative in every layout regime") {
    for ((m, c) <- Seq((4, 2), (4, 4), (3, 6), (3, 8))) {
      val r = Rept.run(stream, m, c, 29)
      assert(r.tauVHat.values.forall(x => x >= 0 && !x.isNaN), s"m=$m c=$c")
    }
  }

  test("groupSeed decorrelates groups and is deterministic") {
    assert(Rept.groupSeed(5, 0) == Rept.groupSeed(5, 0))
    assert(Rept.groupSeed(5, 0) != Rept.groupSeed(5, 1))
    assert(Rept.groupSeed(5, 0) != Rept.groupSeed(6, 0))
  }

  test("global estimate equals scaled local sum / 3 in the single-group case") {
    // Each semi-triangle contributes 3 to Σ_v τ_v⁽ⁱ⁾, so the scaled local sum
    // is 3× the global estimate.
    val r = Rept.run(stream, 4, 4, 31)
    assert(math.abs(r.tauVHat.values.sum - 3.0 * r.tauHat) < 1e-6)
  }
}
