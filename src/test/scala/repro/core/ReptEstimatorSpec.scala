package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class ReptEstimatorSpec extends AnyFunSuite {
  import ReptEstimator._

  test("layout: c <= m is a single group of c slots") {
    val lay = Layout(10, 7)
    assert(lay.cLeM && lay.c1 == 0 && lay.c2 == 7 && !lay.needsEta)
  }

  test("layout: c = m is still the single-group case") {
    val lay = Layout(10, 10)
    assert(lay.cLeM && lay.c1 == 0 && lay.c2 == 10)
  }

  test("layout: c = 2m gives two full groups and no eta") {
    val lay = Layout(5, 10)
    assert(!lay.cLeM && lay.c1 == 2 && lay.c2 == 0 && !lay.needsEta)
  }

  test("layout: c = c1*m + c2 gives c1 full groups plus a leftover") {
    val lay = Layout(5, 13)
    assert(lay.c1 == 2 && lay.c2 == 3 && lay.needsEta)
  }

  test("layout rejects invalid m, c") {
    intercept[IllegalArgumentException] { Layout(0, 1) }
    intercept[IllegalArgumentException] { Layout(1, 0) }
  }

  test("estimateCleM matches m^2/c * sum") {
    assert(estimateCleM(10, 4, 12L) == 100.0 / 4 * 12)
  }

  test("estimateFullGroups matches m/c1 * sum") {
    assert(estimateFullGroups(5, 3, 30L) == 5.0 / 3 * 30)
  }

  test("estimateEta matches m^3/c * sum") {
    assert(estimateEta(4, 6, 9L) == 64.0 / 6 * 9)
  }

  test("combineCgtM is the inverse-variance weighted mean") {
    // m=5, c1=2, c2=3: w1 = t1*4/2, w2 = (t1*22 + 2*eta*2)/3.
    val t1 = 100.0; val t2 = 140.0; val eta = 50.0
    val w1 = t1 * 4 / 2
    val w2 = (t1 * 22 + 2 * eta * 2) / 3
    val expected = (w2 * t1 + w1 * t2) / (w1 + w2)
    assert(math.abs(combineCgtM(5, 2, 3, t1, t2, eta) - expected) < 1e-12)
  }

  test("combineCgtM lies between its two inputs when weights are positive") {
    val rng = new Random(3)
    for (_ <- 0 until 200) {
      val t1 = rng.nextDouble() * 1000 + 1
      val t2 = rng.nextDouble() * 1000 + 1
      val eta = rng.nextDouble() * 5000
      val out = combineCgtM(7, 2, 3, t1, t2, eta)
      assert(out >= math.min(t1, t2) - 1e-9 && out <= math.max(t1, t2) + 1e-9)
    }
  }

  test("combineCgtM degenerate zero-information case falls back to the mean") {
    assert(combineCgtM(5, 2, 3, 0.0, 40.0, 0.0) == 20.0)
  }

  test("combineCgtM weights favour the full groups (w1 < w2 when eta large)") {
    // With eta >> tau the leftover estimate has huge variance → result ≈ t1.
    val out = combineCgtM(10, 3, 4, 100.0, 500.0, 1e7)
    assert(math.abs(out - 100.0) < 1.0, s"out=$out")
  }

  test("estimateGlobal dispatches the c <= m path") {
    val taus = Seq(3L, 5L, 2L)
    assert(estimateGlobal(10, 3, taus) == estimateCleM(10, 3, 10L))
  }

  test("estimateGlobal dispatches the c2 = 0 path") {
    val taus = Seq.fill(10)(2L)
    assert(estimateGlobal(5, 10, taus) == estimateFullGroups(5, 2, 20L))
  }

  test("estimateGlobal dispatches the c2 != 0 combined path") {
    val m = 4; val c = 10 // c1=2, c2=2
    val taus = (1L to 10L).toSeq
    val etas = Seq.fill(10)(1L)
    val t1 = estimateFullGroups(m, 2, (1L to 8L).sum)
    val t2 = estimateCleM(m, 2, 9L + 10L)
    val eh = estimateEta(m, c, 10L)
    assert(estimateGlobal(m, c, taus, etas) == combineCgtM(m, 2, 2, t1, t2, eh))
  }

  test("estimateGlobal validates counter lengths") {
    intercept[IllegalArgumentException] { estimateGlobal(10, 3, Seq(1L, 2L)) }
    intercept[IllegalArgumentException] { estimateGlobal(4, 10, (1L to 10L).toSeq, Seq(1L)) }
  }

  test("estimateGlobal is linear in the counters (c <= m)") {
    val rng = new Random(4)
    for (_ <- 0 until 100) {
      val taus = Seq.fill(6)(rng.nextInt(100).toLong)
      val a = estimateGlobal(8, 6, taus)
      val b = estimateGlobal(8, 6, taus.map(_ * 3))
      assert(math.abs(b - 3 * a) < 1e-9)
    }
  }

  test("varianceCleM at c = m collapses to tau(m-1)") {
    for (m <- 2 to 20; tau <- Seq(10.0, 1000.0); eta <- Seq(0.0, 1e6))
      assert(math.abs(varianceCleM(tau, eta, m, m) - tau * (m - 1)) < 1e-9)
  }

  test("varianceCleM matches the Theorem 3 formula") {
    assert(varianceCleM(100, 1000, 10, 4) == (100.0 * 96 + 2000.0 * 6) / 4)
  }

  test("varianceFullGroups matches tau(m-1)/c1") {
    assert(varianceFullGroups(100, 10, 4) == 100.0 * 9 / 4)
  }

  test("REPT variance is strictly below parallel MASCOT variance for c > 1") {
    val rng = new Random(5)
    for (_ <- 0 until 200) {
      val m = 2 + rng.nextInt(30)
      val c = 2 + rng.nextInt(m - 1)
      val tau = rng.nextDouble() * 1e5 + 1
      val eta = rng.nextDouble() * 1e7
      assert(varianceCleM(tau, eta, m, c) < varianceParallelMascot(tau, eta, m, c))
    }
  }

  test("variance gap grows with eta (the covariance term)") {
    val m = 10; val c = 10; val tau = 1000.0
    val gapSmall = varianceParallelMascot(tau, 1e3, m, c) - varianceCleM(tau, 1e3, m, c)
    val gapBig = varianceParallelMascot(tau, 1e6, m, c) - varianceCleM(tau, 1e6, m, c)
    assert(gapBig > gapSmall)
  }
}
