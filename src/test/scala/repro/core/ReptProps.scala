package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suites for the pure estimator algebra and the hash
  * family (sbt runs these under the ScalaCheck framework).
  */
object ReptEstimatorProps extends Properties("ReptEstimator") {
  import Prop.forAll
  import ReptEstimator._

  private val genM = Gen.chooseNum(2, 40)
  private val genTau = Gen.chooseNum(0L, 100000L)

  property("layout partitions processors exactly") = forAll(genM, Gen.chooseNum(1, 200)) {
    (m, c) =>
      val lay = Layout(m, c)
      lay.c1 * m + lay.c2 == c
  }

  property("estimateCleM is nonnegative and scales linearly") =
    forAll(genM, genTau) { (m, s) =>
      val c = 1 + (s % m).toInt
      val e = estimateCleM(m, c, s)
      e >= 0 && math.abs(estimateCleM(m, c, 2 * s) - 2 * e) < 1e-6
    }

  property("combineCgtM output lies in [min(t1,t2), max(t1,t2)]") =
    forAll(genM, Gen.chooseNum(1, 5), Gen.chooseNum(0.0, 1e6), Gen.chooseNum(0.0, 1e6),
           Gen.chooseNum(0.0, 1e8)) { (m, c1, t1, t2, eta) =>
      val c2 = 1 + (m - 1) / 2
      val out = combineCgtM(m, c1, c2, t1, t2, eta)
      out >= math.min(t1, t2) - 1e-6 && out <= math.max(t1, t2) + 1e-6
    }

  property("varianceCleM decreases in c") = forAll(genM, genTau, genTau) { (m, t, e) =>
    val vs = (1 to m).map(c => varianceCleM(t.toDouble, e.toDouble, m, c))
    vs.zip(vs.tail).forall { case (a, b) => a >= b - 1e-9 }
  }

  property("REPT variance never exceeds parallel-MASCOT variance") =
    forAll(genM, genTau, genTau) { (m, t, e) =>
      (1 to m).forall(c =>
        varianceCleM(t.toDouble, e.toDouble, m, c) <=
          varianceParallelMascot(t.toDouble, e.toDouble, m, c) + 1e-9)
    }

  property("estimateGlobal is unbiased under the inverse sampling identity") =
    forAll(genM, Gen.chooseNum(1, 10), genTau) { (m, cRaw, tau) =>
      // If every processor counted exactly p_{2,c}·τ/c (the expectation), the
      // estimate recovers τ.
      val c = math.min(cRaw, m)
      val perProc = tau.toDouble * c / (m.toDouble * m) / c
      val est = m.toDouble * m / c * (perProc * c)
      math.abs(est - tau) < 1e-6 * math.max(1.0, tau.toDouble)
    }
}

object EdgeHasherProps extends Properties("EdgeHasher") {
  import Prop.forAll

  property("slot is stable and in range") =
    forAll(Gen.chooseNum(1, 64), Gen.long, Gen.chooseNum(0, 1 << 20),
           Gen.chooseNum(0, 1 << 20)) { (m, seed, u, v) =>
      val h = new EdgeHasher(m, seed)
      val s = h.slot(u, v)
      s >= 0 && s < m && s == h.slot(v, u) && s == new EdgeHasher(m, seed).slot(u, v)
    }

  property("edge key canonical round trip") =
    forAll(Gen.chooseNum(0, Int.MaxValue), Gen.chooseNum(0, Int.MaxValue)) { (u, v) =>
      val k = EdgeStream.key(u, v)
      (EdgeStream.keyU(k) == math.min(u, v)) && (EdgeStream.keyV(k) == math.max(u, v))
    }

  property("mix64 is injective on sequential inputs (no easy collisions)") =
    forAll(Gen.chooseNum(0L, 1L << 40)) { base =>
      val outs = (0L until 64L).map(i => EdgeStream.mix64(base + i))
      outs.distinct.size == 64
    }
}
