package repro.baselines

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

class SplitMixSpec extends AnyFunSuite {

  test("draw for draw the same as SplittableRandom, for doubles and bounded ints") {
    val bounds = Array(1, 2, 3, 7, 16, 1000, 12345, 1 << 30, (1 << 30) + 1, 2000000000, Int.MaxValue)
    for (seed <- -3L to 40L) {
      val ref = new SplittableRandom(seed)
      val rng = new SplitMix(seed)
      for (i <- 0 until 5000) {
        if (i % 3 == 0) {
          val (a, b) = (ref.nextDouble(), rng.nextDouble())
          assert(java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b), s"seed $seed draw $i")
        } else {
          val bound = bounds((i + seed.toInt * 7 + 1000) % bounds.length)
          assert(ref.nextInt(bound) == rng.nextInt(bound), s"seed $seed draw $i bound $bound")
        }
      }
    }
  }
}
