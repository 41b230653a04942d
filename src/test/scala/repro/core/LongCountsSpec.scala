package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable
import scala.util.Random

class LongCountsSpec extends AnyFunSuite {

  test("adds and updates match a reference map through growth, extreme keys included") {
    val rng = new Random(7)
    val special = Seq(0L, -1L, 1L, Long.MinValue, Long.MaxValue, Int.MinValue.toLong, Int.MaxValue.toLong)
    val keys = (special ++ Seq.fill(5000)(rng.nextLong()) ++ (1L to 2000L).map(_ << 32)).toIndexedSeq
    val c = new LongCounts
    val ref = mutable.HashMap.empty[Long, Long]
    for (step <- 1 to 30000) {
      val k = keys(math.min(rng.nextInt(keys.size), rng.nextInt(keys.size)))
      val x = rng.nextInt(5) - 1L // zero increments and values still create entries
      if (rng.nextInt(3) == 0) { c(k) = x; ref(k) = x }
      else { c.add(k, x); ref(k) = ref.getOrElse(k, 0L) + x }
      if (step % 5000 == 0) {
        assert(c.size == ref.size, s"step $step")
        val seen = mutable.HashMap.empty[Long, Long]
        c.foreachEntry((k, n) => { assert(!seen.contains(k), s"key $k twice"); seen(k) = n })
        assert(seen == ref && c.toMap == ref, s"step $step")
        for (k <- keys) assert(c(k) == ref.getOrElse(k, 0L), s"step $step key $k")
      }
    }
  }

  test("an absent key reads 0 and is not an entry") {
    val c = new LongCounts
    assert(c(0L) == 0L && c(42L) == 0L && c.size == 0)
    c.add(0L, 0L)
    assert(c.size == 1 && c(0L) == 0L)
    var n = 0
    c.foreachEntry((k, x) => { assert(k == 0L && x == 0L); n += 1 })
    assert(n == 1)
  }
}
