package repro.baselines

import repro.core.EdgeStream

/** The SplitMix64 generator of `java.util.SplittableRandom(seed)`, draw for
  * draw, for the two draws the baselines make. Unlike that class it is
  * Serializable, so a baseline engine can be checkpointed mid-stream.
  */
final class SplitMix(seed: Long) extends Serializable {
  private var state = seed

  /** Returns the state and advances it by the golden gamma. A draw mixes the
    * advanced state; `EdgeStream.mix64` adds the gamma itself, so it takes
    * the old one.
    */
  private def next(): Long = { val old = state; state += 0x9e3779b97f4a7c15L; old }

  private def nextInt(): Int = {
    val z0 = next() + 0x9e3779b97f4a7c15L
    val z = (z0 ^ (z0 >>> 33)) * 0x62a9d9ed799705f5L
    (((z ^ (z >>> 28)) * 0xcb24d0a5c88c35b3L) >>> 32).toInt
  }

  /** Uniform on [0, 1), from the top 53 bits of one 64-bit draw. */
  def nextDouble(): Double = (EdgeStream.mix64(next()) >>> 11) * (1.0 / (1L << 53))

  /** Uniform on [0, bound), rejecting draws from the incomplete last block. */
  def nextInt(bound: Int): Int = {
    require(bound > 0, s"bound must be positive, got $bound")
    val m = bound - 1
    var r = nextInt()
    if ((bound & m) == 0) r & m
    else {
      var u = r >>> 1
      while ({ r = u % bound; u + m - r < 0 }) u = nextInt() >>> 1
      r
    }
  }
}
