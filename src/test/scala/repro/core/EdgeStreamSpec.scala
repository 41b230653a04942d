package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

import scala.util.Random

class EdgeStreamSpec extends AnyFunSuite {

  test("key packs canonical (min,max) regardless of argument order") {
    assert(EdgeStream.key(3, 7) == EdgeStream.key(7, 3))
    assert(EdgeStream.keyU(EdgeStream.key(7, 3)) == 3)
    assert(EdgeStream.keyV(EdgeStream.key(7, 3)) == 7)
  }

  test("key round-trips endpoints for random node ids") {
    val rng = new Random(1)
    for (_ <- 0 until 500) {
      val u = rng.nextInt(Int.MaxValue); val v = rng.nextInt(Int.MaxValue)
      if (u != v) {
        val k = EdgeStream.key(u, v)
        assert(Set(EdgeStream.keyU(k), EdgeStream.keyV(k)) == Set(u, v))
        assert(EdgeStream.keyU(k) < EdgeStream.keyV(k))
      }
    }
  }

  test("distinct edges map to distinct keys") {
    val keys = for (u <- 0 until 50; v <- (u + 1) until 50) yield EdgeStream.key(u, v)
    assert(keys.distinct.size == keys.size)
  }

  test("mix64 is deterministic and collision-free on small inputs") {
    assert(EdgeStream.mix64(42L) == EdgeStream.mix64(42L))
    val outs = (0L until 1000L).map(EdgeStream.mix64)
    assert(outs.distinct.size == 1000)
    val ones = outs.count(x => (x & 1L) == 1L)
    assert(ones > 400 && ones < 600, s"low-bit bias: $ones/1000")
  }

  test("hasher is deterministic in (m, seed)") {
    val h1 = new EdgeHasher(7, 99); val h2 = new EdgeHasher(7, 99)
    for (u <- 0 until 30; v <- (u + 1) until 30)
      assert(h1.slot(u, v) == h2.slot(u, v))
  }

  test("hasher slots stay in range for every m") {
    val rng = new Random(2)
    for (_ <- 0 until 500) {
      val m = 1 + rng.nextInt(64)
      val u = rng.nextInt(100000); val v = u + 1 + rng.nextInt(100000)
      val s = new EdgeHasher(m, 5).slot(u, v)
      assert(s >= 0 && s < m)
    }
  }

  test("hasher rejects m < 1") {
    intercept[IllegalArgumentException] { new EdgeHasher(0, 1) }
  }

  test("hasher is uniform across slots (chi-square, m=10, 20k edges)") {
    val m = 10
    val h = new EdgeHasher(m, 7)
    val counts = new Array[Int](m)
    var i = 0
    while (i < 20000) { counts(h.slot(i, i + 100000)) += 1; i += 1 }
    val exp = 20000.0 / m
    val chi2 = counts.map(c => (c - exp) * (c - exp) / exp).sum
    // 9 dof: P(chi2 > 27.9) ≈ 0.001.
    assert(chi2 < 27.9, s"chi2=$chi2 counts=${counts.toSeq}")
  }

  test("different seeds give (near-)independent slot assignments") {
    val m = 4
    val h1 = new EdgeHasher(m, 1); val h2 = new EdgeHasher(m, 2)
    val n = 20000
    var agree = 0
    var i = 0
    while (i < n) { if (h1.slot(i, i + 1) == h2.slot(i, i + 1)) agree += 1; i += 1 }
    val frac = agree.toDouble / n
    assert(math.abs(frac - 1.0 / m) < 0.02, s"agreement fraction $frac")
  }

  test("pairwise slot independence for distinct edges under one hash") {
    val m = 3
    val h = new EdgeHasher(m, 31)
    val n = 30000
    var both0 = 0
    var i = 0
    while (i < n) {
      if (h.slot(2 * i, 2 * i + 1) == 0 && h.slot(2 * i + 1, 2 * i + 2) == 0) both0 += 1
      i += 1
    }
    val frac = both0.toDouble / n
    assert(math.abs(frac - 1.0 / (m * m)) < 0.015, s"joint fraction $frac")
  }

  test("relabel numbers endpoints 0..n-1 in first-arrival order, each edge's smaller endpoint first") {
    val stream = Array(EdgeStream.key(5, 9), EdgeStream.key(9, 2), EdgeStream.key(5, 2), EdgeStream.key(7, 1),
      EdgeStream.key(9, 7))
    val r = EdgeStream.relabel(stream)
    assert(r.original.toSeq == Seq(5, 9, 2, 1, 7))
    def pair(k: Long) = (EdgeStream.keyU(k), EdgeStream.keyV(k))
    assert(r.pairs.toSeq.map(pair) == Seq((0, 1), (2, 1), (2, 0), (3, 4), (4, 1)))
  }

  test("relabel's dense -> original table round-trips every endpoint of a random stream") {
    val rng = new Random(3)
    val stream = Array.fill(5000) {
      val u = rng.nextInt(3000) - 1500; val v = rng.nextInt(3000) - 1500
      EdgeStream.key(u, v)
    }
    val r = EdgeStream.relabel(stream)
    for (i <- stream.indices) {
      assert(r.original(EdgeStream.keyU(r.pairs(i))) == EdgeStream.keyU(stream(i)), s"edge $i")
      assert(r.original(EdgeStream.keyV(r.pairs(i))) == EdgeStream.keyV(stream(i)), s"edge $i")
    }
    val endpoints = stream.iterator.flatMap(k => Iterator(EdgeStream.keyU(k), EdgeStream.keyV(k))).toSeq
    assert(r.original.toSeq == endpoints.distinct)
    // Dense ids are handed out in order: the first mention of d follows that of d - 1.
    val dense = r.pairs.iterator.flatMap(p => Iterator(EdgeStream.keyU(p), EdgeStream.keyV(p))).toSeq
    assert(dense.distinct == r.original.indices)
  }

  test("relabel handles ids 0, -1, Int.MinValue and Int.MaxValue") {
    val special = Seq(0, -1, Int.MinValue, Int.MaxValue)
    val edges = Seq((Int.MaxValue, -1), (0, Int.MinValue), (-1, 0), (Int.MinValue, Int.MaxValue), (0, 0))
    val stream = edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray
    val r = EdgeStream.relabel(stream)
    assert(r.original.toSeq == Seq(-1, Int.MaxValue, Int.MinValue, 0))
    assert(r.original.sorted.toSeq == special.sorted)
    for (i <- stream.indices) {
      assert(r.original(EdgeStream.keyU(r.pairs(i))) == EdgeStream.keyU(stream(i)))
      assert(r.original(EdgeStream.keyV(r.pairs(i))) == EdgeStream.keyV(stream(i)))
    }
    // The self-loop (0, 0) names one node twice.
    assert(EdgeStream.keyU(r.pairs.last) == 3 && EdgeStream.keyV(r.pairs.last) == 3)
    val ids = new DenseIds
    assert(special.map(ids(_)) == Seq(0, 1, 2, 3) && special.map(ids(_)) == Seq(0, 1, 2, 3))
    assert(ids.original.toSeq == special)
  }

  test("relabel of the empty stream is empty") {
    val r = EdgeStream.relabel(Array.emptyLongArray)
    assert(r.pairs.isEmpty && r.original.isEmpty)
  }

  test("m=1 hasher maps everything to slot 0") {
    val h = new EdgeHasher(1, 77)
    for (u <- 0 until 50) assert(h.slot(u, u + 1) == 0)
  }
}

/** Spark round-trip tests for the stream collectors (needs a session). */
class EdgeStreamSparkSpec extends SparkSpec {

  test("collectStream orders by t and packs canonically") {
    val df = repro.graphgen.GraphGen.fromEdges(spark, Seq((5, 1), (2, 3), (9, 0)))
    val s = EdgeStream.collectStream(df)
    assert(s.toSeq == Seq(EdgeStream.key(1, 5), EdgeStream.key(2, 3), EdgeStream.key(0, 9)))
  }

  test("toDF round-trips a stream") {
    val stream = Array(EdgeStream.key(1, 5), EdgeStream.key(2, 3), EdgeStream.key(0, 9))
    val back = EdgeStream.collectStream(EdgeStream.toDF(spark, stream))
    assert(back.toSeq == stream.toSeq)
  }
}
