package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.{Ref, SparkSpec}
import repro.core.{EdgeStream, Rept}
import repro.graphgen.GraphGen

/** Fixture mode: every workload's code path on a stream small enough to
  * check by brute force, in seconds.
  */
class FixtureSpec extends AnyFunSuite with SparkSpec {

  private lazy val edges = Ref.cliquePlusNoise(9, 30, 80, 404)
  private lazy val pairs = edges.toArray
  private lazy val stream = EdgeStream.collectStream(GraphGen.fromEdges(spark, edges))

  private def sequential(m: Int, c: Int, seed: Long): Workloads.Outcome = {
    val r = Rept.run(stream, m, c, seed)
    Workloads.Outcome(r.tauHat, r.perProcTau, r.perProcEta, Some(r.tauVHat))
  }

  test("reference is exact at m = c = 1") {
    val ref = Reference.run(pairs, 1, 1, seed = 3, threads = 2)
    assert(ref.tau.toSeq == Seq(Ref.tau(edges)))
    assert(ref.tauHat == Ref.tau(edges).toDouble)
    val exact = Ref.tauV(edges)
    assert(ref.tauVHat.filter(_._2 != 0.0) == exact.map { case (v, n) => v -> n.toDouble })
  }

  test("reference matches Rept.run bit for bit, with and without the eta path") {
    for ((m, c, seed) <- Seq((4, 3, 5L), (3, 3, 7L), (2, 5, 9L), (3, 6, 11L), (10, 21, 13L))) {
      val ref = Reference.run(pairs, m, c, seed, threads = 2)
      assert(Workloads.check(sequential(m, c, seed), ref, ref.tauVHat.filter(_._2 != 0.0)).isEmpty,
        s"m=$m c=$c")
    }
  }

  test("the check rejects wrong counters and estimates") {
    val ref = Reference.run(pairs, 2, 5, 9L, threads = 2)
    val exp = ref.tauVHat.filter(_._2 != 0.0)
    val good = sequential(2, 5, 9L)
    assert(Workloads.check(good, ref, exp).isEmpty)
    val tau = good.tau.clone(); tau(0) += 1
    val eta = good.eta.clone(); eta(4) += 1
    val node = exp.keys.head
    for (bad <- Seq(good.copy(tau = tau), good.copy(eta = eta),
                    good.copy(tauHat = good.tauHat + 1e-6),
                    good.copy(locals = good.locals.map(l => l.updated(node, l(node) + 1e-6))),
                    good.copy(locals = good.locals.map(_ - node))))
      assert(Workloads.check(bad, ref, exp).nonEmpty)
  }

  for (w <- Workloads.all) test(s"workload ${w.name}: its op matches the reference") {
    val fixture = if (w.mode == Mode.Streaming) w.copy(batchSize = 30) else w
    val ref = Reference.run(pairs, w.m, w.c, w.defaultSeed, threads = 2)
    val out = Workloads.op(spark, fixture, stream, w.defaultSeed, new Tracer)
    val exp = if (w.locals) ref.tauVHat.filter(_._2 != 0.0) else Map.empty[Int, Double]
    assert(out.locals.isDefined == w.locals)
    assert(Workloads.check(out, ref, exp).isEmpty)
  }
}
