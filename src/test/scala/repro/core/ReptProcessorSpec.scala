package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, TriestImprProcessor}

class ReptProcessorSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  /** Definition-level reference: σ is a semi-triangle of slot i iff its two
    * non-last stream edges both hash to i.
    */
  private def refSemi(edges: Seq[(Int, Int)], m: Int, seed: Long, slot: Int): Long = {
    val h = new EdgeHasher(m, seed)
    Ref.triangles(edges).count { tri =>
      tri.edgeTimes.filterNot(_._1 == tri.lastEdge).keys
        .forall { case (u, v) => h.slot(u, v) == slot }
    }.toLong
  }

  private def refSemiV(edges: Seq[(Int, Int)], m: Int, seed: Long, slot: Int): Map[Int, Long] = {
    val h = new EdgeHasher(m, seed)
    Ref.triangles(edges)
      .filter { tri =>
        tri.edgeTimes.filterNot(_._1 == tri.lastEdge).keys
          .forall { case (u, v) => h.slot(u, v) == slot }
      }
      .flatMap(_.nodes)
      .groupBy(identity).view.mapValues(_.size.toLong).toMap
  }

  test("single triangle, m=1: tau = 1 and each node has tau_v = 1") {
    val p = new ReptProcessor(1, 0, 42).processStream(streamOf(Seq((0, 1), (0, 2), (1, 2))))
    assert(p.tau == 1L)
    assert(p.tauV == Map(0 -> 1L, 1 -> 1L, 2 -> 1L))
  }

  test("triangle-free graphs count zero") {
    for (edges <- Seq(repro.graphgen.GraphGen.cycleEdges(6),
                      repro.graphgen.GraphGen.starEdges(10),
                      Seq((0, 1), (2, 3), (4, 5)))) {
      val p = new ReptProcessor(1, 0, 1).processStream(streamOf(edges))
      assert(p.tau == 0L && p.tauV.isEmpty)
    }
  }

  test("K4, m=1: tau = 4 and every node sits in 3 triangles") {
    val p = new ReptProcessor(1, 0, 7)
      .processStream(streamOf(repro.graphgen.GraphGen.completeGraphEdges(4)))
    assert(p.tau == 4L)
    assert(p.tauV == Map(0 -> 3L, 1 -> 3L, 2 -> 3L, 3 -> 3L))
  }

  test("m=1 reproduces exact tau and tau_v on random graphs") {
    for (seed <- 1 to 5) {
      val edges = Ref.randomGraph(25, 80, seed)
      val p = new ReptProcessor(1, 0, seed).processStream(streamOf(edges))
      assert(p.tau == Ref.tau(edges), s"seed=$seed")
      assert(p.tauV.filter(_._2 != 0) == Ref.tauV(edges), s"seed=$seed")
    }
  }

  test("m=1 reproduces exact counts on a clique-plus-noise graph") {
    val edges = Ref.cliquePlusNoise(8, 30, 60, 11)
    val p = new ReptProcessor(1, 0, 3).processStream(streamOf(edges))
    assert(p.tau == Ref.tau(edges))
    assert(p.tauV.filter(_._2 != 0) == Ref.tauV(edges))
  }

  test("semi-triangle semantics match the definition for m=2..5 on random graphs") {
    for (seed <- 1 to 4; m <- 2 to 5; slot <- 0 until m) {
      val edges = Ref.cliquePlusNoise(7, 20, 40, seed * 13)
      val p = new ReptProcessor(m, slot, seed * 31).processStream(streamOf(edges))
      assert(p.tau == refSemi(edges, m, seed * 31, slot), s"m=$m slot=$slot seed=$seed")
    }
  }

  test("per-node semi-triangle counts match the definition") {
    for (seed <- 1 to 3; m <- 2 to 3; slot <- 0 until m) {
      val edges = Ref.cliquePlusNoise(7, 20, 40, seed * 17)
      val p = new ReptProcessor(m, slot, seed * 7).processStream(streamOf(edges))
      assert(p.tauV.filter(_._2 != 0) == refSemiV(edges, m, seed * 7, slot),
        s"m=$m slot=$slot seed=$seed")
    }
  }

  test("stored edges are exactly those hashing to the slot") {
    val edges = Ref.randomGraph(30, 100, 9)
    val m = 3
    for (slot <- 0 until m) {
      val h = new EdgeHasher(m, 5)
      val expected = edges.count { case (u, v) => h.slot(u, v) == slot }
      val p = new ReptProcessor(m, slot, 5).processStream(streamOf(edges))
      assert(p.sampledEdges == expected)
    }
  }

  test("self-loops are ignored entirely") {
    val p = new ReptProcessor(1, 0, 1).processStream(Array(EdgeStream.key(3, 3)))
    assert(p.tau == 0 && p.sampledEdges == 0)
    val q = new ReptProcessor(1, 0, 1)
      .processStream(streamOf(Seq((0, 1), (0, 2))) ++ Array(EdgeStream.key(2, 2)) ++
        streamOf(Seq((1, 2))))
    assert(q.tau == 1)
  }

  test("counting happens before the sampling decision (stream-order dependence)") {
    // Triangle whose last edge is never stored must still be counted if the
    // first two are: with m=1 everything is stored; the count accrues at the
    // third edge's arrival regardless of its own insertion.
    val wedge = Seq((0, 1), (0, 2))
    assert(new ReptProcessor(1, 0, 0).processStream(streamOf(wedge)).tau == 0)
    assert(new ReptProcessor(1, 0, 0).processStream(streamOf(wedge :+ ((1, 2)))).tau == 1)
  }

  test("eta counters at m=1 equal the exact etaPlus on hand fixtures") {
    // Bowtie where the shared edge (0,2) is non-last in both triangles: η⁺
    // counts the pair once.
    val both = Seq((0, 1), (0, 2), (1, 2), (2, 3), (0, 3))
    val p1 = new ReptProcessor(1, 0, 1, trackEta = true).processStream(streamOf(both))
    assert(Ref.eta(both) == 1 && Ref.etaPlus(both) == 1)
    assert(p1.eta == 1)
    // Bowtie where (0,2) is the last edge of the first triangle: η = 0 but
    // η⁺ = 1 (shared edge last in the earlier triangle only).
    val lastInFirst = Seq((1, 2), (0, 1), (0, 2), (2, 3), (0, 3))
    val p2 = new ReptProcessor(1, 0, 1, trackEta = true).processStream(streamOf(lastInFirst))
    assert(Ref.eta(lastInFirst) == 0 && Ref.etaPlus(lastInFirst) == 1)
    assert(p2.eta == 1)
  }

  test("eta counters at m=1 equal exact etaPlus on random graphs") {
    for (seed <- 1 to 5) {
      val edges = Ref.cliquePlusNoise(8, 25, 50, seed * 19)
      val p = new ReptProcessor(1, 0, seed, trackEta = true).processStream(streamOf(edges))
      assert(p.eta == Ref.etaPlus(edges), s"seed=$seed")
    }
  }

  test("per-node eta counters at m=1 equal exact etaPlus_v") {
    for (seed <- 1 to 3) {
      val edges = Ref.cliquePlusNoise(7, 20, 40, seed * 23)
      val p = new ReptProcessor(1, 0, seed, trackEta = true).processStream(streamOf(edges))
      val nodes = edges.flatMap { case (u, v) => Seq(u, v) }.distinct
      for (v <- nodes) {
        assert(p.etaV.getOrElse(v, 0L) == Ref.etaPlusV(edges, v), s"seed=$seed node=$v")
      }
    }
  }

  test("tau edge counters at m=1 count triangles per stored edge") {
    val edges = Seq((0, 1), (0, 2), (1, 2), (2, 3), (0, 3))
    val p = new ReptProcessor(1, 0, 1, trackEta = true).processStream(streamOf(edges))
    // Edge (0,2) sits in both triangles; (0,1),(1,2) in one; (2,3),(0,3) in one.
    assert(p.tauEdgeCounters(EdgeStream.key(0, 2)) == 2)
    assert(p.tauEdgeCounters(EdgeStream.key(0, 1)) == 1)
    assert(p.tauEdgeCounters(EdgeStream.key(2, 3)) == 1)
  }

  test("m=1 counters record is the exact counter: tau, tau_v and eta+") {
    val edges = Ref.cliquePlusNoise(8, 30, 70, 13)
    val r = new ReptProcessor(1, 0, 5, trackEta = true).processStream(streamOf(edges))
      .counters(locals = true)
    assert(r.tau == Ref.tau(edges))
    assert(r.nodes.zip(r.tauV).toMap == Ref.tauV(edges))
    assert(r.eta == Ref.etaPlus(edges))
  }

  test("counters record covers exactly the nodes with nonzero tau_v") {
    val edges = Ref.cliquePlusNoise(7, 20, 40, 33)
    val p = new ReptProcessor(3, 1, 4, trackEta = true).processStream(streamOf(edges))
    val r = p.counters(locals = true)
    assert(r.nodes.distinct.length == r.nodes.length)
    assert(r.nodes.zip(r.tauV).toMap == p.tauV.filter(_._2 != 0))
    assert(r.nodes.zip(r.etaV).toMap.filter(_._2 != 0) == p.etaV.filter(_._2 != 0))
    assert(r.tau == p.tau && r.eta == p.eta && r.stored == p.sampledEdges)
    val g = p.counters(locals = false)
    assert(g.nodes.isEmpty && g.tauV.isEmpty && g.etaV.isEmpty)
    assert(g.tau == p.tau && g.eta == p.eta && g.stored == p.sampledEdges)
  }

  test("trackEta=false leaves eta structures untouched") {
    val edges = Ref.cliquePlusNoise(6, 15, 20, 3)
    val p = new ReptProcessor(1, 0, 1).processStream(streamOf(edges))
    assert(p.eta == 0 && p.etaV.isEmpty && p.tauEdgeCounters.isEmpty)
  }

  test("slotId outside [0, m) is rejected") {
    intercept[IllegalArgumentException] { new ReptProcessor(3, 3, 1) }
    intercept[IllegalArgumentException] { new ReptProcessor(3, -1, 1) }
  }

  test("sum of per-slot taus over all m slots of one hash equals a definition sum") {
    // Union over slots of each slot's semi-triangles = triangles whose two
    // non-last edges hash to the same (any) slot.
    val edges = Ref.cliquePlusNoise(8, 25, 50, 41)
    val m = 3; val seed = 77L
    val total = (0 until m).map(s =>
      new ReptProcessor(m, s, seed).processStream(streamOf(edges)).tau).sum
    val h = new EdgeHasher(m, seed)
    val expected = Ref.triangles(edges).count { tri =>
      val slots = tri.edgeTimes.filterNot(_._1 == tri.lastEdge).keys
        .map { case (u, v) => h.slot(u, v) }.toSeq
      slots.distinct.size == 1
    }
    assert(total == expected)
  }

  test("a repeated edge is stored and counted once") {
    val edges = Seq((0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (0, 1), (2, 3))
    val p = new ReptProcessor(1, 0, 1, trackEta = true).processStream(streamOf(edges))
    assert(p.sampledEdges == edges.map { case (u, v) => EdgeStream.key(u, v) }.distinct.size)
    assert(p.counters(locals = false).stored == p.sampledEdges)
  }

  test("a state passed through the streaming query's encoder at several cuts finishes like an uninterrupted run") {
    // A triangle-rich graph whose clique holds the extreme node ids, and, at
    // m = 1, the small extreme-id fixture, whose counters are the exact ones.
    val ids = Map(0 -> 0, 1 -> -1, 2 -> Int.MinValue, 3 -> Int.MaxValue)
    val rich = streamOf(Ref.cliquePlusNoise(30, 400, 1500, 8).map { case (u, v) =>
      (ids.getOrElse(u, u * 7919 - 1000000), ids.getOrElse(v, v * 7919 - 1000000))
    })
    for ((stream, ms, exact) <- Seq((rich, Seq(1, 3, 10), None),
                                    (streamOf(Ref.extremeIdEdges), Seq(1), Some(Ref.tauV(Ref.extremeIdEdges))));
         cuts = Seq(0, 0, 1, stream.length / 7, stream.length / 2, stream.length - 1, stream.length);
         m <- ms; eta <- Seq(false, true); slot <- Seq(0, m - 1)) {
      val whole = new ReptProcessor(m, slot, 41, eta).processStream(stream)
      // The first batch is a plain pass, each later one resumes the state
      // the one before left, and a last, empty batch resumes the final state.
      var s: ReptProcessor.State = null
      for (Seq(from, to) <- cuts.sliding(2)) {
        val (batch, p) = (stream.slice(from, to), new ReptProcessor(m, slot, 41, eta))
        if (s == null) p.processStream(batch) else p.resume(s, batch)
        s = ReptProcessor.State.fromBytes(p.state(to.toLong).toBytes)
        assert(s.seen == to)
      }
      val p = new ReptProcessor(m, slot, 41, eta).resume(s, Array.emptyLongArray)
      val (a, b) = (whole.counters(locals = true), p.counters(locals = true))
      val at = s"|E|=${stream.length} m=$m slot=$slot eta=$eta"
      assert(a.tau > 0 && (!eta || a.eta > 0), at)
      assert((a.tau, a.eta, a.stored) == (b.tau, b.eta, b.stored), at)
      def locals(r: ReptProcessor.Counters) = r.nodes.indices.map(j => (r.nodes(j), r.tauV(j), r.etaV(j))).sorted
      assert(locals(a) == locals(b), at)
      if (m == 1) assert(ids.values.forall(v => a.nodes.contains(v)), at)
      for (tauV <- exact) {
        assert(b.nodes.zip(b.tauV).toMap == tauV, at)
        if (eta) assert(p.tauEdgeCounters.keySet == stream.toSet, at)
      }
      assert(whole.tauV == p.tauV && whole.etaV == p.etaV, at)
      assert(whole.tauEdgeCounters == p.tauEdgeCounters, at)
      assert(whole.sampledEdges == p.sampledEdges, at)
    }
  }

  test("a pass over the run's relabel counts like the pass on the engine's own ids, and needs a fresh engine") {
    val stream = streamOf(Ref.cliquePlusNoise(20, 300, 1200, 3).map { case (u, v) => (u * 104729 - 7, v * 104729 - 7) })
    val dense = EdgeStream.relabel(stream)
    // Dense ids in last-arrival order: number the reversed stream, then pack
    // the forward stream's pairs, which hands out no new id.
    val lastFirst = {
      val ids = new DenseIds
      ids.pairs(stream.reverse)
      EdgeStream.Relabel(ids.pairs(stream), ids.original)
    }
    assert(lastFirst.original.toSeq != dense.original.toSeq && lastFirst.original.sorted.toSeq == dense.original.sorted.toSeq)
    for (m <- Seq(1, 4); slot <- Seq(0, m - 1)) {
      val own = new ReptProcessor(m, slot, 17, trackEta = true).processStream(stream)
      val relabelled = new ReptProcessor(m, slot, 17, trackEta = true).processStream(stream, lastFirst)
      val (a, b) = (own.counters(locals = true), relabelled.counters(locals = true))
      assert(a.tau > 0 && (a.tau, a.eta, a.stored) == (b.tau, b.eta, b.stored), s"m=$m slot=$slot")
      assert(own.tauV == relabelled.tauV && own.etaV == relabelled.etaV && own.tauEdgeCounters == relabelled.tauEdgeCounters)
      intercept[IllegalArgumentException] { own.resume(own.state(stream.length), stream) }
    }
    // Every engine makes one pass: a second one, on either entry point, is refused.
    for (e <- Seq(new ReptProcessor(3, 1, 17, trackEta = true), new MascotProcessor(0.5, 17),
                  new TriestImprProcessor(100, 17), new GpsInStreamProcessor(100, 17))) {
      e.processStream(stream, dense)
      intercept[IllegalArgumentException] { e.processStream(stream, dense) }
      intercept[IllegalArgumentException] { e.processStream(stream) }
    }
    intercept[IllegalArgumentException] { new ReptProcessor(1, 0, 1).processStream(stream.tail, dense) }
  }
}
