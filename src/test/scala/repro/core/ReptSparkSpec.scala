package repro.core

import repro.{Ref, SparkSpec}

class ReptSparkSpec extends SparkSpec {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private lazy val edges = Ref.cliquePlusNoise(9, 30, 80, 404)
  private lazy val stream = streamOf(edges)

  private def assertMatchesSequential(m: Int, c: Int, seed: Long): Unit = {
    val seq = Rept.run(stream, m, c, seed)
    val par = ReptSpark.run(spark, stream, m, c, seed)
    assert(par.tauHat == seq.tauHat, s"global m=$m c=$c")
    assert(par.perProcTau.toSeq == seq.perProcTau.toSeq, s"perProcTau m=$m c=$c")
    assert(par.perProcEta.toSeq == seq.perProcEta.toSeq, s"perProcEta m=$m c=$c")
    assert(par.perProcStored.toSeq == seq.perProcStored.toSeq, s"perProcStored m=$m c=$c")
    val gotLocals = par.locals.get.collect()
      .map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate")).toMap
      .filter(_._2 != 0.0)
    val expLocals = seq.tauVHat.filter(_._2 != 0.0)
    assert(gotLocals.keySet == expLocals.keySet, s"local nodes m=$m c=$c")
    for ((k, v) <- expLocals)
      assert(math.abs(gotLocals(k) - v) < 1e-9, s"local node $k m=$m c=$c")
  }

  test("Spark runner equals the sequential runner: m=1, c=1 (exact)") {
    assertMatchesSequential(1, 1, 5)
    val seq = Rept.run(stream, 1, 1, 5)
    assert(seq.tauHat == Ref.tau(edges).toDouble)
  }

  test("Spark runner equals sequential: c < m") { assertMatchesSequential(5, 3, 7) }

  test("Spark runner equals sequential: c = m") { assertMatchesSequential(4, 4, 9) }

  test("Spark runner equals sequential: c = 2m (full groups)") {
    assertMatchesSequential(3, 6, 11)
  }

  test("Spark runner equals sequential: c > m with leftover group") {
    assertMatchesSequential(3, 8, 13)
  }

  test("Spark runner equals sequential with more processors than partitions: c = 300 > 256") {
    // 256 partitions hold 300 processors; results must still come back in processor order.
    assertMatchesSequential(7, 300, 23)
  }

  test("Spark runner locals=false returns no DataFrame") {
    val par = ReptSpark.run(spark, stream, 4, 2, 3, locals = false)
    assert(par.locals.isEmpty && par.tauHat >= 0)
  }

  test("Spark runner is deterministic across invocations") {
    val a = ReptSpark.run(spark, stream, 4, 6, 21)
    val b = ReptSpark.run(spark, stream, 4, 6, 21)
    assert(a.tauHat == b.tauHat && a.perProcTau.toSeq == b.perProcTau.toSeq)
  }

  test("per-processor counter arrays have length c in every layout") {
    for ((m, c) <- Seq((4, 3), (4, 4), (3, 6), (3, 8))) {
      val r = ReptSpark.run(spark, stream, m, c, 31, locals = false)
      assert(r.perProcTau.length == c && r.perProcEta.length == c, s"m=$m c=$c")
    }
  }

  test("each full group stores every edge once; no processor stores over 2|E|/m") {
    for ((m, c) <- Seq((4, 4), (3, 8), (5, 12))) {
      val r = ReptSpark.run(spark, stream, m, c, 17, locals = false)
      assert(r.perProcStored.length == c, s"m=$m c=$c")
      for (group <- r.perProcStored.grouped(m) if group.length == m)
        assert(group.sum == stream.length.toLong, s"m=$m c=$c")
      assert(r.perProcStored.forall(_ <= 2L * stream.length / m), s"m=$m c=$c")
    }
  }

  test("a run with locals caches nothing") {
    val sc = spark.sparkContext
    val firstNewRdd = sc.emptyRDD[Int].id
    val r = ReptSpark.run(spark, stream, 3, 8, 19, locals = true)
    assert(r.locals.get.collect().nonEmpty)
    assert(sc.getRDDStorageInfo.filter(_.id >= firstNewRdd).isEmpty)
  }
}
