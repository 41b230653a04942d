package repro.harness

import repro.{Ref, SparkSpec}
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, ParallelBaseline, TriestImprProcessor}
import repro.baselines.ParallelBaseline.InstanceResult
import repro.core.{EdgeStream, Rept}

class TrialHarnessSpec extends SparkSpec {
  import TrialHarness._

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private lazy val edges = Ref.cliquePlusNoise(9, 30, 80, 321)
  private lazy val stream = streamOf(edges)

  /** Parallel baseline reference: the mean of c engines built directly,
    * instance i seeded with `procSeed(seed, i)`.
    */
  private def parallel(c: Int, seed: Long)(engine: Long => InstanceResult): InstanceResult =
    ParallelBaseline.average((0 until c).map(i => engine(ParallelBaseline.procSeed(seed, i))))

  test("config derives the sweep shape") {
    val cfg = Config(5, Seq(2, 5, 12), 3, 1, Seq(ReptName), locals = false)
    assert(cfg.maxC == 12 && cfg.needsEta) // 12 = 2*5+2
    val cfg2 = Config(5, Seq(5, 10), 3, 1, Seq(ReptName), locals = false)
    assert(!cfg2.needsEta)
    intercept[IllegalArgumentException] { Config(5, Nil, 1, 1, Seq(ReptName), locals = false) }
  }

  test("sweep REPT estimates equal dedicated Rept.run with the matching seed") {
    val m = 4
    val cs = Seq(2, 4, 8, 10) // covers c<m, c=m, c=2m, c>m with leftover
    val cfg = Config(m, cs, 3, 99, Seq(ReptName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    for (c <- cs; trial <- 0 until cfg.trials) {
      val ts = trialSeed(99, ReptName, trial)
      val expected = Rept.run(stream, m, c, ts, locals = false).tauHat
      val got = res.globals((ReptName, c))(trial)
      assert(math.abs(got - expected) < 1e-9, s"c=$c trial=$trial got=$got exp=$expected")
    }
  }

  test("sweep baseline estimates equal ParallelBaseline runs with matching seeds") {
    val m = 3
    val cs = Seq(1, 3)
    val cfg = Config(m, cs, 2, 55, Seq(MascotName, TriestName, GpsName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    val nE = stream.length
    for (trial <- 0 until cfg.trials; c <- cs) {
      val mascot = parallel(c, trialSeed(55, MascotName, trial)) { s =>
        val e = new MascotProcessor(1.0 / m, s).processStream(stream)
        InstanceResult(e.tauHat, e.tauVHat)
      }
      assert(math.abs(res.globals((MascotName, c))(trial) - mascot.tauHat) < 1e-9)
      val triest = parallel(c, trialSeed(55, TriestName, trial)) { s =>
        val e = new TriestImprProcessor(math.max(2, math.round(nE.toDouble / m).toInt), s)
          .processStream(stream)
        InstanceResult(e.tauHat, e.tauVHat)
      }
      assert(math.abs(res.globals((TriestName, c))(trial) - triest.tauHat) < 1e-9)
      val gps = parallel(c, trialSeed(55, GpsName, trial)) { s =>
        val e = new GpsInStreamProcessor(math.max(1, math.round(nE / (2.0 * m)).toInt), s)
          .processStream(stream)
        InstanceResult(e.tauHat, e.tauVHat)
      }
      assert(math.abs(res.globals((GpsName, c))(trial) - gps.tauHat) < 1e-9)
    }
  }

  test("sweep REPT local estimates equal dedicated Rept.run locals") {
    val m = 4
    val cs = Seq(3, 10) // c<m and c>m-with-leftover paths
    val cfg = Config(m, cs, 2, 77, Seq(ReptName), locals = true)
    val res = TrialHarness.run(spark, stream, cfg)
    for (c <- cs; trial <- 0 until cfg.trials) {
      val ts = trialSeed(77, ReptName, trial)
      val expected = Rept.run(stream, m, c, ts).tauVHat.filter(_._2 != 0.0)
      val got = res.localEstimates(ReptName, c).get
        .where(org.apache.spark.sql.functions.col("trial") === trial)
        .collect().map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate"))
        .toMap.filter(_._2 != 0.0)
      assert(got.keySet == expected.keySet, s"c=$c trial=$trial")
      for ((k, v) <- expected)
        assert(math.abs(got(k) - v) < 1e-9, s"c=$c trial=$trial node=$k")
    }
  }

  test("sweep baseline local estimates equal ParallelBaseline local means") {
    val m = 3
    val c = 2
    val cfg = Config(m, Seq(c), 1, 33, Seq(MascotName), locals = true)
    val res = TrialHarness.run(spark, stream, cfg)
    val ts = trialSeed(33, MascotName, 0)
    val expected = parallel(c, ts) { s =>
      val e = new MascotProcessor(1.0 / m, s).processStream(stream)
      InstanceResult(e.tauHat, e.tauVHat)
    }.tauVHat.filter(_._2 != 0.0)
    val got = res.localEstimates(MascotName, c).get.collect()
      .map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate")).toMap
      .filter(_._2 != 0.0)
    assert(got.keySet == expected.keySet)
    for ((k, v) <- expected) assert(math.abs(got(k) - v) < 1e-9, s"node=$k")
  }

  test("locals=false yields no local estimates") {
    val cfg = Config(3, Seq(2), 1, 1, Seq(ReptName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    assert(res.localEstimates(ReptName, 2).isEmpty)
  }

  test("unknown method names fail fast") {
    val cfg = Config(3, Seq(2), 1, 1, Seq("NOPE"), locals = false)
    intercept[Exception] {
      TrialHarness.run(spark, stream, cfg).globals
    }
  }

  test("an unknown method name is rejected before any Spark work") {
    val cfg = Config(3, Seq(2), 1, 1, Seq(ReptName, "NOPE"), locals = false)
    intercept[IllegalArgumentException] { TrialHarness.run(spark, stream, cfg) }
  }

  test("a sweep with locals caches nothing") {
    val sc = spark.sparkContext
    val firstNewRdd = sc.emptyRDD[Int].id
    val cfg = Config(4, Seq(3, 10), 2, 5, Seq(ReptName, MascotName), locals = true)
    val res = TrialHarness.run(spark, stream, cfg)
    assert(res.globals((ReptName, 10)).size == 2)
    for (method <- cfg.methods) assert(res.localEstimates(method, 10).get.collect().nonEmpty)
    assert(sc.getRDDStorageInfo.filter(_.id >= firstNewRdd).isEmpty)
  }

  test("trialSeed decorrelates methods and trials") {
    assert(trialSeed(1, ReptName, 0) != trialSeed(1, ReptName, 1))
    assert(trialSeed(1, ReptName, 0) != trialSeed(1, MascotName, 0))
    assert(trialSeed(1, ReptName, 0) == trialSeed(1, ReptName, 0))
  }
}
