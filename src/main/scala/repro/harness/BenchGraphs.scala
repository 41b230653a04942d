package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.EdgeStream
import repro.exact.{ExactEta, ExactTriangles}
import repro.graphgen.GraphGen

import scala.collection.mutable

/** The benchmark graph suite — synthetic stand-ins for the paper's Table II
  * datasets (see DESIGN.md § substitutions) — plus a per-JVM cache of their
  * streams and exact statistics so bench suites don't recompute ground truth.
  *
  * The suite spans the paper's observed η/τ regimes: heavy-tailed Chung–Lu
  * graphs (hub edges sit in many triangles → η/τ large, the
  * Twitter/LiveJournal/Flickr regime), a planted-community graph (clustered,
  * moderate η/τ, the Web/YouTube regime) and an Erdős–Rényi graph (low η/τ).
  */
object BenchGraphs {

  /** A named graph with its exact statistics. */
  final case class GraphInfo(name: String, nodes: Long, edges: Long,
                             tau: Long, eta: Long, etaPlus: Long)

  /** Benchmark graphs (name → builder). */
  val builders: Map[String, SparkSession => DataFrame] = Map(
    // Heavy-tailed social-network-like graph (Twitter/LiveJournal/Flickr
    // regime: covariance-dominated, η/τ ≈ 160).
    "soc-lite"   -> (s => GraphGen.chungLu(s, n = 60000, targetEdges = 300000,
                                           alpha = 2.0, seed = 101, scale = 30)),
    // Dense clustered communities (Web-Google/Pokec middle regime, η/τ ≈ 25).
    "web-lite"   -> (s => GraphGen.plantedCommunities(s, nCommunities = 100, size = 80,
                                                      pIn = 0.7, nRandom = 30000, seed = 202)),
    // Clustered planted communities (YouTube/Web regime, triangle-dense).
    "comm-lite"  -> (s => GraphGen.plantedCommunities(s, nCommunities = 1200, size = 25,
                                                      pIn = 0.35, nRandom = 60000, seed = 303)),
    // Near-uniform degrees (low covariance control).
    "er-lite"    -> (s => GraphGen.erdosRenyi(s, n = 8000, targetEdges = 200000, seed = 404)),
    // Smaller variants for the (heavier) local-count benchmarks.
    "soc-small"  -> (s => GraphGen.chungLu(s, n = 20000, targetEdges = 100000,
                                           alpha = 2.0, seed = 505, scale = 30)),
    "comm-small" -> (s => GraphGen.plantedCommunities(s, nCommunities = 400, size = 25,
                                                      pIn = 0.35, nRandom = 20000, seed = 606)),
  )

  private val streamCache = mutable.Map.empty[String, Array[Long]]
  private val infoCache   = mutable.Map.empty[String, GraphInfo]
  private val tauVCache   = mutable.Map.empty[String, DataFrame]

  /** The stream DataFrame (t, u, v) for a catalog graph. */
  def streamDF(spark: SparkSession, name: String): DataFrame =
    builders.getOrElse(name, sys.error(s"unknown bench graph $name"))(spark)

  /** Collected, time-ordered packed edge stream (cached). */
  def stream(spark: SparkSession, name: String): Array[Long] = synchronized {
    streamCache.getOrElseUpdate(name, EdgeStream.collectStream(streamDF(spark, name)))
  }

  /** Exact statistics (cached): nodes, edges, τ, η, η⁺. */
  def info(spark: SparkSession, name: String): GraphInfo = synchronized {
    infoCache.getOrElseUpdate(name, {
      val df = EdgeStream.toDF(spark, stream(spark, name))
      val nodes = df.select(explode(array(col("u"), col("v"))) as "n").distinct().count()
      val edges = df.count()
      val tau = ExactTriangles.tau(df)
      val (eta, etaPlus) = ExactEta.globalEta(df)
      GraphInfo(name, nodes, edges, tau, eta, etaPlus)
    })
  }

  /** Exact per-node triangle counts (node, tauV), computed once and kept as
    * a driver-local DataFrame.
    */
  def tauVDf(spark: SparkSession, name: String): DataFrame = synchronized {
    import spark.implicits._
    tauVCache.getOrElseUpdate(name,
      ExactTriangles.tauV(EdgeStream.toDF(spark, stream(spark, name)))
        .collect().map(r => (r.getInt(0), r.getLong(1))).toSeq.toDF("node", "tauV"))
  }
}
