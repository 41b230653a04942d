package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Synthetic graph-stream generators (the paper's datasets substitute).
  *
  * Every generator returns a DataFrame with columns (t: long, u: int, v: int):
  * a duplicate-free, self-loop-free undirected edge stream in canonical form
  * (u < v) with a deterministic pseudo-random arrival order t = 0..|E|−1.
  * Generators are deterministic in (their parameters, seed) — the fixed
  * partition count makes Spark's rand() reproducible across runs.
  *
  * Stand-ins for the paper's graphs (Table II): `chungLu` gives the heavy-
  * tailed degree skew of social graphs (LiveJournal/Flickr-like, large η/τ);
  * `erdosRenyi` the low-skew regime; `plantedCommunities` the triangle-dense
  * clustered regime (Web/YouTube-like).
  */
object GraphGen {
  /** Fixed partition count so rand(seed) draws are machine-independent. */
  private val Parts = 16

  /** Canonicalise, dedupe and assign a deterministic random stream order. */
  private def finishStream(raw: DataFrame, seed: Long): DataFrame = {
    val canon = raw
      .selectExpr("least(u, v) as u", "greatest(u, v) as v")
      .where(col("u") =!= col("v"))
      .distinct()
    // Single-partition window: fine at repro scale (≤ ~10⁶ edges), and the
    // only way to hand out a gap-free deterministic permutation of t.
    val w = Window.orderBy(xxhash64(col("u"), col("v"), lit(seed)), col("u"), col("v"))
    canon.select((row_number().over(w) - 1).cast("long") as "t", col("u"), col("v"))
  }

  /** Erdős–Rényi-style uniform random graph with ~targetEdges edges. */
  def erdosRenyi(spark: SparkSession, n: Int, targetEdges: Long, seed: Long): DataFrame = {
    val draws = (targetEdges * 1.15).toLong + 16
    val raw = spark.range(0, draws, 1, Parts).select(
      (rand(seed) * n).cast("int") as "u",
      (rand(seed + 1) * n).cast("int") as "v",
    )
    finishStream(raw, seed + 2).where(col("t") < targetEdges)
  }

  /** Chung–Lu-style power-law graph: endpoints drawn independently from a
    * Lomax/Pareto-tail distribution over node ids (smaller id = heavier),
    * giving a heavy-tailed degree sequence and hub-heavy triangles. `alpha` ≈
    * tail exponent (smaller = heavier tail); `scale` is the Lomax scale —
    * P(id ≥ k) = (1 + k/scale)^(1−α) — which spreads the head mass so no
    * single node degenerates into a star hub. Edge count is approximate
    * (hub-hub duplicates collapse under dedup).
    */
  def chungLu(spark: SparkSession, n: Int, targetEdges: Long, alpha: Double,
              seed: Long, scale: Double = 30.0): DataFrame = {
    require(alpha > 1.0, s"alpha must be > 1, got $alpha")
    require(scale > 0.0, s"scale must be > 0, got $scale")
    val draws = (targetEdges * 1.6).toLong + 16
    def zipfCol(s: Long) = {
      // Inverse-CDF Lomax draw: heavy head at small ids, power-law tail.
      least(lit(n.toLong - 1), greatest(lit(0L),
        (lit(scale) * pow(rand(s), lit(-1.0 / (alpha - 1.0))) - scale).cast("long"))).cast("int")
    }
    val raw = spark.range(0, draws, 1, Parts).select(
      zipfCol(seed) as "u",
      zipfCol(seed + 1) as "v",
    )
    finishStream(raw, seed + 2)
  }

  /** Planted-community graph: `nCommunities` groups of `size` nodes, each
    * intra-community pair kept with probability pIn, plus nRandom uniform
    * cross edges. Triangle-dense with strong local clustering.
    */
  def plantedCommunities(spark: SparkSession, nCommunities: Int, size: Int,
                         pIn: Double, nRandom: Long, seed: Long): DataFrame = {
    val n = nCommunities.toLong * size
    val pairsPerComm = size.toLong * size
    val intra = spark.range(0, nCommunities.toLong * pairsPerComm, 1, Parts).select(
      (col("id") / pairsPerComm).cast("long") as "comm",
      ((col("id") % pairsPerComm) / size).cast("int") as "i",
      (col("id") % size).cast("int") as "j",
      rand(seed) as "r",
    ).where(col("i") < col("j") && col("r") < pIn).select(
      (col("comm") * size + col("i")).cast("int") as "u",
      (col("comm") * size + col("j")).cast("int") as "v",
    )
    val cross = spark.range(0, nRandom, 1, Parts).select(
      (rand(seed + 1) * n).cast("int") as "u",
      (rand(seed + 2) * n).cast("int") as "v",
    )
    finishStream(intra.unionByName(cross), seed + 3)
  }

  /** Driver-built fixture stream: edges arrive in the given order. */
  def fromEdges(spark: SparkSession, edges: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    edges.zipWithIndex
      .map { case ((u, v), t) => (t.toLong, math.min(u, v), math.max(u, v)) }
      .toDF("t", "u", "v")
  }

  /** Complete graph K_k as an edge sequence (lexicographic arrival order). */
  def completeGraphEdges(k: Int): Seq[(Int, Int)] =
    for (i <- 0 until k; j <- (i + 1) until k) yield (i, j)

  /** Cycle C_n (triangle-free for n > 3). */
  def cycleEdges(n: Int): Seq[(Int, Int)] =
    (0 until n).map(i => (i, (i + 1) % n))

  /** Star K_{1,n} (triangle-free). */
  def starEdges(n: Int): Seq[(Int, Int)] =
    (1 to n).map(i => (0, i))
}
