package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Edge-stream model shared by every engine.
  *
  * An undirected edge is canonicalised to (min endpoint, max endpoint) and
  * packed into a single 64-bit key so hash maps and the hash family operate
  * on primitives. A stream is a time-ordered `Array[Long]` of such keys —
  * each engine makes one pass over that array, with the dense ids of one
  * `Relabel` (`StreamEngine`).
  */
object EdgeStream {

  /** Pack canonical undirected edge (u,v) into one Long: (min«32)|max. */
  def key(u: Int, v: Int): Long = {
    val a = math.min(u, v); val b = math.max(u, v)
    (a.toLong << 32) | (b.toLong & 0xffffffffL)
  }

  /** First (smaller) endpoint of a packed edge key. */
  def keyU(k: Long): Int = (k >>> 32).toInt

  /** Second (larger) endpoint of a packed edge key. */
  def keyV(k: Long): Int = (k & 0xffffffffL).toInt

  /** A stream's endpoints renamed to dense ids 0..n−1 in first-arrival
    * order: `pairs(i)` packs the dense ids of stream(i)'s endpoints in the
    * order of its key, as `(dense(keyU) << 32) | dense(keyV)` (read them back
    * with `keyU` / `keyV`), and `original(d)` is the node id that has dense
    * id d. Built once per run and shared by every processor of the run;
    * `ReptProcessor.resume` builds one per batch over the state it resumes.
    */
  final case class Relabel(pairs: Array[Long], original: Array[Int])

  /** One pass over `stream` that gives each endpoint its dense id. */
  def relabel(stream: Array[Long]): Relabel = {
    val ids = new DenseIds
    Relabel(ids.pairs(stream), ids.original)
  }

  /** splitmix64 finalizer — a strong 64-bit mixing function. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Collect a stream DataFrame with columns (t, u, v) into a time-ordered
    * array of packed edge keys. Used to hand a stream to the sequential
    * engines (or to broadcast it to processor tasks).
    */
  def collectStream(df: DataFrame): Array[Long] = {
    import org.apache.spark.sql.functions.col
    df.select(col("t").cast("long"), col("u").cast("int"), col("v").cast("int"))
      .collect()
      .sortBy(_.getLong(0))
      .map(r => key(r.getInt(1), r.getInt(2)))
  }

  /** Rebuild a stream DataFrame from packed keys (t = array index). */
  def toDF(spark: SparkSession, stream: Array[Long]): DataFrame = {
    import spark.implicits._
    stream.zipWithIndex
      .map { case (k, t) => (t.toLong, keyU(k), keyV(k)) }
      .toSeq
      .toDF("t", "u", "v")
  }
}

/** Dense node ids 0, 1, 2, … handed out in first-arrival order, with the
  * dense → original table: the one id source of an engine's pass, through
  * `EdgeStream.relabel` or `ReptProcessor.resume`.
  */
final class DenseIds {
  private val index = new LongCounts // node id → dense id + 1; 0 = no id yet
  private var nodes = new Array[Int](16)
  private var n = 0

  /** Sizes this empty table for up to `count` nodes, so that numbering them
    * does not grow it.
    */
  def reserve(count: Int): Unit = {
    index.reserve(count)
    if (count > nodes.length) nodes = new Array[Int](count)
  }

  /** Dense id of node x, handing out the next one if x is new. */
  def apply(x: Int): Int = {
    val d = index(x).toInt
    if (d > 0) return d - 1
    if (n == nodes.length) nodes = java.util.Arrays.copyOf(nodes, 2 * n)
    nodes(n) = x
    n += 1
    index(x) = n
    n - 1
  }

  /** Dense ids of each key's endpoints, packed as in `EdgeStream.Relabel`. */
  def pairs(keys: Array[Long]): Array[Long] = {
    val out = new Array[Long](keys.length)
    var i = 0
    while (i < keys.length) {
      out(i) = (apply(EdgeStream.keyU(keys(i))).toLong << 32) | apply(EdgeStream.keyV(keys(i)))
      i += 1
    }
    out
  }

  /** The dense → original table. */
  def original: Array[Int] = java.util.Arrays.copyOf(nodes, n)
}

/** The shared hash family h_seed : edge → {0..m−1} at the heart of REPT.
  *
  * All m processors of one REPT group share a single member of this family
  * (that dependence is what kills the covariance term); distinct groups use
  * independent members (distinct seeds). The map must be uniform and
  * pairwise-independent across edges, which the splitmix64 finalizer over
  * (edgeKey, seed) provides.
  */
final class EdgeHasher(val m: Int, val seed: Long) extends Serializable {
  require(m >= 1, s"m must be >= 1, got $m")

  /** Slot in {0..m−1} for a packed edge key. */
  def slot(edgeKey: Long): Int = {
    val h = EdgeStream.mix64(edgeKey ^ EdgeStream.mix64(seed))
    // floorMod over the full 64-bit mix keeps the distribution uniform.
    java.lang.Math.floorMod(h, m.toLong).toInt
  }

  def slot(u: Int, v: Int): Int = slot(EdgeStream.key(u, v))
}
