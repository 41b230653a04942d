package repro.jobs

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.ReptSpark
import repro.harness.{BenchGraphs, Tables, TrialHarness}
import repro.streaming.ReptStreaming

/** The one entrypoint for every reproduced table and for single REPT runs:
  *
  *   spark-submit --class repro.jobs.Cli repro.jar <command> [args...]
  *   sbt "runMain repro.jobs.Cli <command> [args...]"
  *
  * Arguments are positional; each one left out takes the default in `usage`.
  * A missing or unknown command prints `usage` and exits with status 2.
  */
object Cli {

  /** Command name → (argument synopsis with defaults, what it runs). */
  val commands: ListMap[String, (String, (SparkSession, Array[String]) => Unit)] = ListMap(
    "table2" -> ("[graph ...] (default: the six catalog graphs)  Table II", table2),
    "global" -> ("[graphsCsv=comm-lite] [m=10] [csCsv=2,5,10,20,30] [trials=20] [seed=7]  Figs. 3/4",
      errors(local = false)),
    "local" -> ("[graphsCsv=comm-small] [m=10] [csCsv=2,5,10,20,30] [trials=10] [seed=11]  Figs. 5/6",
      errors(local = true)),
    "runtime" -> ("[graph=soc-lite] [msCsv=50,20,10,5] [reps=3]  Fig. 7", runtime),
    "single" -> ("[graph=comm-small] [m=10] [csCsv=2,8,32] [trials=10] [seed=13]  Fig. 8", single),
    "rept" -> ("[graph=comm-small] [m=10] [c=10] [seed=42]  one Spark REPT run vs exact", rept),
    "stream" -> ("[graph=comm-small] [m=10] [c=4] [batchSize=5000] [seed=42]  streaming REPT vs exact",
      stream),
  )

  val usage: String = ("usage: repro.jobs.Cli <command> [args...]" +:
    commands.map { case (name, (synopsis, _)) => s"  $name $synopsis" }.toSeq).mkString("\n")

  /** The run that `argv` names, or the usage text; builds no session. */
  def command(argv: Array[String]): Either[String, SparkSession => Unit] =
    argv.headOption.flatMap(commands.get) match {
      case Some((_, run)) => Right(spark => run(spark, argv.tail))
      case None => Left(usage)
    }

  def main(argv: Array[String]): Unit = command(argv) match {
    case Left(text) => Console.err.println(text); sys.exit(2)
    case Right(run) =>
      val spark = session(s"rept-${argv.head}")
      try run(spark) finally spark.stop()
  }

  /** Session for a command: spark-submit's master, else local[*] (e.g. from
    * sbt), logging at WARN so that a command's output is its result lines.
    */
  def session(app: String): SparkSession = {
    val b = SparkSession.builder().appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.log.level", "WARN")
    (if (sys.props.contains("spark.master")) b
     else b.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))).getOrCreate()
  }

  def arg(args: Array[String], i: Int, default: String): String =
    if (args.length > i) args(i) else default

  private def ints(csv: String): Seq[Int] = csv.split(',').map(_.toInt).toSeq

  private def table2(spark: SparkSession, args: Array[String]): Unit = {
    val names = if (args.nonEmpty) args.toSeq
                else Seq("soc-lite", "web-lite", "comm-lite", "er-lite", "soc-small", "comm-small")
    println(Tables.render(Seq("graph", "nodes", "edges", "triangles", "eta", "eta/tau"),
      Tables.table2(spark, names).map(r => Seq(r.graph, r.nodes.toString, r.edges.toString,
        r.triangles.toString, r.eta.toString, Tables.fmt(r.etaOverTau)))))
  }

  /** Global (Figs. 3/4: REPT vs parallel MASCOT/Trièst/GPS) or local (Figs.
    * 5/6: REPT vs parallel MASCOT/Trièst) NRMSE over a processor-count sweep.
    */
  private def errors(local: Boolean)(spark: SparkSession, args: Array[String]): Unit = {
    val graphs = arg(args, 0, if (local) "comm-small" else "comm-lite").split(',').toSeq
    val m = arg(args, 1, "10").toInt
    val cs = ints(arg(args, 2, "2,5,10,20,30"))
    val trials = arg(args, 3, if (local) "10" else "20").toInt
    val seed = arg(args, 4, if (local) "11" else "7").toLong
    val methods = Seq(TrialHarness.ReptName, TrialHarness.MascotName, TrialHarness.TriestName) ++
      (if (local) Nil else Seq(TrialHarness.GpsName))
    val pts = if (local) Tables.localError(spark, graphs, m, cs, trials, methods, seed)
              else Tables.globalError(spark, graphs, m, cs, trials, methods, seed)
    println(Tables.render(Seq("graph", "m", "c", "method", if (local) "meanLocalNRMSE" else "NRMSE"),
      pts.map(p => Seq(p.graph, p.m.toString, p.c.toString, p.method, Tables.fmt(p.nrmse)))))
  }

  private def runtime(spark: SparkSession, args: Array[String]): Unit = {
    val graph = arg(args, 0, "soc-lite")
    val pts = Tables.runtime(spark, graph, ints(arg(args, 1, "50,20,10,5")), arg(args, 2, "3").toInt,
      seed = 123)
    println(Tables.render(Seq("graph", "p=1/m", "method", "seconds"),
      pts.map(p => Seq(graph, f"1/${p.m}", p.method, Tables.fmt(p.seconds)))))
  }

  private def single(spark: SparkSession, args: Array[String]): Unit = {
    val graph = arg(args, 0, "comm-small")
    val m = arg(args, 1, "10").toInt
    println(Tables.render(Seq("graph", "m", "c", "method", "runtime_s", "NRMSE"),
      Tables.singleThread(spark, graph, m, ints(arg(args, 2, "2,8,32")), arg(args, 3, "10").toInt,
        arg(args, 4, "13").toLong).map(p => Seq(graph, m.toString, p.c.toString, p.method,
        Tables.fmt(p.runtimeSec), Tables.fmt(p.nrmse)))))
  }

  /** One Spark REPT pass: global estimate and the top-10 nodes' local
    * estimates against exact truth.
    */
  private def rept(spark: SparkSession, args: Array[String]): Unit = {
    val graph = arg(args, 0, "comm-small")
    val m = arg(args, 1, "10").toInt
    val c = arg(args, 2, "10").toInt
    val seed = arg(args, 3, "42").toLong
    val res = ReptSpark.run(spark, BenchGraphs.stream(spark, graph), m, c, seed, locals = true)
    println(s"graph=$graph m=$m c=$c seed=$seed")
    printTauHat(spark, graph, "REPT", res.tauHat)
    println("top-10 nodes by exact tau_v (exact vs estimate):")
    BenchGraphs.tauVDf(spark, graph).join(res.locals.get, Seq("node"), "left")
      .na.fill(0.0, Seq("estimate")).orderBy(desc("tauV")).limit(10).collect().foreach { r =>
      println(f"  node=${r.getAs[Int]("node")}%8d tauV=${r.getAs[Long]("tauV")}%8d " +
        f"est=${r.getAs[Double]("estimate")}%10.1f")
    }
  }

  /** The graph fed through the Structured Streaming pipeline in
    * `batchSize`-edge micro-batches, its estimate against exact truth.
    */
  private def stream(spark: SparkSession, args: Array[String]): Unit = {
    val graph = arg(args, 0, "comm-small")
    val m = arg(args, 1, "10").toInt
    val c = arg(args, 2, "4").toInt
    val batchSize = arg(args, 3, "5000").toInt
    val res = ReptStreaming.run(spark, BenchGraphs.stream(spark, graph), m, c,
      arg(args, 4, "42").toLong, batchSize)
    println(s"graph=$graph m=$m c=$c batchSize=$batchSize")
    printTauHat(spark, graph, "streaming REPT", res.tauHat)
  }

  private def printTauHat(spark: SparkSession, graph: String, method: String, tauHat: Double): Unit = {
    val tau = BenchGraphs.info(spark, graph).tau
    println(f"exact tau = $tau  $method tauHat = $tauHat%.1f  " +
      f"relErr = ${math.abs(tauHat - tau) / tau}%.4f")
  }
}
