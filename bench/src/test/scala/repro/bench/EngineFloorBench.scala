package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.databind.node.{ArrayNode, ObjectNode}
import repro.SparkSpec
import repro.core.{EdgeStream, Rept}
import repro.harness.{BenchGraphs, Tables}

/** The per-edge floor of one REPT processor pass, as ROADMAP's per-edge
  * table: processor 0 of REPT(1/m, c ≤ m) at seed 42 over comm-small,
  * soc-lite and web-lite, at m ∈ {10, 50}, η tracking off and on; best of 15
  * passes after 5 warm-up passes, in ns per stream edge. Before any cell is
  * timed, one untimed round runs the relabel and every cell of every graph,
  * so that the graph timed first meets code as warm as the others do. Each
  * pass reads the
  * stream's one relabel, built outside the timed pass as every driver builds
  * it once per run; the relabel's own cost per edge (timed the same way) and
  * the graph's node count n are reported per graph.
  *
  * Run with `sbt "bench/testOnly repro.bench.EngineFloorBench"`. The table
  * goes into `BENCH_engine.json` at the repository root, with the commit,
  * whether the tree had uncommitted changes, and the core count; an entry for
  * the same commit and state is replaced, every other entry is kept.
  */
class EngineFloorBench extends SparkSpec {

  private val graphs = Seq("comm-small", "soc-lite", "web-lite")
  private val ms = Seq(10, 50)
  private val seed = 42L
  private val (warmUp, passes) = (5, 15)

  private def bestNs(perEdge: Int)(body: => Unit): Double = {
    (1 to warmUp).foreach(_ => body)
    (1 to passes).map { _ =>
      val t0 = System.nanoTime(); body; System.nanoTime() - t0
    }.min.toDouble / perEdge
  }

  private def git(args: String*): String = {
    val p = new ProcessBuilder(("git" +: args): _*).directory(root).redirectErrorStream(true).start()
    val out = new String(p.getInputStream.readAllBytes(), StandardCharsets.UTF_8).trim
    p.waitFor()
    out
  }

  /** The repository root: the nearest directory up from here with a ROADMAP.md. */
  private lazy val root: File =
    Iterator.iterate(new File(".").getAbsoluteFile)(_.getParentFile)
      .takeWhile(_ != null).find(d => new File(d, "ROADMAP.md").isFile).get

  test("engine floor: ns per edge of one REPT pass (printed, written to BENCH_engine.json)") {
    val json = new ObjectMapper()
    val run = json.createObjectNode()
    run.put("commit", git("rev-parse", "--short", "HEAD"))
    run.put("uncommitted_changes",
      git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_engine.json").nonEmpty)
    run.put("cores", Runtime.getRuntime.availableProcessors())
    val relabels = run.putObject("relabel")
    val rows = run.putArray("rows")
    val streams = graphs.map(g => g -> BenchGraphs.stream(spark, g))
    for ((_, stream) <- streams; dense = EdgeStream.relabel(stream); m <- ms; eta <- Seq(false, true))
      Rept.processor(m, seed, 0, eta).processStream(stream, dense)
    val printed = for ((g, stream) <- streams) yield {
      val relabelNs = bestNs(stream.length)(EdgeStream.relabel(stream))
      val dense = EdgeStream.relabel(stream)
      relabels.putObject(g).put("nodes", dense.original.length)
        .put("ns_per_edge", math.round(relabelNs * 10) / 10.0)
      val cells = for (m <- ms; eta <- Seq(false, true)) yield {
        val ns = bestNs(stream.length) {
          Rept.processor(m, seed, 0, eta).processStream(stream, dense); ()
        }
        assert(ns > 0)
        rows.addObject().put("graph", g).put("edges", stream.length).put("m", m)
          .put("eta", eta).put("ns_per_edge", math.round(ns * 10) / 10.0)
        f"$ns%.0f"
      }
      Seq(s"$g (${stream.length})") ++ cells ++ Seq(f"$relabelNs%.0f")
    }
    println(s"[Engine floor] ns/edge, best of $passes after $warmUp warm-up passes, " +
      s"${run.get("cores")} cores, commit ${run.get("commit").asText}")
    println(Tables.render(Seq("graph (edges)", "m=10", "m=10, eta", "m=50", "m=50, eta", "relabel"), printed))

    val file = new File(root, "BENCH_engine.json")
    val doc = if (file.isFile) json.readTree(file).asInstanceOf[ObjectNode] else json.createObjectNode()
    doc.put("command", "sbt \"bench/testOnly repro.bench.EngineFloorBench\"")
    doc.put("unit", "ns per stream edge")
    val runs = json.createArrayNode()
    Option(doc.get("runs")).foreach(_.forEach { r =>
      val same = r.get("commit") == run.get("commit") &&
        r.get("uncommitted_changes") == run.get("uncommitted_changes")
      if (!same) runs.add(r)
    })
    runs.add(run)
    doc.set[ArrayNode]("runs", runs)
    Files.writeString(file.toPath, json.writerWithDefaultPrettyPrinter().writeValueAsString(doc) + "\n")
  }
}
