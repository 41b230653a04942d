package repro.jobs

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Paths

import org.scalatest.funsuite.AnyFunSuite

class CliSpec extends AnyFunSuite {

  test("arg falls back to the default beyond the array") {
    assert(Cli.arg(Array("a", "b"), 0, "x") == "a")
    assert(Cli.arg(Array("a", "b"), 1, "x") == "b")
    assert(Cli.arg(Array("a", "b"), 2, "x") == "x")
    assert(Cli.arg(Array.empty, 0, "x") == "x")
  }

  test("the command table is exactly the seven commands, each in the usage text") {
    assert(Cli.commands.keys.toSeq == Seq("table2", "global", "local", "runtime", "single", "rept", "stream"))
    for (name <- Cli.commands.keys) assert(Cli.usage.linesIterator.exists(_.startsWith(s"  $name ")))
  }

  test("a missing or unknown command yields the usage text; a known one a run") {
    for (argv <- Seq(Array.empty[String], Array("nope"), Array("REPT", "comm-small"), Array("", "rept")))
      assert(Cli.command(argv) == Left(Cli.usage), argv.mkString(" "))
    for (name <- Cli.commands.keys) assert(Cli.command(Array(name, "x")).isRight, name)
  }

  test("main prints only the usage and exits with status 2 on a missing or unknown command") {
    val java = Paths.get(sys.props("java.home"), "bin", "java").toString
    for (argv <- Seq(Nil, Seq("nope"))) {
      val p = new ProcessBuilder((Seq(java, "-Xmx64m", "-cp", sys.props("java.class.path"),
        "repro.jobs.Cli") ++ argv): _*).redirectErrorStream(true).start()
      val out = new String(p.getInputStream.readAllBytes(), UTF_8)
      assert(p.waitFor() == 2, out)
      // Anything beyond the usage, such as Spark's start-up log, means a session was built.
      assert(out.trim == Cli.usage, argv.mkString(" "))
    }
  }
}
