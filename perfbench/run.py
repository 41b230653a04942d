#!/usr/bin/env python3
"""REPT benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload soc-global-c10 --seed 101 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first run builds the repository and the benchmark from source with sbt
(offline) and remembers the classpath under `.bench_build/perfbench`; later
runs rebuild only when a source file changed. The benchmark itself runs in
one forked JVM; its last line of output is the result JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850

# Spark on JDK 17 needs these module opens (as in the repository's build).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file whose change needs a rebuild, as paths relative to ROOT."""
    out = []
    for top in ("build.sbt", "project", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project", "perfbench/src"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            out.append(top)
        for d, dirs, files in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            out += [os.path.relpath(os.path.join(d, f), ROOT) for f in sorted(files)]
    return out


def fingerprint():
    h = hashlib.sha256()
    for rel in sources():
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   f"-Dsbt.repository.config={repos} -Dsbt.offline=true -Xmx4g")
    return env


def sbt(*commands, timeout):
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", *commands]
    return subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout, check=False)


def classpath(fp):
    """Build if the sources changed since the last build; return the classpath."""
    stamp, cp_file = os.path.join(BUILD, "fingerprint"), os.path.join(BUILD, "classpath")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read().strip() == fp:
                with open(cp_file) as g:
                    return g.read().strip()
    print("perfbench: building with sbt ...", file=sys.stderr)
    res = sbt("export Runtime/fullClasspath", timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(res.stdout)
    lines = [x for x in res.stdout.splitlines() if x.strip()]
    if res.returncode != 0 or not lines or "classes" not in lines[-1]:
        fail("build failed", 3)
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp, "w") as f:
        f.write(fp)
    return lines[-1]


def heap():
    """-Xmx as the repository's tier-1 test run derives it: half of RAM, 2 to 8 GB."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(x.split()[1]) for x in f if x.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def commit(fp):
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return f"{sha} sources:{fp[:16]}"


def run_jvm(cp, fp, argv):
    work = os.path.join(BUILD, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    argfile = os.path.join(BUILD, "jvm.args")
    with open(argfile, "w") as f:
        f.write("-cp\n" + json.dumps(cp) + "\n")
    cores = len(os.sched_getaffinity(0))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # The parallel collector: on a 4-vCPU VM, three JVMs running the same
    # web-locals-c21 op took 5.0 to 7.4 s under the default G1, and six took
    # 4.6 to 5.3 s under the parallel collector.
    cmd = [java, f"-Xmx{heap()}", "-XX:+UseParallelGC",
           *[f"--add-opens={p}=ALL-UNNAMED" for p in OPENS],
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Djava.io.tmpdir={work}/tmp", f"-Dperfbench.work={work}",
           f"-Dperfbench.traces={os.path.join(BUILD, 'traces')}",
           f"-Dperfbench.cores={cores}", f"-Dperfbench.commit={commit(fp)}",
           f"-Dperfbench.spawnEpochMs={int(time.time() * 1000)}",
           f"@{argfile}", "perfbench.Main", *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
            if time.monotonic() > deadline:
                raise TimeoutError
        rc = proc.wait(timeout=max(1, deadline - time.monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired):
        fail("run exceeded its time limit", 4)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        fail(f"benchmark JVM exited with {rc}", rc)
    try:
        result = json.loads(last or "")
    except json.JSONDecodeError:
        fail("benchmark printed no result", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result", 5)
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run the fixture checks of every workload's code path")
    a = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail(f"no REPT sources under {ROOT}: run from the root of a repository checkout")
    if a.self_check:
        res = sbt("test", timeout=BUILD_TIMEOUT_S)
        sys.stdout.write(res.stdout)
        sys.exit(res.returncode)
    if not a.workload:
        fail("--workload is required")
    fp = fingerprint()
    cp = classpath(fp)
    argv = ["--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.seed is not None:
        argv += ["--seed", str(a.seed)]
    run_jvm(cp, fp, argv)


if __name__ == "__main__":
    main()
