"""Spark session, Spark job counts, resident memory and provenance.

Everything the benchmark needs from outside the KOKO layers: a local
Spark session whose scratch files stay inside the checkout, per-job-group
job/stage/task counts from the status tracker, a sampler for the peak
memory (PSS) of this process and every process under it (the JVM and
its Python workers), and the provenance block printed with each result.
"""
from __future__ import annotations

import os
import platform
import re
import shutil
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

DRIVER_MEMORY = "1g"


def cores() -> int:
    return len(os.sched_getaffinity(0))


def spark_cores() -> int:
    """Spark's task slots: one core fewer than the machine has, so the
    JVM's own threads (scheduler, JIT compiler, GC) and the Python driver are
    not queued behind CPU-bound Python workers."""
    return max(1, cores() - 1)


def shuffle_partitions() -> int:
    return spark_cores()


class Spark:
    """One local Spark session for the whole run, stopped with its JVM."""

    def __init__(self, root: Path, scratch: Path):
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        # Python workers import ``repro`` from the checkout; the JVM and
        # Python's tempfile put their scratch files under ``scratch``.
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["TMPDIR"] = str(scratch)
        os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
        os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
        # spark-submit's short-lived launcher JVM
        os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
        from pyspark.sql import SparkSession

        t0 = perf_counter()
        self.session = (
            SparkSession.builder.appName("perfbench")
            .master(f"local[{spark_cores()}]")
            .config("spark.driver.memory", DRIVER_MEMORY)
            .config("spark.driver.host", "127.0.0.1")
            .config(
                "spark.driver.extraJavaOptions",
                # The heap is touched up front so the JVM's share of
                # peak memory is its configured size, not GC timing.
                # C1 only: with C2, queries kept speeding up in steps
                # (10-25%) for a minute and more after the warm-up, as
                # late compilations landed at a different point in each
                # run, and a run's median depended on when.
                f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData "
                f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -XX:TieredStopAtLevel=1",
            )
            .config("spark.local.dir", str(scratch))
            .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
            .config("spark.sql.shuffle.partitions", shuffle_partitions())
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate()
        )
        self.start_s = perf_counter() - t0
        self.sc = self.session.sparkContext
        self.sc.setLogLevel("ERROR")

    def config(self) -> dict:
        conf = self.sc.getConf()
        return {
            "master": self.sc.master,
            "shuffle_partitions": int(conf.get("spark.sql.shuffle.partitions")),
            "driver_memory": conf.get("spark.driver.memory"),
        }

    def cached_mb(self) -> float:
        """Memory held by cached DataFrames in Spark's storage memory."""
        infos = self.sc._jsc.sc().getRDDStorageInfo()
        return sum(i.memSize() for i in infos) / (1 << 20)

    def stop(self) -> None:
        """Stop Spark, then the JVM gateway process, and wait for it."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.session.stop()
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway exits when its stdin closes
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass
class JobCounts:
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0


class JobGroups:
    """Tags the calling thread's Spark jobs with a group id and counts
    the jobs, stages that ran (skipped stages are not counted), tasks and
    failed tasks of a group once its work is done."""

    def __init__(self, sc):
        self.sc = sc
        self._n = 0

    def open(self, label: str) -> str:
        self._n += 1
        group = f"perfbench-{self._n}-{label}"
        self.sc.setJobGroup(group, label)
        return group

    def set(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, group)

    def counts(self, group: str) -> JobCounts:
        # Task and stage events reach the status store through the async
        # listener bus; drain it so the counts are final.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        out = JobCounts()
        for jid in st.getJobIdsForGroup(group):
            out.jobs += 1
            info = st.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                si = st.getStageInfo(sid)
                if si is None or si.numCompletedTasks + si.numFailedTasks == 0:
                    continue
                out.stages += 1
                out.tasks += si.numCompletedTasks
                out.failed_tasks += si.numFailedTasks
        return out


def _tree_pids(root: int) -> list[int]:
    """``root`` and every live process descended from it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_pss_bytes() -> int:
    """Proportional set size summed over this process's tree: pages
    shared by forked Python workers count once, not once per worker."""
    total = 0
    for pid in _tree_pids(os.getpid()):
        try:
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                if line.startswith("Pss:"):
                    total += int(line.split()[1]) * 1024
                    break
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


class PeakMemory:
    """Samples the summed PSS of this process tree every ``interval`` s
    on a background thread; ``peak_mb`` is the largest sample."""

    def __init__(self, interval: float):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        self.peak = max(self.peak, tree_pss_bytes())

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / (1 << 20)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            m = re.fullmatch(r"([0-9a-f]{40}) (\S+)", line)
            if m and m.group(2) == ref:
                return m.group(1)
    except OSError:
        pass
    return None


def provenance(root: Path, spark: Spark, seed: int, corpus: dict) -> dict:
    import pyspark

    return {
        "seed": seed,
        "corpus": corpus,
        "nproc": cores(),
        **spark.config(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "git_commit": git_commit(root),
    }
