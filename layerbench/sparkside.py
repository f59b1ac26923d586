"""Spark-side measurement taken from outside the program.

- :func:`new_session` builds the benchmark's SparkSession with the same
  planner settings as ``jobs/_session.py``, with all scratch space inside
  the benchmark's work directory and, for traced runs, Spark's event log.
- :class:`ProgressListener` is the session's own StreamingQueryListener:
  it keeps every ``QueryProgressEvent`` so batch durations come from
  Spark's progress reports, not from timers around the program.
- :func:`failed_tasks` counts failed tasks of a job group through the
  status tracker (cheap enough for untraced runs).
- :func:`task_metrics` reads task counts, run and deserialize time,
  failures and shuffle bytes per job group from the event log.
- :class:`TimedKernel` replaces a registry kernel inside Spark's Python
  workers during a traced pass and reports in-task kernel time back
  through an accumulator, so fan-out overhead is task time minus kernel
  time for the same grid.
"""
from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from pyspark.accumulators import AccumulatorParam
from pyspark.sql import SparkSession
from pyspark.sql.streaming import StreamingQueryListener

__all__ = [
    "new_session",
    "ProgressListener",
    "failed_tasks",
    "task_metrics",
    "ListParam",
    "TimedKernel",
]

#: Settings shared with ``jobs/_session.py`` (planner behaviour users see).
_PLANNER_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def new_session(work: Path, *, event_log: bool) -> SparkSession:
    builder = SparkSession.builder.appName("layerbench")
    for k, v in _PLANNER_CONF.items():
        builder = builder.config(k, v)
    builder = builder.config("spark.ui.showConsoleProgress", "false")
    if event_log:
        log_dir = work / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        builder = (
            builder.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.resolve().as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class ProgressListener(StreamingQueryListener):
    """Collects streaming progress; ``wait_terminated`` after each query."""

    def __init__(self) -> None:
        self.progress: list = []
        self._terminated = threading.Event()

    def reset(self) -> None:
        self.progress = []
        self._terminated.clear()

    def wait_terminated(self, timeout: float = 60.0) -> bool:
        return self._terminated.wait(timeout)

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        self.progress.append(event.progress)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        self._terminated.set()


def failed_tasks(spark: SparkSession, group: str) -> int:
    tracker = spark.sparkContext.statusTracker()
    n = 0
    for job_id in tracker.getJobIdsForGroup(group):
        job = tracker.getJobInfo(job_id)
        for stage_id in job.stageIds if job else ():
            stage = tracker.getStageInfo(stage_id)
            n += stage.numFailedTasks if stage else 0
    return n


def task_metrics(event_log: Path, group_prefix: str) -> dict[str, float]:
    """Task totals over jobs whose group starts with ``group_prefix``."""
    stage_group: dict[int, str] = {}
    out = {"tasks": 0, "tasks_failed": 0, "run_s": 0.0, "deserialize_s": 0.0, "shuffle_write_mb": 0.0}
    with open(event_log) as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
                for sid in ev.get("Stage IDs", []):
                    stage_group[sid] = group
            elif kind == "SparkListenerTaskEnd":
                if not stage_group.get(ev["Stage ID"], "").startswith(group_prefix):
                    continue
                out["tasks"] += 1
                if ev.get("Task End Reason", {}).get("Reason") != "Success":
                    out["tasks_failed"] += 1
                m = ev.get("Task Metrics") or {}
                out["run_s"] += m.get("Executor Run Time", 0) / 1e3
                out["deserialize_s"] += m.get("Executor Deserialize Time", 0) / 1e3
                out["shuffle_write_mb"] += (
                    (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0) / 2**20
                )
    return out


class ListParam(AccumulatorParam):
    """Accumulates lists by concatenation."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


class TimedKernel:
    """A registry kernel that reports ``(name, seconds)`` to an accumulator."""

    def __init__(self, name: str, kernel, acc) -> None:
        self.name, self.kernel, self.acc = name, kernel, acc

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.kernel(*args, **kwargs)
        self.acc.add([(self.name, time.perf_counter() - t0)])
        return out
