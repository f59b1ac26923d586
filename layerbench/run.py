"""Layered benchmark of the InQuest reproduction: one command, three workloads.

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload {mc-grid,sweep,stream} --seed N \
        --seconds S --trace {0,1} [--scale {full,smoke}]

The seed drives both ``generate(..., seed=)`` and the trials' ``base_seed``.
A run sets up several times (session start, stream generation, segment
files, one discarded warm-up pass) and reports the median set-up time,
then runs whole passes of its workload in a closed loop for about
``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs a traced pass and an untraced pass and reports the
per-layer metrics, taken from spans the benchmark records around its
calls into each layer, from Spark's event log and from the session's
StreamingQueryListener, plus the tracing overhead.

Every run checks its outputs (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines above it print every metric by name
with its unit, the failed fraction, the estimates digest and the run's
environment.  Spans and a result record go to ``.bench_work/`` in the
checkout.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "records_per_s": "1/s",
    "segment_latency_p50_ms": "ms",
    "segment_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_STREAM_DURATIONS = ("triggerExecution", "addBatch", "walCommit", "commitOffsets", "latestOffset", "queryPlanning", "getBatch")

#: Per-layer metrics (``--trace 1``) and their units.  A layer a workload
#: does not exercise reports 0.
PER_LAYER = {
    "datasets.generate_s": "s",
    "core.kernel_ms.inquest": "ms",
    "core.kernel_ms.abae": "ms",
    "core.kernel_ms.stratified": "ms",
    "core.kernel_ms.uniform": "ms",
    "core.observe_segment_ms": "ms",
    "core.stratify_calls_per_trial": "calls/trial",
    "core.stratify_records_per_trial": "records/trial",
    "core.stratify_share": "fraction",
    "core.budget_spent_ratio": "fraction",
    "trials.build_s": "s",
    "trials.broadcast_mb": "MB",
    "trials.action_s": "s",
    "trials.tasks": "count",
    "trials.tasks_failed": "count",
    "trials.task_run_s_sum": "s",
    "trials.task_deserialize_s_sum": "s",
    "trials.shuffle_write_mb": "MB",
    "trials.kernel_s_sum": "s",
    "trials.fanout_overhead_s": "s",
    "metrics.rollup_s": "s",
    "streaming.write_files_s": "s",
    **{f"streaming.{k}_ms": "ms" for k in _STREAM_DURATIONS},
    "streaming.observe_segment_ms": "ms",
    "streaming.batch_other_ms": "ms",
    **{f"self_s.{layer}": "s" for layer in ("bench", "core", "trials", "metrics", "streaming")},
    "trace.overhead_s": "s",
}


def _prepare_env(work: Path) -> str:
    """Put the program on the path and keep all of Spark's files in ``work``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"layerbench: no program sources under {src}; run from the root of a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    tmp, local = work / "tmp", work / "spark-local"
    tmp.mkdir(parents=True)
    local.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # No hsperfdata files: every JVM would write them under the system /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    master = f"local[{min(4, len(os.sched_getaffinity(0)))}]"
    # A heap that starts at its full size: a growing heap makes each pass
    # faster than the one before it (measured 163, 194, 227 trials/s over
    # three mc-grid passes, against 235, 233, 229 with -Xms set).
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master}",
            "--driver-memory 2g",
            "--driver-java-options " + shlex.quote(f"-Xms2g -Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf " + shlex.quote(f"spark.local.dir={local}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={work / 'warehouse'}"),
            "pyspark-shell",
        ]
    )
    return master


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


class Bench:
    """Run-wide state the workloads share: seed, work dir, tracer, session."""

    def __init__(self, seed: int, work: Path, tracer, *, event_log: bool) -> None:
        self.seed, self.work, self.tracer, self.event_log = seed, work, tracer, event_log
        self.spark = None
        self.listener = None
        self._dirs = 0

    def start_session(self) -> None:
        from layerbench.sparkside import ProgressListener, new_session

        self.spark = new_session(self.work, event_log=self.event_log)
        self.listener = ProgressListener()
        self.spark.streams.addListener(self.listener)

    def stop_session(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        d = self.work / f"{name}-{self._dirs}"
        d.mkdir(parents=True)
        return d

    def shutdown(self) -> None:
        """Stop Spark and the JVM it runs in, and wait for the JVM to exit."""
        from pyspark import SparkContext

        self.stop_session()
        gw = SparkContext._gateway
        if gw is None:
            return
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None


@contextlib.contextmanager
def instrument(tracer):
    """Spans around the ``core`` calls the kernels make, in this process only.

    Counts and times ``quantile_boundaries``/``assign_strata`` where the
    kernels look them up, and ``InQuestState.observe_segment``.
    """
    import repro.core.abae as abae
    import repro.core.baselines as baselines
    import repro.core.inquest as inquest

    saved = []

    def patch(obj, attr, name, attrs_of=None):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, tracer.wrap(getattr(obj, attr), name, attrs_of))

    def records(args, kwargs):
        return {"records": len(args[0])}

    for mod in (inquest, abae):
        patch(mod, "quantile_boundaries", "core.stratify", records)
        patch(mod, "assign_strata", "core.stratify", records)
    patch(baselines, "assign_strata", "core.stratify", records)
    patch(inquest.InQuestState, "observe_segment", "core.observe_segment")
    try:
        yield
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


def end_to_end(setup_s: list[float], passes) -> dict[str, float]:
    timed = sum(sum(p.call_s) for p in passes)
    lat = [x for p in passes for x in p.latencies_ms]
    return {
        "setup_s": statistics.median(setup_s),
        "trials_per_s": sum(p.trials for p in passes) / timed,
        "records_per_s": sum(p.records for p in passes) / timed,
        "segment_latency_p50_ms": _pct(lat, 50),
        "segment_latency_p90_ms": _pct(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, root, pr, overhead_s: float, event_log: Path | None) -> dict[str, float]:
    from layerbench.sparkside import task_metrics
    from layerbench.spans import self_time_by_layer

    spans = tracer.spans
    setup, inside = spans[: root.id], spans[root.id :]

    def named(name, pool=inside):
        return [s for s in pool if s.name == name]

    def med_ms(ss):
        return statistics.median(s.duration * 1e3 for s in ss) if ss else 0.0

    out: dict[str, float] = {}
    per_rep: dict[int, float] = {}
    for s in named("datasets.generate", setup):
        rep = next(p for p in tracer.ancestors(s) if p.name == "bench.setup").attrs["rep"]
        per_rep[rep] = per_rep.get(rep, 0.0) + s.duration
    out["datasets.generate_s"] = statistics.median(per_rep.values()) if per_rep else 0.0

    kernels = named("core.kernel")
    for algo in ("inquest", "abae", "stratified", "uniform"):
        out[f"core.kernel_ms.{algo}"] = med_ms([k for k in kernels if k.attrs["algo"] == algo])
    obs = named("core.observe_segment")
    out["core.observe_segment_ms"] = med_ms([s for s in obs if tracer.descends_from(s, "core.kernel")])
    strat = [s for s in named("core.stratify") if tracer.descends_from(s, "core.kernel")]
    n_k = max(1, len(kernels))
    kernel_s = sum(k.duration for k in kernels)
    out["core.stratify_calls_per_trial"] = len(strat) / n_k
    out["core.stratify_records_per_trial"] = sum(s.attrs["records"] for s in strat) / n_k
    out["core.stratify_share"] = sum(s.duration for s in strat) / kernel_s if kernel_s else 0.0
    budget = sum(k.attrs["budget"] for k in kernels)
    out["core.budget_spent_ratio"] = sum(k.attrs["oracle_calls"] for k in kernels) / budget if budget else 0.0

    out["trials.build_s"] = sum(s.duration for s in named("trials.run_trials"))
    out["trials.broadcast_mb"] = sum(s.attrs["broadcast_mb"] for s in named("trials.run_trials"))
    out["trials.action_s"] = sum(s.duration for s in named("trials.action"))
    tm = task_metrics(event_log, "traced/trials/") if event_log else {}
    out["trials.tasks"] = tm.get("tasks", 0)
    out["trials.tasks_failed"] = tm.get("tasks_failed", 0)
    out["trials.task_run_s_sum"] = tm.get("run_s", 0.0)
    out["trials.task_deserialize_s_sum"] = tm.get("deserialize_s", 0.0)
    out["trials.shuffle_write_mb"] = tm.get("shuffle_write_mb", 0.0)
    out["trials.kernel_s_sum"] = pr.info.get("kernel_s", 0.0)
    out["trials.fanout_overhead_s"] = out["trials.task_run_s_sum"] - out["trials.kernel_s_sum"] if tm.get("tasks") else 0.0
    out["metrics.rollup_s"] = sum(s.duration for s in named("metrics.rollup"))

    writes = named("streaming.write_segment_files", setup)
    out["streaming.write_files_s"] = statistics.median(s.duration for s in writes) if writes else 0.0
    for k in _STREAM_DURATIONS:
        out[f"streaming.{k}_ms"] = _pct([p.durationMs.get(k, 0) for p in pr.progress], 50)
    stream_obs = sorted(
        (s for s in obs if tracer.descends_from(s, "streaming.run_streaming_inquest")), key=lambda s: s.start
    )
    out["streaming.observe_segment_ms"] = med_ms(stream_obs)
    other = [p.durationMs.get("addBatch", 0) - s.duration * 1e3 for p, s in zip(pr.progress, stream_obs)]
    out["streaming.batch_other_ms"] = _pct(other, 50)

    selfs = self_time_by_layer(spans, root)
    for layer in ("bench", "core", "trials", "metrics", "streaming"):
        out[f"self_s.{layer}"] = selfs.get(layer, 0.0)
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mc-grid", "sweep", "stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = ap.parse_args(argv)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    master = _prepare_env(work)

    from layerbench.spans import NullTracer, Tracer
    from layerbench.workloads import SCALES, WORKLOADS

    scale = SCALES[args.scale]
    tracer = Tracer(run_id) if args.trace else NullTracer()
    bench = Bench(args.seed, work, tracer, event_log=bool(args.trace))
    wl = WORKLOADS[args.workload](bench, scale[args.workload])
    setup_s, passes, pass_s, traced_pr, root, overhead_s, app_id = [], [], {}, None, None, 0.0, None
    try:
        # The first set-up also launches the JVM and spawns Python workers
        # cold; the median over set-ups reports a warm one.
        for rep in range(scale["setup_reps"]):
            bench.stop_session()
            t0 = time.perf_counter()
            with tracer.span("bench.setup", rep=rep):
                with tracer.span("bench.session_start"):
                    bench.start_session()
                wl.setup()
            setup_s.append(time.perf_counter() - t0)
        app_id = bench.spark.sparkContext.applicationId
        for i in range(wl.warm_passes):
            passes.append(wl.run_pass(f"warm{i}"))
        if args.trace:
            for tag in ("traced", "untraced"):
                bench.tracer = tracer if tag == "traced" else NullTracer()
                t0 = time.perf_counter()
                if tag == "traced":
                    with instrument(tracer), tracer.span("bench.pass") as root:
                        traced_pr = wl.run_pass(tag, traced=True)
                    passes.append(traced_pr)
                else:
                    passes.append(wl.run_pass(tag))
                pass_s[tag] = time.perf_counter() - t0
            overhead_s = pass_s["traced"] - pass_s["untraced"]
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(wl.run_pass(f"pass{len(passes)}"))
                last = time.perf_counter() - t0
                # Stop at the pass boundary nearest to --seconds.
                if time.perf_counter() - start + last / 2 >= args.seconds:
                    break
    finally:
        bench.shutdown()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages]
    digest = passes[0].digest
    for i, p in enumerate(passes[1:], start=1):
        if p.digest != digest:
            failed += 1
            messages.append(f"pass {i} estimates differ from pass 0 (digest {p.digest} != {digest})")

    if args.trace:
        logs = list((work / "eventlog").glob(f"{app_id}*"))
        metrics = per_layer(tracer, root, traced_pr, overhead_s, logs[0] if logs else None)
        units = PER_LAYER
        tracer.dump(work / "spans.jsonl")
    else:
        metrics = end_to_end(setup_s, passes[wl.warm_passes :])
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    env = {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "spark_master": master,
        "python": sys.version.split()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "setup_reps": len(setup_s),
        "passes": len(passes),
        **wl.describe(),
    }
    lat_n = sum(len(p.latencies_ms) for p in passes[wl.warm_passes :])
    print(f"layerbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / max(1, attempted):.6g} 1 ({failed} failed of {attempted} operations)")
    if args.trace:
        print("pass wall times: " + ", ".join(f"{k} {v:.3f} s" for k, v in pass_s.items()))
    else:
        print(f"samples: setup n={len(setup_s)}, segment_latency n={lat_n}, measured passes n={len(passes) - wl.warm_passes}")
    print("set-up times: " + ", ".join(f"{x:.3f}" for x in setup_s) + " s (the first launches the JVM)")
    print(f"estimates_digest = {digest}")
    if args.workload == "mc-grid":
        print("improvement ratios, informational (All column): " + json.dumps(wl.improvement_ratios(passes[0])))
    for m in messages:
        print(f"CHECK FAILED: {m}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    result["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    record = {"env": env, "estimates_digest": digest, "setup_s_all": setup_s, "pass_s": pass_s, "messages": messages, **result}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for d in work.iterdir():
        if d.is_dir():
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
