"""The three workloads: ``mc-grid``, ``sweep`` and ``stream``.

Each workload has a ``setup`` (inputs from the seed, segment files, one
discarded warm-up pass) and a ``run_pass`` that issues the workload's
calls in a closed loop: one driver process, each call submitted only
after the previous one has returned.  Only the calls themselves are
timed; the correctness checks that follow each call are not.

Why these three (see README.md for the layer map):

- ``mc-grid`` is Tables 3/4: many trials per ``run_trials`` call, so the
  ``core`` kernels dominate.
- ``sweep`` is Figure 8's shape: many small calls with few trials each,
  so the per-call fixed cost of ``trials`` and ``metrics`` dominates.
- ``stream`` is the Structured Streaming deployment: one micro-batch per
  segment over >= 100 segments, so Spark's micro-batch machinery
  dominates and ``core`` is a small share.
"""
from __future__ import annotations

import contextlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.inquest import InQuestConfig, inquest_trial
from repro.datasets.streams import DATASET_NAMES, StreamData, generate
from repro.sparkops import trials as trials_mod
from repro.sparkops.metrics import (
    full_query_rmse,
    geomean_across_datasets,
    median_segment_rmse,
    summary_table,
)
from repro.sparkops.trials import run_trials
from repro.streaming.job import run_streaming_inquest, write_segment_files

from layerbench import checks
from layerbench.sparkside import ListParam, TimedKernel, failed_tasks

__all__ = ["SCALES", "WORKLOADS", "PassResult"]

#: Workload sizes.  ``full`` is what BENCHMARK.json runs; ``smoke`` is the
#: tiny scale the benchmark's own smoke test uses.
SCALES = {
    "full": {
        "setup_reps": 3,
        "mc-grid": {"records": 100_000, "seg_len": 20_000, "trials": 15, "budgets": (500, 2500, 5000)},
        # Figure 8 sweeps alpha in 0.5..0.9 and T in 4..8; this takes the ends
        # of the alpha range at the default T = 5, and T = 4 and 7.  100_800
        # is divisible by every T in 4..8, so seg_len = records // T gives
        # exactly T segments and T = 7 shows the total_budget // T underspend.
        "sweep": {
            "records": 100_800,
            "trials": 10,
            "budget": 5000,
            "alphas": (0.5, 0.9),
            "t_segments": (4, 7),
        },
        "stream": {"dataset": "archie", "seg_len": 2_000, "segments": 100, "n_per_segment": 50, "warmup_segments": 3},
    },
    "smoke": {
        "setup_reps": 1,
        "mc-grid": {"records": 6_000, "seg_len": 1_200, "trials": 2, "budgets": (500, 2500, 5000)},
        "sweep": {"records": 8_400, "trials": 2, "budget": 5000, "alphas": (0.5, 0.9), "t_segments": (4, 7)},
        "stream": {"dataset": "archie", "seg_len": 500, "segments": 6, "n_per_segment": 20, "warmup_segments": 2},
    },
}

_GRID_ALGOS = ("uniform", "stratified", "abae", "inquest")


@dataclass
class PassResult:
    """What one pass over a workload did and how long its calls took."""

    call_s: list[float] = field(default_factory=list)  # timed wall per call
    trials: int = 0
    records: int = 0
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    progress: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return checks.combine(self.digests)


class _GridWorkload:
    """Shared driver for the two ``run_trials`` workloads."""

    #: Unmeasured passes between set-up and measurement.
    warm_passes = 0

    def __init__(self, bench, cfg: dict) -> None:
        self.bench, self.cfg = bench, cfg
        self.streams: dict[str, StreamData] = {}

    def _generate(self, names, records: int, seg_len: int) -> None:
        tr = self.bench.tracer
        self.streams = {}
        for name in names:
            with tr.span("datasets.generate", dataset=name, records=records):
                self.streams[name] = generate(name, n_records=records, seg_len=seg_len, seed=self.bench.seed)

    def rollup(self, res, call: checks.GridCall):
        raise NotImplementedError

    def run_call(self, call: checks.GridCall, tag: str, *, check: bool = True, traced: bool = False) -> dict:
        """One timed ``run_trials`` call plus its roll-up, then its checks."""
        b, tr = self.bench, self.bench.tracer
        spark, sc = b.spark, b.spark.sparkContext
        streams = {d: self.streams[d] for d in call.datasets}
        out: dict = {}
        acc = sc.accumulator([], ListParam()) if traced else None
        group = f"{tag}/trials/{call.label}"
        sc.setJobGroup(group, call.label)
        t0 = time.perf_counter()
        with tr.span("trials.run_trials", call=call.label, broadcast_mb=_payload_mb(streams, call)):
            with _timed_kernels(acc):
                res = run_trials(
                    spark,
                    streams,
                    algorithms=list(call.algorithms),
                    budgets=list(call.budgets),
                    n_trials=call.n_trials,
                    modes=call.modes,
                    params=dict(call.params) or None,
                    base_seed=b.seed,
                )
        res = res.cache()
        with tr.span("trials.action", call=call.label):
            n_rows = res.count()
        sc.setJobGroup(f"{tag}/rollup/{call.label}", call.label)
        with tr.span("metrics.rollup", call=call.label):
            out["rollup"] = self.rollup(res, call)
        out["seconds"] = time.perf_counter() - t0
        out["n_rows"] = n_rows
        if acc is not None:
            out["kernel_s"] = sum(s for _, s in acc.value)
        if check:
            with tr.span("bench.check", call=call.label):
                sc.setJobGroup(f"{tag}/check/{call.label}", call.label)
                rows = res.toPandas()
                cells = checks.sample_cells(call, b.seed)
                failed, msgs = checks.check_grid_call(rows, self.streams, call, cells, b.seed, span=tr.span)
                failed += failed_tasks(spark, group)
                out.update(failed=failed, messages=msgs, digest=checks.digest(rows))
        res.unpersist()
        return out

    def calls(self) -> list[checks.GridCall]:
        raise NotImplementedError

    def warmup(self) -> None:
        first = self.calls()[0]
        tiny = checks.GridCall(
            datasets=first.datasets[:1],
            algorithms=tuple(dict.fromkeys(a for c in self.calls() for a in c.algorithms)),
            budgets=first.budgets[:1],
            n_trials=1,
            modes=first.modes,
            params=first.params,
            label="warmup",
        )
        self.run_call(tiny, "warmup", check=False)

    def run_pass(self, tag: str, *, traced: bool = False) -> PassResult:
        pr = PassResult()
        for call in self.calls():
            out = self.run_call(call, tag, traced=traced)
            n_records = sum(self.streams[d].n_records for d in call.datasets) * (call.n_grid // len(call.datasets))
            pr.call_s.append(out["seconds"])
            pr.latencies_ms.append(out["seconds"] * 1e3)
            pr.trials += call.n_grid
            pr.records += n_records
            pr.attempted += call.n_grid
            pr.failed += out["failed"]
            pr.messages += out["messages"]
            pr.digests.append(out["digest"])
            pr.info.setdefault("kernel_s", 0.0)
            pr.info["kernel_s"] += out.get("kernel_s", 0.0)
            pr.info.setdefault("rollups", {})[call.label] = out["rollup"]
        return pr


def _payload_mb(streams: dict[str, StreamData], call: checks.GridCall) -> float:
    """Size of ``run_trials``' broadcast arrays (statistic, pred, proxy, truths)."""
    total = 0
    for s in streams.values():
        total += s.statistic.nbytes + s.pred.nbytes + s.proxy.nbytes + 8 * s.n_segments * len(call.modes)
    return total / 2**20


@contextlib.contextmanager
def _timed_kernels(acc):
    """Swap the registry's kernels for :class:`TimedKernel` while a call is built.

    ``run_trials`` pickles its task function, with the registry, when it
    builds the grid DataFrame, so the swap only has to cover that call.
    """
    if acc is None:
        yield
        return
    saved = dict(trials_mod.ALGORITHMS)
    trials_mod.ALGORITHMS.update({name: TimedKernel(name, fn, acc) for name, fn in saved.items()})
    try:
        yield
    finally:
        trials_mod.ALGORITHMS.update(saved)


class McGrid(_GridWorkload):
    """Tables 3/4: six streams x four algorithms x three budgets, both modes."""

    def setup(self) -> None:
        c = self.cfg
        self._generate(DATASET_NAMES, c["records"], c["seg_len"])
        self.warmup()

    def calls(self) -> list[checks.GridCall]:
        c = self.cfg
        return [
            checks.GridCall(DATASET_NAMES, _GRID_ALGOS, tuple(c["budgets"]), c["trials"], (mode,), label=f"table-{mode}")
            for mode in ("nopred", "pred")
        ]

    def rollup(self, res, call):
        # The same public calls as repro.experiments.table34.
        mode = call.modes[0]
        geo = geomean_across_datasets(res).toPandas()
        return {
            "summary": summary_table(geo, mode=mode),
            "per_dataset": median_segment_rmse(res).toPandas(),
            "full_query": full_query_rmse(res).toPandas(),
        }

    def describe(self) -> dict:
        c = self.cfg
        return {
            "datasets": list(DATASET_NAMES),
            "records": c["records"],
            "segments": c["records"] // c["seg_len"],
            "trials": c["trials"],
            "budgets": list(c["budgets"]),
            "modes": ["nopred", "pred"],
        }

    @staticmethod
    def improvement_ratios(pr: PassResult) -> dict:
        out = {}
        for label, r in pr.info.get("rollups", {}).items():
            s = r["summary"]
            out[label] = {i: round(float(s.loc[i, "All"]), 4) for i in s.index if i.startswith("improvement_")}
        return out


class Sweep(_GridWorkload):
    """Figure 8's shape on archie: alpha sweep, T sweep, uniform reference."""

    # Each call is mostly Spark's fixed per-call path, which the JIT is
    # still compiling during the first pass after set-up: its calls took
    # 1.9 s falling to 1.3 s, against a flat 1.2-1.3 s in the next pass.
    warm_passes = 1

    def setup(self) -> None:
        c = self.cfg
        self._generate(("archie",), c["records"], c["records"] // 5)
        self.warmup()

    def calls(self) -> list[checks.GridCall]:
        c = self.cfg
        base = {"datasets": ("archie",), "budgets": (c["budget"],), "n_trials": c["trials"], "modes": ("nopred",)}
        out = [
            checks.GridCall(algorithms=("inquest",), params={"alpha": a}, label=f"alpha-{a}", **base) for a in c["alphas"]
        ]
        out += [
            checks.GridCall(algorithms=("inquest",), params={"seg_len": c["records"] // t}, label=f"T-{t}", **base)
            for t in c["t_segments"]
        ]
        out.append(checks.GridCall(algorithms=("uniform",), label="uniform-ref", **base))
        return out

    def rollup(self, res, call):
        # As jobs/sensitivity.py: the median segment RMSE of each sweep point.
        return median_segment_rmse(res).toPandas()

    def describe(self) -> dict:
        c = self.cfg
        return {
            "datasets": ["archie"],
            "records": c["records"],
            "segments": list(c["t_segments"]),
            "trials": c["trials"],
            "budgets": [c["budget"]],
            "alphas": list(c["alphas"]),
            "calls_per_pass": len(self.calls()),
        }


class Stream:
    """``run_streaming_inquest`` over one stream written as one file per segment."""

    # The measured query's 100 batches absorb its own first slow batches.
    warm_passes = 0

    def __init__(self, bench, cfg: dict) -> None:
        self.bench, self.cfg = bench, cfg
        self.source_dir: Path | None = None

    @property
    def n_records(self) -> int:
        return self.cfg["seg_len"] * self.cfg["segments"]

    def setup(self) -> None:
        b, c, tr = self.bench, self.cfg, self.bench.tracer
        with tr.span("datasets.generate", dataset=c["dataset"], records=self.n_records):
            self.stream = generate(c["dataset"], n_records=self.n_records, seg_len=c["seg_len"], seed=b.seed)
        if self.source_dir is not None:
            shutil.rmtree(self.source_dir.parent, ignore_errors=True)
        root = b.fresh_dir("segments")
        self.source_dir = root / "measured"
        with tr.span("streaming.write_segment_files", files=c["segments"]):
            write_segment_files(self.stream, self.source_dir)
        # Warm-up: a short query over the first few segments, discarded.
        n_warm = c["warmup_segments"] * c["seg_len"]
        head = StreamData(
            name=self.stream.name,
            statistic=self.stream.statistic[:n_warm],
            pred=self.stream.pred[:n_warm],
            proxy=self.stream.proxy[:n_warm],
            seg_len=c["seg_len"],
        )
        write_segment_files(head, root / "warmup")
        b.listener.reset()
        run_streaming_inquest(b.spark, root / "warmup", config=InQuestConfig(n_per_segment=c["n_per_segment"]), seed=b.seed)
        b.listener.wait_terminated()

    def run_pass(self, tag: str, *, traced: bool = False) -> PassResult:
        b, c, tr = self.bench, self.cfg, self.bench.tracer
        shutil.rmtree(self.source_dir / "_checkpoint", ignore_errors=True)
        b.listener.reset()
        t0 = time.perf_counter()
        with tr.span("streaming.run_streaming_inquest", segments=c["segments"]):
            batches = run_streaming_inquest(
                b.spark, self.source_dir, config=InQuestConfig(n_per_segment=c["n_per_segment"]), seed=b.seed
            )
        seconds = time.perf_counter() - t0
        terminated = b.listener.wait_terminated()
        progress = sorted((p for p in b.listener.progress if p.numInputRows > 0), key=lambda p: p.batchId)
        pr = PassResult(call_s=[seconds], trials=1, progress=progress)
        pr.latencies_ms = [float(p.durationMs["triggerExecution"]) for p in progress]
        with tr.span("bench.check"):
            budget = c["n_per_segment"] * c["segments"]
            with tr.span("core.kernel", algo="inquest", budget=budget) as sp:
                ref = inquest_trial(
                    self.stream.statistic,
                    self.stream.pred,
                    self.stream.proxy,
                    seg_len=c["seg_len"],
                    total_budget=budget,
                    seed=b.seed,
                )
                if sp is not None:
                    sp.attrs["oracle_calls"] = ref["oracle_calls"]
            failed, msgs = checks.check_stream(batches, ref["seg_estimates"])
        if not terminated:
            msgs.append("no QueryTerminated event from the streaming listener")
            failed += 1
        if len(progress) != c["segments"]:
            msgs.append(f"{len(progress)} progress events with input, expected {c['segments']}")
            failed += 1
        pr.attempted, pr.failed, pr.messages = c["segments"], failed, msgs
        pr.digests.append(checks.digest(np.array([x["estimate"] for x in batches])))
        pr.records = len(batches) * c["seg_len"]
        return pr

    def describe(self) -> dict:
        c = self.cfg
        return {
            "datasets": [c["dataset"]],
            "records": self.n_records,
            "segments": c["segments"],
            "records_per_segment": c["seg_len"],
            "trials": 1,
            "budgets": [c["n_per_segment"] * c["segments"]],
            "n_per_segment": c["n_per_segment"],
            "trigger": "AvailableNow, maxFilesPerTrigger=1",
        }


WORKLOADS = {"mc-grid": McGrid, "sweep": Sweep, "stream": Stream}
