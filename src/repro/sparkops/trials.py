"""Spark-distributed Monte Carlo over (dataset, algorithm, budget, trial).

The per-trial kernels are sequential (reservoir sampling with state
carried across segments) so they run as numpy inside Spark tasks:
``run_trials`` broadcasts the materialised streams once, fans the trial
grid out with ``applyInPandas``, and returns a long-format DataFrame of
per-segment (and full-query) estimates next to their ground truths,
ready for the Spark SQL metric aggregations in ``repro.sparkops.metrics``.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.abae import abae_trial
from repro.core.baselines import fixed_stratified_trial, uniform_trial
from repro.core.inquest import inquest_trial
from repro.datasets.streams import StreamData, segment_truths

__all__ = ["ALGORITHMS", "RESULT_SCHEMA", "run_trials"]

#: Algorithm registry: evaluation methods plus the Figure 7 lesion
#: variants of InQuest.
ALGORITHMS = {
    "inquest": inquest_trial,
    "uniform": uniform_trial,
    "stratified": fixed_stratified_trial,
    "abae": abae_trial,
    "inquest_fixed_alloc": functools.partial(inquest_trial, dynamic_alloc=False),
    "inquest_fixed_strata": functools.partial(inquest_trial, dynamic_strata=False),
    "stratified_pilot": functools.partial(
        inquest_trial, dynamic_strata=False, dynamic_alloc=False
    ),
}

RESULT_SCHEMA = (
    "dataset string, algo string, mode string, budget int, trial int, "
    "segment int, estimate double, truth double"
)


#: The registry entries that take ``run_trials``' ``params``: InQuest and
#: its lesion variants (``inquest_trial`` or a partial of it).
_TAKES_PARAMS = frozenset(
    name
    for name, kernel in ALGORITHMS.items()
    if getattr(kernel, "func", kernel) is inquest_trial
)


def run_trials(
    spark: SparkSession,
    streams: dict[str, StreamData],
    *,
    algorithms: list[str],
    budgets: list[int],
    n_trials: int,
    modes: tuple[str, ...] = ("pred", "nopred"),
    params: dict | None = None,
    base_seed: int = 0,
    n_tasks: int | None = None,
) -> DataFrame:
    """Run the full trial grid on the cluster.

    ``params`` are extra keyword arguments forwarded to the InQuest
    variants only (e.g. ``{"alpha": 0.5}`` for the sensitivity sweep); a
    ``seg_len`` entry overrides their segment length.  Output rows carry
    ``segment`` in ``[0, T)`` for per-segment estimates and ``segment =
    -1`` for the full-query estimate, each next to its ground truth.
    """
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    extra = dict(params or {})
    seg_len_override = extra.pop("seg_len", None)
    kwargs = {a: extra if a in _TAKES_PARAMS else {} for a in algorithms}
    seg_lens = {
        (name, a): int(seg_len_override)
        if seg_len_override is not None and a in _TAKES_PARAMS
        else s.seg_len
        for name, s in streams.items()
        for a in algorithms
    }
    # Truths per (mode, seg_len); seg_len = n_records gives the full query's.
    payload = {
        name: {
            "statistic": s.statistic,
            "pred": s.pred,
            "proxy": s.proxy,
            "truth": {
                (mode, seg_len): segment_truths(
                    dataclasses.replace(s, seg_len=seg_len),
                    predicate=(mode == "pred"),
                )
                for mode in modes
                for seg_len in {s.n_records, *(seg_lens[name, a] for a in algorithms)}
            },
        }
        for name, s in streams.items()
    }
    bc = spark.sparkContext.broadcast(payload)

    if n_tasks is None:
        n_tasks = spark.sparkContext.defaultParallelism * 4
    grid = pd.DataFrame(
        list(itertools.product(streams, algorithms, modes, budgets, range(n_trials))),
        columns=["dataset", "algo", "mode", "budget", "trial"],
    )
    # Round-robin task ids spread the grid evenly over the executors.
    grid["task"] = np.arange(len(grid)) % n_tasks
    grid_df = spark.createDataFrame(grid)

    def run_task(pdf: pd.DataFrame) -> pd.DataFrame:
        data = bc.value
        out: list[tuple] = []
        for row in pdf.itertuples(index=False):
            d = data[row.dataset]
            seg_len = seg_lens[row.dataset, row.algo]
            pred = (
                d["pred"]
                if row.mode == "pred"
                else np.ones(len(d["pred"]), dtype=bool)
            )
            res = ALGORITHMS[row.algo](
                d["statistic"],
                pred,
                d["proxy"],
                seg_len=seg_len,
                total_budget=int(row.budget),
                seed=int(base_seed + row.trial),
                **kwargs[row.algo],
            )
            key = (row.dataset, row.algo, row.mode, row.budget, row.trial)
            truth = d["truth"][row.mode, seg_len]
            full_truth = d["truth"][row.mode, len(pred)][0]
            out.extend(
                (*key, t, float(est), float(truth[t]))
                for t, est in enumerate(res["seg_estimates"])
            )
            out.append((*key, -1, float(res["full_estimate"]), float(full_truth)))
        return pd.DataFrame(
            out,
            columns=[
                "dataset",
                "algo",
                "mode",
                "budget",
                "trial",
                "segment",
                "estimate",
                "truth",
            ],
        )

    return grid_df.groupBy("task").applyInPandas(run_task, schema=RESULT_SCHEMA)
