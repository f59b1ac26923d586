"""Correctness checks run inside every benchmark run.

- Grid workloads: every call's row count equals grid x (T + 1), and for a
  fixed sample of grid cells the Spark estimates and truths equal the
  in-process ``ALGORITHMS[algo]`` result at the same seed, bit for bit.
- Stream workload: one micro-batch per segment, in order, and each
  batch's estimate equals ``inquest_trial(..., total_budget=N*T, seed)``
  bit for bit.

Each function returns the number of failed operations it found.
"""
from __future__ import annotations

import contextlib
import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.inquest import segment_slices
from repro.datasets.streams import StreamData
from repro.sparkops.trials import ALGORITHMS

__all__ = [
    "GridCall",
    "kernel_args",
    "n_segments",
    "reference_trial",
    "sample_cells",
    "check_grid_call",
    "check_stream",
    "combine",
    "digest",
]

_KEYS = ["dataset", "algo", "mode", "budget", "trial"]


@dataclass(frozen=True)
class GridCall:
    """One ``run_trials`` call as the workloads issue it."""

    datasets: tuple[str, ...]
    algorithms: tuple[str, ...]
    budgets: tuple[int, ...]
    n_trials: int
    modes: tuple[str, ...]
    params: dict = field(default_factory=dict)
    label: str = ""

    @property
    def n_grid(self) -> int:
        return len(self.datasets) * len(self.algorithms) * len(self.budgets) * self.n_trials * len(self.modes)


def kernel_args(stream: StreamData, call: GridCall, algo: str) -> tuple[int, dict]:
    """``(seg_len, extra kwargs)`` as ``run_trials`` passes them to ``algo``.

    ``run_trials`` drops every param, ``seg_len`` included, for algorithms
    other than the InQuest variants.
    """
    extra = dict(call.params) if algo.startswith(("inquest", "stratified_pilot")) else {}
    return int(extra.pop("seg_len", stream.seg_len)), extra


def n_segments(stream: StreamData, call: GridCall, algo: str) -> int:
    return len(segment_slices(stream.n_records, kernel_args(stream, call, algo)[0]))


def _no_span(name, **attrs):
    return contextlib.nullcontext()


def reference_trial(
    stream: StreamData,
    call: GridCall,
    algo: str,
    mode: str,
    budget: int,
    trial: int,
    base_seed: int,
    span=_no_span,
):
    """In-process kernel result for one grid cell, with run_trials' argument rules.

    Returns ``(kernel output, per-segment truths, full truth)``; the kernel
    call runs inside ``span("core.kernel", ...)``.
    """
    seg_len, extra = kernel_args(stream, call, algo)
    pred = stream.pred if mode == "pred" else np.ones(stream.n_records, dtype=bool)
    with span("core.kernel", algo=algo, budget=int(budget)) as sp:
        res = ALGORITHMS[algo](
            stream.statistic,
            pred,
            stream.proxy,
            seg_len=seg_len,
            total_budget=int(budget),
            seed=int(base_seed + trial),
            **extra,
        )
        if sp is not None:
            sp.attrs["oracle_calls"] = int(res["oracle_calls"])
    truths = []
    for sl in segment_slices(stream.n_records, seg_len):
        f, m = stream.statistic[sl], pred[sl]
        truths.append(float(f[m].mean()) if m.any() else 0.0)
    f, m = stream.statistic, pred
    full_truth = float(f[m].mean()) if m.any() else 0.0
    return res, np.asarray(truths), full_truth


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64)).view(np.uint64)


def sample_cells(call: GridCall, seed: int) -> list[tuple]:
    """One (dataset, trial) per (algo, mode, budget): a fixed, seeded sample."""
    rng = np.random.default_rng([seed, zlib.crc32(call.label.encode())])
    out = []
    for algo in call.algorithms:
        for mode in call.modes:
            for budget in call.budgets:
                d = call.datasets[int(rng.integers(len(call.datasets)))]
                out.append((d, algo, mode, budget, int(rng.integers(call.n_trials))))
    return out


def check_grid_call(
    rows: pd.DataFrame,
    streams: dict[str, StreamData],
    call: GridCall,
    cells: list[tuple],
    base_seed: int,
    span=_no_span,
) -> tuple[int, list[str]]:
    """Failed-trial count and messages for one collected ``run_trials`` result.

    A short or long result counts every trial of the call as failed; a
    sampled cell whose estimates or truths differ in any bit counts one.
    """
    expected = sum(
        (n_segments(streams[d], call, a) + 1) * len(call.budgets) * call.n_trials * len(call.modes)
        for d in call.datasets
        for a in call.algorithms
    )
    if len(rows) != expected:
        return call.n_grid, [f"{call.label}: {len(rows)} rows, expected {expected}"]
    failed, msgs = 0, []
    groups = rows.groupby(_KEYS)
    for d, algo, mode, budget, trial in cells:
        key = (d, algo, mode, budget, trial)
        res, truths, full_truth = reference_trial(streams[d], call, algo, mode, budget, trial, base_seed, span)
        got = groups.get_group(key).sort_values("segment")
        want_est = np.append(res["full_estimate"], res["seg_estimates"])  # segment -1 sorts first
        want_truth = np.append(full_truth, truths)
        if not (
            np.array_equal(_bits(got["estimate"]), _bits(want_est))
            and np.array_equal(_bits(got["truth"]), _bits(want_truth))
        ):
            failed += 1
            msgs.append(f"{call.label}: cell {key} differs from the in-process kernel")
    return failed, msgs


def check_stream(batches: list[dict], reference_estimates: np.ndarray) -> tuple[int, list[str]]:
    """Failed-batch count: missing, out-of-order or non-identical batches."""
    n_seg = len(reference_estimates)
    failed, msgs = max(0, n_seg - len(batches)), []
    if len(batches) != n_seg:
        msgs.append(f"{len(batches)} micro-batches, expected {n_seg}")
    for i, b in enumerate(batches[:n_seg]):
        if b["source_segment"] != i or _bits(b["estimate"])[()] != _bits(reference_estimates[i])[()]:
            failed += 1
            msgs.append(f"batch {i} (segment {b['source_segment']}) differs from the in-process kernel")
    failed += max(0, len(batches) - n_seg)
    return failed, msgs


def combine(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def digest(values: pd.DataFrame | np.ndarray) -> str:
    """Order-independent SHA-256 of estimates, for bit-identity across commits."""
    h = hashlib.sha256()
    if isinstance(values, pd.DataFrame):
        frame = values.sort_values(_KEYS + ["segment"])[_KEYS + ["segment", "estimate"]]
        for row in frame.itertuples(index=False):
            h.update("|".join(map(str, row[:-1])).encode())
            h.update(_bits(row[-1]).tobytes())
    else:
        h.update(_bits(values).tobytes())
    return h.hexdigest()[:16]
