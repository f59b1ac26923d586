"""InQuest (Algorithms 1 and 2) as a segment-at-a-time state machine.

:class:`InQuestState` is the single implementation shared by the offline
Monte Carlo kernels (:func:`inquest_trial`) and the Structured Streaming
deployment (``repro.streaming.job``): each call to
:meth:`InQuestState.observe_segment` consumes one tumbling-window
segment of the stream — one micro-batch — and returns the real-time
query estimate.

Per segment ``t``:

1. sample: segment 1 is the *pilot* (uniform draw of the full budget
   ``N``); later segments stratify by the EWMA-smoothed quantile
   boundaries and split ``N`` into ``N1`` defensive samples (even across
   strata) plus ``N2`` dynamically allocated samples, drawing without
   replacement within each stratum (= reservoir sampling's output law);
2. update: fold this segment's proxy quantiles into the boundary EWMA
   (``GetStrata``) and this segment's sample-based allocation estimate
   into the allocation EWMA (``GetAlloc``), ready for segment ``t + 1``.

The lesion-study variants of Figure 7 are the ``dynamic_strata`` /
``dynamic_alloc`` flags: both off reproduces "stratified sampling with a
pilot segment".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import estimated_allocation, mix_defensive, stratum_stats
from .estimator import StratumSample, get_prediction, sample_cells, segment_estimate
from .sampling import (
    cap_and_redistribute,
    draw_by_stratum,
    largest_remainder_round,
    uniform_without_replacement,
)
from .stratify import Ewma, assign_strata, fixed_boundaries, quantile_boundaries

__all__ = ["InQuestConfig", "InQuestState", "inquest_trial", "segment_slices"]


@dataclass(frozen=True)
class InQuestConfig:
    """Free parameters of InQuest (paper defaults: K=3, alpha=0.8, N1=0.1N)."""

    n_per_segment: int
    k: int = 3
    alpha: float = 0.8
    defensive_frac: float = 0.1
    dynamic_strata: bool = True
    dynamic_alloc: bool = True

    @property
    def n1(self) -> float:
        """Defensive budget per segment."""
        return self.defensive_frac * self.n_per_segment

    @property
    def n2(self) -> float:
        """Dynamic budget per segment."""
        return self.n_per_segment - self.n1


class InQuestState:
    """Mutable InQuest query state; one instance per running query."""

    def __init__(self, config: InQuestConfig, *, seed: int = 0) -> None:
        self.cfg = config
        self.seed = int(seed)
        self.t = 0
        self._boundary_ewma = Ewma(config.alpha)
        self._alloc_ewma = Ewma(config.alpha)
        self.cells: list[StratumSample] = []

    # -- sampling ----------------------------------------------------------
    def _segment_rng(self, t: int) -> np.random.Generator:
        # Seeded by (trial seed, segment index) so the offline kernel and
        # the Structured Streaming path draw identical samples.
        return np.random.default_rng([self.seed, t])

    def _sampling_boundaries(self) -> np.ndarray:
        if self.cfg.dynamic_strata:
            return np.asarray(self._boundary_ewma.value)
        return fixed_boundaries(self.cfg.k)

    def _alloc_fractions(self) -> np.ndarray:
        k = self.cfg.k
        if not self.cfg.dynamic_alloc:
            return np.full(k, 1.0 / k)
        try:
            dyn = np.asarray(self._alloc_ewma.value)
        except ValueError:  # no informative allocation observed yet
            dyn = np.full(k, 1.0 / k)
        return mix_defensive(dyn, n1=self.cfg.n1, n2=self.cfg.n2, k=k)

    def observe_segment(
        self, f: np.ndarray, pred: np.ndarray, proxy: np.ndarray
    ) -> dict:
        """Consume one segment; return its estimate and the running estimate.

        ``f``/``pred`` are the *oracle* outputs but are only read at the
        sampled indices (``oracle_calls`` counts them); ``proxy`` is read
        everywhere, matching the paper's cost model.
        """
        t = self.t + 1
        cfg = self.cfg
        rng = self._segment_rng(t)
        f = np.asarray(f, dtype=np.float64)
        pred = np.asarray(pred, dtype=bool)
        proxy = np.asarray(proxy, dtype=np.float64)
        seg_quantiles = quantile_boundaries(proxy, cfg.k)

        # The pilot is grouped under the boundaries segment 2 will sample with.
        if t == 1 and cfg.dynamic_strata:
            boundaries = seg_quantiles
        else:
            boundaries = self._sampling_boundaries()
        strata = assign_strata(proxy, boundaries)
        d_sizes = np.bincount(strata, minlength=cfg.k)

        if t == 1:
            # Pilot: uniform sample of the whole per-segment budget.
            pilot = uniform_without_replacement(
                rng, np.arange(len(proxy)), cfg.n_per_segment
            )
            pilot_strata = strata[pilot]
            budgets = np.bincount(pilot_strata, minlength=cfg.k)
            parts = [pilot[pilot_strata == k_] for k_ in range(cfg.k)]
        else:
            budgets = cap_and_redistribute(
                largest_remainder_round(self._alloc_fractions(), cfg.n_per_segment),
                d_sizes,
            )
            parts = draw_by_stratum(rng, strata, budgets)
        idx = np.concatenate(parts)
        sample_strata = np.repeat(np.arange(cfg.k), [len(p) for p in parts])
        cells_t = sample_cells(f, pred, parts, d_sizes)

        # -- post-segment updates (used from segment t + 1 on) -------------
        self._boundary_ewma.update(seg_quantiles)
        stats = stratum_stats(f[idx], pred[idx], sample_strata, cfg.k)
        a_t = estimated_allocation(d_sizes, stats["p_hat"], stats["sigma_hat"])
        if a_t is not None:
            self._alloc_ewma.update(a_t)

        self.cells.extend(cells_t)
        self.t = t
        return {
            "segment": t,
            "estimate": segment_estimate(cells_t),
            "running_estimate": get_prediction(self.cells),
            "oracle_calls": len(idx),
            "budgets": budgets,
            "boundaries": np.asarray(boundaries, dtype=np.float64),
        }


def segment_slices(n_records: int, seg_len: int) -> list[slice]:
    """Tumbling-window segment slices; the last may be shorter."""
    if seg_len <= 0:
        raise ValueError(f"seg_len must be positive, got {seg_len}")
    return [slice(lo, min(lo + seg_len, n_records)) for lo in range(0, n_records, seg_len)]


def inquest_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
    alpha: float = 0.8,
    defensive_frac: float = 0.1,
    dynamic_strata: bool = True,
    dynamic_alloc: bool = True,
) -> dict:
    """One InQuest trial over a materialised stream.

    ``total_budget`` is the query's total oracle budget ``NT``; the
    per-segment budget is ``NT / T`` as in the paper's sweeps.  Returns
    per-segment estimates, the final full-query estimate, and the number
    of oracle calls actually spent.
    """
    slices = segment_slices(len(f), seg_len)
    n_per_segment = max(1, total_budget // len(slices))
    state = InQuestState(
        InQuestConfig(
            n_per_segment=n_per_segment,
            k=k,
            alpha=alpha,
            defensive_frac=defensive_frac,
            dynamic_strata=dynamic_strata,
            dynamic_alloc=dynamic_alloc,
        ),
        seed=seed,
    )
    seg_estimates, oracle_calls = [], 0
    for sl in slices:
        out = state.observe_segment(f[sl], pred[sl], proxy[sl])
        seg_estimates.append(out["estimate"])
        oracle_calls += out["oracle_calls"]
    return {
        "seg_estimates": np.asarray(seg_estimates),
        "full_estimate": get_prediction(state.cells),
        "oracle_calls": oracle_calls,
    }
