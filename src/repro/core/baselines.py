"""The two streaming baselines of Section 5.1.

Both baselines consume the same stream representation as InQuest and
return the same trial-result dict, so the trial runner treats all
algorithms uniformly.

- :func:`uniform_trial` — the paper precomputes ``N`` uniformly random
  record positions between query submission and the end of the
  ``DURATION`` and calls the oracle on exactly those records; estimates
  average the statistic over (predicate-matching) samples.
- :func:`fixed_stratified_trial` — stratified sampling with the fixed
  stratification ``[0, 0.33], [0.33, 0.67], [0.67, 1.0]`` and a fixed
  ``N/K`` budget per (segment, stratum), reservoir-sampled within each
  cell, combined with the ``w_hat_tk = |D_tk| p_hat_tk / sum_j ...``
  weighted average of Equations 11-12.
"""
from __future__ import annotations

import numpy as np

from .estimator import StratumSample, get_prediction, sample_cells, segment_estimate
from .inquest import segment_slices
from .sampling import draw_by_stratum, uniform_without_replacement
from .stratify import assign_strata, fixed_boundaries

__all__ = ["uniform_trial", "fixed_stratified_trial"]


def uniform_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
) -> dict:
    """Uniform-sampling baseline: ``NT`` precomputed positions over the query.

    ``proxy`` is accepted for interface uniformity but unused — uniform
    sampling is proxy-free.
    """
    del proxy
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    rng = np.random.default_rng([seed, 0])
    positions = uniform_without_replacement(rng, np.arange(len(f)), total_budget)
    slices = segment_slices(len(f), seg_len)
    cells = []
    for sl in slices:
        in_seg = positions[(positions >= sl.start) & (positions < sl.stop)]
        cells.append(
            StratumSample(f=f[in_seg], pred=pred[in_seg], d_size=sl.stop - sl.start)
        )
    return {
        # One cell per segment, so segment_estimate degenerates to the
        # plain mean over that segment's predicate-matching samples.
        "seg_estimates": np.array([segment_estimate([c]) for c in cells]),
        "full_estimate": get_prediction(cells),
        "oracle_calls": len(positions),
    }


def fixed_stratified_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
) -> dict:
    """Fixed-strata / fixed-allocation stratified-sampling baseline."""
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    proxy = np.asarray(proxy, dtype=np.float64)
    boundaries = fixed_boundaries(k)
    slices = segment_slices(len(f), seg_len)
    n_per_segment = max(1, total_budget // len(slices))
    # Fixed even split; remainder goes to the first strata.  A stratum
    # smaller than its share is fully sampled and the shortfall is not
    # redistributed, so the baseline can spend less than NT.
    per_stratum = np.full(k, n_per_segment // k, dtype=np.int64)
    per_stratum[: n_per_segment % k] += 1

    seg_estimates, cells, oracle_calls = [], [], 0
    for t, sl in enumerate(slices, start=1):
        rng = np.random.default_rng([seed, t])
        strata = assign_strata(proxy[sl], boundaries)
        parts = draw_by_stratum(rng, strata, per_stratum)
        cells_t = sample_cells(
            f[sl], pred[sl], parts, np.bincount(strata, minlength=k)
        )
        oracle_calls += sum(len(p) for p in parts)
        seg_estimates.append(segment_estimate(cells_t))
        cells.extend(cells_t)
    return {
        "seg_estimates": np.asarray(seg_estimates),
        "full_estimate": get_prediction(cells),
        "oracle_calls": oracle_calls,
    }
