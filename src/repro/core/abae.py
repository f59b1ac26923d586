"""ABae (Kang et al., PVLDB 2021) — the batch-setting comparator.

ABae sees the *entire* dataset's proxy scores before sampling (its
batch-setting advantage): it stratifies globally by proxy quantiles,
spends a pilot fraction of the total budget evenly across strata to
estimate ``p_k`` and ``sigma_k``, then allocates the remaining budget by
the optimal ``|D_k| sqrt(p_k) sigma_k`` rule.  We run it as the paper
does (Section 5.1): ``K = 3``, 15% pilot, *sample reuse* (pilot samples
count toward the final estimate).

Per-segment estimates — needed for the median-segment-RMSE metric —
restrict ABae's global sample to each segment and reweight by
within-segment ``p_hat_tk |D_tk|``, exactly the procedure described in
Section 5.2.
"""
from __future__ import annotations

import numpy as np

from .allocation import estimated_allocation, stratum_stats
from .estimator import get_prediction, sample_cells, segment_estimate
from .inquest import segment_slices
from .sampling import cap_and_redistribute, draw_by_stratum, largest_remainder_round
from .stratify import assign_strata, quantile_boundaries

__all__ = ["abae_trial"]


def abae_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
    pilot_frac: float = 0.15,
) -> dict:
    """One ABae trial over a materialised dataset."""
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    proxy = np.asarray(proxy, dtype=np.float64)
    rng = np.random.default_rng([seed, 0])

    boundaries = quantile_boundaries(proxy, k)
    strata = assign_strata(proxy, boundaries)
    d_sizes = np.bincount(strata, minlength=k)

    # Stage 1 — pilot: even split of pilot_frac * budget across strata.
    pilot_budget = max(k, int(round(pilot_frac * total_budget)))
    pilot_each = largest_remainder_round(np.ones(k), pilot_budget)
    pilot_each = cap_and_redistribute(pilot_each, d_sizes)
    pilot = draw_by_stratum(rng, strata, pilot_each)
    pilot_idx = np.concatenate(pilot)

    # Allocation estimate from the pilot (optimal |D_k| sqrt(p_k) sigma_k
    # rule); uniform fallback when the pilot is uninformative.
    stats = stratum_stats(f[pilot_idx], pred[pilot_idx], strata[pilot_idx], k)
    alloc = estimated_allocation(d_sizes, stats["p_hat"], stats["sigma_hat"])
    if alloc is None:
        alloc = np.full(k, 1.0 / k)

    # Stage 2 — allocate the remainder; pilot records are relabelled out
    # of 0..k-1 so they cannot be drawn again.
    stage2_budget = max(0, total_budget - int(pilot_each.sum()))
    stage2 = cap_and_redistribute(
        largest_remainder_round(alloc, stage2_budget), d_sizes - pilot_each
    )
    unused = strata.copy()
    unused[pilot_idx] = k
    # Sample reuse: the final estimator sees pilot + stage-2 samples.
    samples = [
        np.concatenate([p, drawn])
        for p, drawn in zip(pilot, draw_by_stratum(rng, unused, stage2))
    ]

    # Full-query estimate from global strata; per-segment estimates
    # restrict the sample to each segment.
    seg_estimates = []
    for sl in segment_slices(len(f), seg_len):
        in_seg = [ix[(ix >= sl.start) & (ix < sl.stop)] for ix in samples]
        d_sizes_t = np.bincount(strata[sl], minlength=k)
        seg_estimates.append(segment_estimate(sample_cells(f, pred, in_seg, d_sizes_t)))

    return {
        "seg_estimates": np.asarray(seg_estimates),
        "full_estimate": get_prediction(sample_cells(f, pred, samples, d_sizes)),
        "oracle_calls": int(sum(len(ix) for ix in samples)),
    }
