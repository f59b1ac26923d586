"""Query estimators: per-segment estimate, ``GetPrediction``, bootstrap CI.

All estimators operate on the per-(segment, stratum) sample sets drawn
by the kernels.  A sample set is represented as a :class:`StratumSample`
(the statistic values and predicate flags of the records the oracle was
invoked on, plus the stratum's population size ``d_size``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StratumSample",
    "sample_cells",
    "segment_estimate",
    "get_prediction",
    "bootstrap_ci",
]


@dataclass
class StratumSample:
    """Oracle samples drawn from one (segment, stratum) cell.

    ``f`` are the oracle statistic values, ``pred`` the oracle predicate
    flags for the same records, ``d_size`` the number of *stream* records
    in the cell (known exactly: the proxy is scored on every record).
    """

    f: np.ndarray
    pred: np.ndarray
    d_size: int

    @property
    def n(self) -> int:
        return len(self.f)

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.pred))

    @property
    def p_hat(self) -> float:
        """Predicate positive rate estimate; 0 when the cell is unsampled."""
        return self.n_pos / self.n if self.n > 0 else 0.0

    @property
    def mu_hat(self) -> float:
        """Mean statistic over predicate-matching samples; 0 when none."""
        if self.n_pos == 0:
            return 0.0
        return float(np.asarray(self.f, dtype=np.float64)[np.asarray(self.pred, dtype=bool)].mean())


def sample_cells(
    f: np.ndarray, pred: np.ndarray, parts: list[np.ndarray], d_sizes: np.ndarray
) -> list[StratumSample]:
    """One :class:`StratumSample` per stratum from its drawn indices ``parts``.

    ``f``/``pred`` are read only at the drawn indices; ``d_sizes[k]`` is
    stratum ``k``'s record count ``|D_tk|``.
    """
    return [
        StratumSample(f=f[ix], pred=pred[ix], d_size=int(n))
        for ix, n in zip(parts, d_sizes)
    ]


def segment_estimate(cells: list[StratumSample]) -> float:
    """Estimate of one segment's mean over predicate-matching records.

    ``mu_hat_t = sum_k w_hat_tk mu_hat_tk`` with ``w_hat_tk =
    p_hat_tk |D_tk| / sum_j p_hat_tj |D_tj]`` — the within-segment form of
    ``GetPrediction`` and the estimator the paper's segment-RMSE metric
    scores.  Returns 0 when no predicate-matching sample was drawn in any
    stratum (no information).
    """
    weights = np.array([c.p_hat * c.d_size for c in cells], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return 0.0
    mus = np.array([c.mu_hat for c in cells], dtype=np.float64)
    return float((weights / total) @ mus)


def get_prediction(cells: list[StratumSample]) -> float:
    """``GetPrediction`` (Algorithm 2): the full-query estimate.

    ``mu_hat = sum_{t,k} mu_hat_tk * p_hat_tk |D_tk| /
    sum_{t,j} p_hat_tj |D_tj]`` over every (segment, stratum) cell sampled
    so far.  Structurally identical to :func:`segment_estimate` over the
    flattened cell list, exposed separately to mirror the paper.
    """
    return segment_estimate(cells)


def bootstrap_ci(
    rng: np.random.Generator,
    cells: list[StratumSample],
    *,
    confidence: float = 0.95,
    n_boot: int = 1000,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``get_prediction``.

    Resamples each cell's oracle samples with replacement (stratified
    bootstrap, matching the stochastic-draw analysis the paper cites from
    the ABae technical report) and takes the ``(1±confidence)/2``
    percentiles of the resampled estimates.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    estimates = np.empty(n_boot, dtype=np.float64)
    for b in range(n_boot):
        boot_cells = []
        for c in cells:
            if c.n == 0:
                boot_cells.append(c)
                continue
            idx = rng.integers(0, c.n, size=c.n)
            boot_cells.append(
                StratumSample(
                    f=np.asarray(c.f)[idx], pred=np.asarray(c.pred)[idx], d_size=c.d_size
                )
            )
        estimates[b] = get_prediction(boot_cells)
    lo = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(estimates, lo)),
        float(np.quantile(estimates, 1.0 - lo)),
    )
