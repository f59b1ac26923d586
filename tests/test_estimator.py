"""Unit tests for repro.core.estimator."""
import numpy as np
import pytest

from repro.core.estimator import (
    StratumSample,
    bootstrap_ci,
    get_prediction,
    sample_cells,
    segment_estimate,
)


def cell(f, pred, d_size):
    return StratumSample(
        f=np.asarray(f, dtype=float), pred=np.asarray(pred, dtype=bool), d_size=d_size
    )


class TestStratumSample:
    def test_counts(self):
        c = cell([1, 2, 3], [True, False, True], 100)
        assert c.n == 3 and c.n_pos == 2

    def test_p_hat(self):
        assert cell([1, 2], [True, False], 10).p_hat == 0.5

    def test_p_hat_empty(self):
        assert cell([], [], 10).p_hat == 0.0

    def test_mu_hat_over_matching_only(self):
        assert cell([5.0, 100.0], [True, False], 10).mu_hat == 5.0

    def test_mu_hat_no_matching_is_zero(self):
        assert cell([5.0], [False], 10).mu_hat == 0.0


class TestSegmentEstimate:
    def test_hand_computed(self):
        # w_k = p_hat_k * d_k; mu = sum w_k mu_k / sum w_k.
        cells = [
            cell([1.0, 1.0], [True, True], 100),  # p=1, mu=1, w=100
            cell([3.0, 0.0], [True, False], 200),  # p=0.5, mu=3, w=100
        ]
        assert np.isclose(segment_estimate(cells), (100 * 1 + 100 * 3) / 200)

    def test_single_cell_is_plain_mean(self):
        c = cell([1.0, 2.0, 6.0], [True, True, True], 50)
        assert np.isclose(segment_estimate([c]), 3.0)

    def test_no_matching_samples_zero(self):
        assert segment_estimate([cell([1.0], [False], 10)]) == 0.0

    def test_empty_cells_zero(self):
        assert segment_estimate([cell([], [], 10)]) == 0.0

    def test_unsampled_cell_ignored(self):
        cells = [cell([2.0], [True], 100), cell([], [], 900)]
        assert np.isclose(segment_estimate(cells), 2.0)

    def test_unbiased_no_predicate(self):
        # Stratified mean with proportional weights is unbiased: average
        # over many resamples converges to the population mean.
        g = np.random.default_rng(0)
        pop = np.concatenate([g.normal(1, 0.1, 1000), g.normal(3, 0.1, 3000)])
        strata = [pop[:1000], pop[1000:]]
        ests = []
        for s in range(600):
            r = np.random.default_rng(s)
            cells = [
                cell(r.choice(part, 20), [True] * 20, len(part)) for part in strata
            ]
            ests.append(segment_estimate(cells))
        assert abs(np.mean(ests) - pop.mean()) < 0.01

    def test_unbiased_with_predicate(self):
        g = np.random.default_rng(1)
        f = g.normal(2, 0.5, 4000)
        pred = g.random(4000) < 0.5
        ests = []
        for s in range(600):
            r = np.random.default_rng(s)
            idx = r.choice(4000, 50, replace=False)
            cells = [cell(f[idx], pred[idx], 4000)]
            ests.append(segment_estimate(cells))
        assert abs(np.mean(ests) - f[pred].mean()) < 0.02


class TestGetPrediction:
    def test_equals_segment_estimate_on_flat_list(self):
        cells = [
            cell([1.0], [True], 10),
            cell([2.0, 4.0], [True, True], 30),
        ]
        assert get_prediction(cells) == segment_estimate(cells)

    def test_algorithm2_formula(self):
        # mu = sum_tk mu_tk p_tk |D_tk| / sum_tj p_tj |D_tj|.
        cells = [
            cell([2.0, 2.0], [True, True], 100),   # mu=2, p=1, d=100
            cell([4.0, 0.0], [True, False], 300),  # mu=4, p=.5, d=300
            cell([0.0], [False], 500),             # p=0 -> drops out
        ]
        expected = (2 * 1 * 100 + 4 * 0.5 * 300) / (100 + 150)
        assert np.isclose(get_prediction(cells), expected)


class TestBootstrapCi:
    def _cells(self, seed=0, n=80):
        g = np.random.default_rng(seed)
        return [
            cell(g.normal(2, 0.5, n), g.random(n) < 0.8, 1000),
            cell(g.normal(3, 0.5, n), g.random(n) < 0.5, 1000),
        ]

    def test_contains_point_estimate(self):
        cells = self._cells()
        lo, hi = bootstrap_ci(np.random.default_rng(1), cells, n_boot=300)
        assert lo <= get_prediction(cells) <= hi

    def test_ordered_and_finite(self):
        lo, hi = bootstrap_ci(np.random.default_rng(2), self._cells(3), n_boot=200)
        assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi

    def test_narrower_at_lower_confidence(self):
        cells = self._cells(4)
        lo95, hi95 = bootstrap_ci(
            np.random.default_rng(5), cells, confidence=0.95, n_boot=400
        )
        lo50, hi50 = bootstrap_ci(
            np.random.default_rng(5), cells, confidence=0.50, n_boot=400
        )
        assert (hi50 - lo50) < (hi95 - lo95)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.random.default_rng(0), self._cells(), confidence=1.5)

    def test_rough_coverage(self):
        # ~95% CI should cover the truth in the vast majority of trials;
        # generous bound to keep the test cheap and stable.
        g = np.random.default_rng(10)
        f = g.normal(2, 1.0, 5000)
        pred = g.random(5000) < 0.7
        truth = f[pred].mean()
        hits = 0
        trials = 60
        for s in range(trials):
            r = np.random.default_rng(100 + s)
            idx = r.choice(5000, 150, replace=False)
            cells = [cell(f[idx], pred[idx], 5000)]
            lo, hi = bootstrap_ci(r, cells, n_boot=200)
            hits += lo <= truth <= hi
        assert hits / trials >= 0.8


class TestSampleCells:
    def test_cells_read_drawn_indices(self):
        f = np.arange(6, dtype=float)
        pred = np.array([True, False, True, True, False, True])
        cells = sample_cells(f, pred, [np.array([4, 0]), np.array([], dtype=int)], np.array([3, 2]))
        assert len(cells) == 2
        assert list(cells[0].f) == [4.0, 0.0]
        assert list(cells[0].pred) == [False, True]
        assert cells[0].d_size == 3 and isinstance(cells[0].d_size, int)
        assert cells[1].n == 0 and cells[1].d_size == 2
