"""Golden gate: every registry kernel's outputs, bit for bit, at fixed seeds.

Each ``ALGORITHMS`` entry runs on small versions of the six streams in
both query modes, with a segment length that divides the stream (T=5)
and one that leaves a short last segment (T=7), at a budget the strata
absorb and one that saturates the top fixed stratum.  The SHA-256 of
every ``seg_estimates``, ``full_estimate`` and ``oracle_calls`` must
equal the digest recorded below, so a refactor of the sampling kernels
cannot change a single drawn record or estimate unnoticed.
"""
import hashlib
import itertools

import numpy as np
import pytest

from repro.datasets.streams import DATASET_NAMES, generate
from repro.sparkops.trials import ALGORITHMS

_N = 10_000
_SEG_LENS = (2_000, -(-_N // 7))  # T=5 (divides the stream) and T=7
_BUDGETS = (500, 5_000)
_SEEDS = (0, 1)

GOLDEN = {
    "inquest": "af1d7e4f1743e98b",
    "uniform": "78ebbaa8ece6e0a0",
    "stratified": "83fbca21ae634b06",
    "abae": "3b6e5bb46f7f1871",
    "inquest_fixed_alloc": "363e021fdb07d209",
    "inquest_fixed_strata": "30db3f10d14aabfc",
    "stratified_pilot": "fce39dba9f1d6ae5",
}


@pytest.fixture(scope="module")
def streams():
    return {name: generate(name, n_records=_N, seg_len=_SEG_LENS[0]) for name in DATASET_NAMES}


def kernel_digest(kernel, streams) -> str:
    h = hashlib.sha256()
    for (name, s), mode, seg_len, budget, seed in itertools.product(
        streams.items(), ("pred", "nopred"), _SEG_LENS, _BUDGETS, _SEEDS
    ):
        pred = s.pred if mode == "pred" else np.ones(s.n_records, dtype=bool)
        out = kernel(
            s.statistic, pred, s.proxy, seg_len=seg_len, total_budget=budget, seed=seed
        )
        h.update(f"{name}|{mode}|{seg_len}|{budget}|{seed}".encode())
        h.update(np.asarray(out["seg_estimates"], dtype=np.float64).tobytes())
        h.update(np.float64(out["full_estimate"]).tobytes())
        h.update(np.int64(out["oracle_calls"]).tobytes())
    return h.hexdigest()[:16]


def test_golden_covers_registry():
    assert set(GOLDEN) == set(ALGORITHMS)


@pytest.mark.parametrize("algo", sorted(GOLDEN))
def test_kernel_bit_identical(algo, streams):
    assert kernel_digest(ALGORITHMS[algo], streams) == GOLDEN[algo]
