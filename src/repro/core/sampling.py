"""Sampling primitives used by InQuest and the baselines.

The paper draws samples from each (segment, stratum) with *reservoir
sampling* so the oracle is applied uniformly in time without knowing the
stratum's size in advance.  For a fully materialised stratum the output
law of reservoir sampling is exactly a uniform draw without replacement,
so every kernel, the streaming state machine included, draws with
:func:`uniform_without_replacement` (per stratum, through
:func:`draw_by_stratum`).  The one-pass reservoir
(:func:`reservoir_sample`) is used only by the test that checks the two
output laws are equal.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_without_replacement",
    "draw_by_stratum",
    "reservoir_sample",
    "largest_remainder_round",
    "cap_and_redistribute",
]


def uniform_without_replacement(
    rng: np.random.Generator, population: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``min(size, len(population))`` elements uniformly w/o replacement.

    Distributionally identical to the output of reservoir sampling over a
    stream consisting of ``population``'s elements.  Returns a copy.
    """
    size = int(min(size, len(population)))
    if size <= 0:
        return population[:0].copy()
    return rng.choice(population, size=size, replace=False)


def draw_by_stratum(
    rng: np.random.Generator, strata: np.ndarray, budgets: np.ndarray
) -> list[np.ndarray]:
    """Per-stratum uniform draws: ``budgets[k]`` record indices with label ``k``.

    Returns one index array per stratum, in stratum order, each capped at
    the stratum's size.  Records labelled outside ``0..len(budgets)-1``
    are never drawn, so relabelling already-sampled records excludes them.
    """
    return [
        uniform_without_replacement(rng, np.flatnonzero(strata == k), budget)
        for k, budget in enumerate(budgets)
    ]


def reservoir_sample(
    rng: np.random.Generator, stream: np.ndarray, capacity: int
) -> np.ndarray:
    """One-pass reservoir sampling (Algorithm R) over ``stream``.

    Keeps a uniform without-replacement sample of up to ``capacity``
    elements while observing each element exactly once — the property the
    paper relies on to apply the oracle uniformly in time on a live
    stream whose per-stratum record count is unknown a priori.
    """
    capacity = int(capacity)
    if capacity <= 0:
        return stream[:0].copy()
    reservoir = stream[:capacity].copy()
    n_seen = len(reservoir)
    for x in stream[capacity:]:
        n_seen += 1
        j = rng.integers(0, n_seen)
        if j < capacity:
            reservoir[j] = x
    return reservoir


def largest_remainder_round(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integerise ``fractions * total`` so the result sums to ``total``.

    Largest-remainder (Hamilton) rounding: floor everything, then hand the
    leftover units to the entries with the largest fractional parts.  Used
    to turn InQuest's allocation fractions into per-stratum oracle budgets
    without losing or inventing oracle invocations.
    """
    total = int(total)
    fractions = np.asarray(fractions, dtype=np.float64)
    if total <= 0 or fractions.sum() <= 0:
        return np.zeros(len(fractions), dtype=np.int64)
    raw = fractions / fractions.sum() * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def cap_and_redistribute(budgets: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Cap per-stratum budgets at stratum sizes, recycling the excess.

    If an allocation assigns more samples to a stratum than it has
    records, the surplus is re-spread over the unsaturated strata in
    proportion to their remaining headroom, so the total oracle budget is
    preserved whenever the stream can absorb it.
    """
    budgets = np.asarray(budgets, dtype=np.int64).copy()
    capacities = np.asarray(capacities, dtype=np.int64)
    for _ in range(len(budgets)):
        over = np.maximum(budgets - capacities, 0)
        surplus = int(over.sum())
        if surplus == 0:
            break
        budgets = np.minimum(budgets, capacities)
        headroom = capacities - budgets
        if headroom.sum() == 0:
            break
        budgets += largest_remainder_round(
            headroom.astype(np.float64), min(surplus, int(headroom.sum()))
        )
    return np.minimum(budgets, capacities)
