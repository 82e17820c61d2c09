"""Reference computations: fixed numpy work that tracks the machine's speed.

The shared host this benchmark runs on changes speed for minutes at a time:
one `agreement` operation took 2.37 s in one half hour and 5.1-5.7 s in the
next, on the same code and inputs, and set-up went from 0.195 s to 0.45 s.
No median within a run can hide that, so before each operation `run.py`
times the workload's reference computation and `op_p50_rel` divides the
run's median operation time by its median reference time.

A reference is the numpy and scipy primitives of the workload's hot path, at
the workload's shapes, written here: it runs in the `run.py` process, which has
not imported earlylin, so no change to the program can change it. It is a
yardstick for the machine, not a model of the program; an optimisation that
removes work from an operation lowers `op_p50_rel` in proportion.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

MIN_SECONDS = 0.5  # repeat a reference step until this much wall time has passed


def _agreement(size: dict, rng: np.random.Generator):
    """One coupled step's bulk: preactivations, erf and erf' over (n + n_test) x m, contractions."""
    d = size["d"]
    X = rng.standard_normal((size["n"] + size["n_test"], d))
    W = rng.standard_normal((size["m"], d))
    v = rng.standard_normal(size["m"])

    def step():
        Z = X @ W.T / math.sqrt(d)
        A = special.erf(Z)
        D = (2.0 / math.sqrt(math.pi)) * np.exp(-np.square(Z))
        r = A @ v
        return (D * np.outer(r, v)).T @ X

    return step


def _ablation_second(size: dict, rng: np.random.Generator):
    """One frozen-layer step's bulk: preactivations, relu over n x m, a gradient contraction."""
    d = size["d"]
    X = rng.standard_normal((size["n"], d))
    W = rng.standard_normal((size["m"], d))
    v = rng.standard_normal(size["m"])

    def step():
        F = np.maximum(X @ W.T / math.sqrt(d), 0.0)
        r = F @ v - 1.0
        return F.T @ r

    return step


def _kernels(size: dict, rng: np.random.Generator):
    """An n x n kernel build from n x m features, then pairwise 64-point quadratures."""
    n, d, m = size["ntk_n"] // 4, size["ntk_d"], size["ntk_m"] // 4
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((m, d))
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / math.sqrt(2.0 * math.pi)
    pairs = size["points"] * (size["points"] + 1) // 2

    def step():
        P = np.exp(-np.square(X @ W.T / math.sqrt(d)))
        K = (P @ P.T) * (X @ X.T) / (m * d)
        total = 0.0
        for k in range(pairs):
            a, c = 1.0 + 0.01 * (k % 7), 0.3
            u = math.sqrt(a) * nodes
            w2 = (c / math.sqrt(a)) * nodes[:, None] + math.sqrt(a - c * c / a) * nodes[None, :]
            total += weights @ (np.exp(-np.square(u))[:, None] * np.exp(-np.square(w2))) @ weights
        return K.trace() + total

    return step


_BUILDERS = {
    "agreement": _agreement,
    "ablation-second": _ablation_second,
    "kernels": _kernels,
}


def step(workload: str, size: dict):
    """The workload's reference step, built and warmed up (first-touch allocations)."""
    f = _BUILDERS[workload](size, np.random.default_rng(0))
    f()
    return f


def seconds(f) -> float:
    """Mean wall seconds of one call of `f` over calls repeated for MIN_SECONDS."""
    steps, start = 0, time.perf_counter()
    while True:
        f()
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS:
            return elapsed / steps
