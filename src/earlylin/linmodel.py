"""Explicit linear feature models, trained by GD from zero in lockstep with the net.

`features(mode, moments, X)` gives the feature map of each training mode:
  first  : psi1(x) = (1/sqrt(d)) [zeta x; nu]                  (dim d+1)
  second : psi2(x) = [zeta x/sqrt(d); nu/sqrt(2d); q(x)]       (dim d+2)
  both   : psi(x)  = [sqrt(2/d) zeta x; sqrt(3/(2d)) nu; q(x)] (dim d+2)
where q(x) = theta0 + theta1 (||x||/sqrt(d)-1) + theta2 (||x||/sqrt(d)-1)^2
is the norm feature. The Gram matrix of psi1 is the lin1 kernel of
`kernels.linear_kernel`, and <psi, psi'> = <psi1, psi1'> + <psi2, psi2'>.
"""

from __future__ import annotations

import math

import numpy as np

from .activations import Moments

MODES = ("first", "second", "both")


def norm_feature(mom: Moments, X: np.ndarray) -> np.ndarray:
    """q(x_i) for each row of X (n x d)."""
    dev = np.linalg.norm(X, axis=1) / math.sqrt(X.shape[1]) - 1.0
    return mom.theta0 + mom.theta1 * dev + mom.theta2 * dev**2


def features(mode: str, mom: Moments, X: np.ndarray) -> np.ndarray:
    """Feature matrix Psi of training mode `mode` for the rows of X (n x d),
    nu = mom.theta1: n x (d+1) for `first`, n x (d+2) otherwise."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X has shape {X.shape}, expected (n, d)")
    n, d = X.shape
    Psi = np.empty((n, d + 1 if mode == "first" else d + 2))
    if mode == "both":
        Psi[:, :d] = (math.sqrt(2.0 / d) * mom.zeta) * X
        Psi[:, d] = math.sqrt(3.0 / (2.0 * d)) * mom.theta1
    else:
        Psi[:, :d] = (mom.zeta / math.sqrt(d)) * X
        Psi[:, d] = mom.theta1 / math.sqrt(d if mode == "first" else 2.0 * d)
    if mode != "first":
        Psi[:, d + 1] = norm_feature(mom, X)
    return Psi


class LinearTrainable:
    """A linear model u = Psi beta on fixed features Psi, trained by GD from
    beta = 0 on the squared loss with the 1/(2n) factor; a model of
    `network.run_lockstep`."""

    def __init__(self, Psi: np.ndarray, eta: float):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.Psi, self.eta = Psi, eta
        self.beta = np.zeros(Psi.shape[1])

    def outputs(self) -> np.ndarray:
        return self.Psi @ self.beta

    def step(self, r: np.ndarray) -> None:
        self.beta = self.beta - (self.eta / self.Psi.shape[0]) * (self.Psi.T @ r)


def closed_form_trajectory(K: np.ndarray, y: np.ndarray, eta: float, ts) -> np.ndarray:
    """Closed-form predictions u(t) = y - (I - eta K / n)^t y of GD from zero
    on a kernel K, stacked for each step count t in ts, from a symmetric
    eigendecomposition of K.
    """
    n = K.shape[0]
    ts = [int(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("step counts must be >= 0")
    out = np.empty((len(ts), n))
    evals, evecs = np.linalg.eigh(K)
    z = evecs.T @ y
    factors = 1.0 - eta * evals / n
    for k, t in enumerate(ts):
        out[k] = y - evecs @ (np.power(factors, t) * z)
    return out
